import numpy as np
import pytest
from hypothesis import strategies as st

from brsnis import (DegenerateWeightsError, benchmark_mixture, make_gaussian_mixture,
                    mixture_test_function, mixture_truth)


@pytest.fixture(scope="session")
def mixture2():
    """The two-dimensional benchmark mixture: (spec, model, f, truth)."""
    spec = benchmark_mixture(2)
    return spec, make_gaussian_mixture(spec), mixture_test_function(spec), \
        mixture_truth(spec)


@pytest.fixture(scope="session")
def gauss_student_1d():
    """Standard Gaussian target under a Student t3 proposal, dimension 1."""
    from brsnis import MixtureSpec
    spec = MixtureSpec(
        means=np.zeros((2, 1)),
        cov_scale=1.0,
        weight=0.5,
        rect_a=np.array([[-1.0, 1.0]]),
        rect_b=np.array([[2.0, 3.0]]),
    )
    return spec, make_gaussian_mixture(spec), mixture_test_function(spec), \
        mixture_truth(spec)


@st.composite
def log_weights(draw, size):
    """``(log weights, finite)``: ``size`` log weights spread over 0 to 2000
    nats when ``finite`` is "all"; with "one" every entry but one is -inf,
    with "none" every entry is."""
    spread = draw(st.floats(0.0, 2000.0))
    lw = -spread * np.array(draw(st.lists(st.floats(0.0, 1.0), min_size=size,
                                          max_size=size)))
    finite = draw(st.sampled_from(["all", "one", "none"]))
    if finite != "all":
        keep = draw(st.integers(0, size - 1)) if finite == "one" else -1
        lw[np.arange(size) != keep] = -np.inf
    return lw, finite


def outcome(run, *args):
    """``run(*args)``, or "degenerate" if it raised DegenerateWeightsError."""
    try:
        return run(*args)
    except DegenerateWeightsError:
        return "degenerate"
