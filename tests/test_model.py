"""Built-in models, their samplers and the weight-constant estimators."""

import dataclasses
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
import scipy.special
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import brentq, minimize
from scipy.special import gammaln, logsumexp

import brsnis.model
from brsnis import (CountingModel, DegenerateWeightsError, LogisticPosteriorSpec,
                    MixtureSpec, ModelSpec, NewtonConvergenceError, TestFunction,
                    UnboundedWeightError, benchmark_mixture, estimate_kappa, estimate_omega, indicator_difference,
                    laplace_proposal, logistic_predictive, make_gaussian_mixture,
                    make_logistic_posterior, mixture_rectangle_probability,
                    synthetic_logistic_data)

MEAN_ABS_T3 = 2.0 * np.sqrt(3.0) / np.pi  # E|X| for a t3 variable
DOF = 3.0  # degrees of freedom of both models' Student proposal
ROOT = Path(__file__).resolve().parents[1]
# Dims of the mixture on each side of numpy's pairwise summation of a lone
# row: one sequential sum below 8 coordinates, 8 accumulators with and without
# a tail, and a split above 128.
MIXTURE_DIMS = [2, 7, 8, 9, 17, 130]


def scipy_log_weight(spec, points):
    """The mixture's log weight, row-major, with its two components summed by
    scipy's ``logsumexp``, and the larger magnitude S of the two terms it
    subtracts (that log-sum-exp and the Student log density).  The model sums
    each row's dim squared distances in another order and adds a few terms, so
    it must match to the recursive-sum bound (dim + 4) eps S, not bit for bit."""
    dim, dof = spec.dim, DOF
    log_norm = -0.5 * dim * np.log(2.0 * np.pi * spec.cov_scale)
    comp = np.empty((2, len(points)))
    for j, mass in enumerate((spec.weight, 1.0 - spec.weight)):
        sq = ((points - spec.means[j]) ** 2).sum(axis=1)
        comp[j] = np.log(mass) + log_norm - sq / (2.0 * spec.cov_scale)
    const = (gammaln((dof + dim) / 2.0) - gammaln(dof / 2.0)
             - 0.5 * dim * np.log(dof * np.pi))
    sq = np.einsum("ij,ij->i", points, points)
    mixture = logsumexp(comp, axis=0)
    student = const - 0.5 * (dof + dim) * np.log1p(sq / dof)
    return mixture - student, np.maximum(np.abs(mixture), np.abs(student))


def assert_matches_scipy_formula(spec, points, log_weights):
    expected, scale = scipy_log_weight(spec, points)
    error = np.abs(log_weights - expected)
    assert np.all(error <= (spec.dim + 4) * np.finfo(float).eps * scale), \
        np.max(error / scale) / np.finfo(float).eps


def stable_softplus(z):
    """log(1 + exp(-z)) in the form the model evaluates."""
    return np.log1p(np.exp(-np.abs(z))) - np.minimum(z, 0.0)


def out_of_place_proposal_logpdf(spec, theta):
    """The Student proposal's log density less its normalizer, written out of
    place on the points standardized by the mode and the Laplace scale."""
    mean, var_diag = laplace_proposal(spec)
    z = (theta - mean) / np.sqrt(var_diag)
    sq = np.einsum("ij,ij->i", z, z)
    return -0.5 * (DOF + spec.dim) * np.log1p(sq / DOF)


def log_posterior(spec, theta):
    """The model's log posterior of ``theta``, computed as one row block."""
    signed = (spec.covariates * spec.responses[:, None]).T
    return brsnis.model._log_posterior(spec, signed, theta)


def unblocked_logistic_log_weight(spec, theta, softplus=stable_softplus):
    """The logistic log weight with the whole ``(n, n_obs)`` likelihood
    matrix at once, out of place: with the stable softplus, the oracle the
    row-blocked, in-place model must match bit for bit."""
    dim, tau2 = spec.dim, spec.prior_precision
    z = spec.responses[None, :] * (theta @ spec.covariates.T)
    ll = -softplus(z).sum(axis=1)
    lp = 0.5 * dim * np.log(tau2 / (2.0 * np.pi)) - 0.5 * tau2 * (theta ** 2).sum(axis=1)
    return (ll + lp) - out_of_place_proposal_logpdf(spec, theta)


@st.composite
def component_pairs(draw):
    """Two component log densities: a tie, a gap of up to 2000 nats (past the
    745 where exp underflows), or a second value drawn on its own; either
    value may be +-inf or NaN."""
    value = st.one_of(st.floats(-1e4, 1e4), st.sampled_from([np.inf, -np.inf, np.nan]))
    c0 = draw(value)
    kind = draw(st.sampled_from(["tie", "gap", "free"]))
    c1 = {"tie": c0, "gap": c0 - draw(st.floats(0.0, 2000.0)), "free": draw(value)}[kind]
    return (c1, c0) if draw(st.booleans()) else (c0, c1)


class TestMixtureSpec:
    def test_benchmark_shapes(self):
        spec = benchmark_mixture(7)
        assert spec.dim == 7
        np.testing.assert_array_equal(spec.means[0], np.ones(7))
        np.testing.assert_array_equal(spec.means[1], np.r_[-2.0, np.zeros(6)])
        assert spec.cov_scale == pytest.approx(1.0 / 7.0)
        assert spec.weight == pytest.approx(1.0 / 3.0)
        np.testing.assert_array_equal(spec.rect_a[0], [-2.0, 6.0])
        np.testing.assert_array_equal(spec.rect_b[1], [1.0, 2.0])

    def test_validation(self):
        with pytest.raises(ValueError):
            benchmark_mixture(1)
        good = benchmark_mixture(2)
        with pytest.raises(ValueError):
            MixtureSpec(good.means, -1.0, good.weight, good.rect_a, good.rect_b)
        with pytest.raises(ValueError):
            MixtureSpec(good.means, 0.5, 1.5, good.rect_a, good.rect_b)
        with pytest.raises(ValueError):
            MixtureSpec(good.means, 0.5, 0.5,
                        np.array([[1.0, 1.0], [0.0, 1.0]]), good.rect_b)


class TestGaussianMixtureModel:
    def test_one_dimensional_log_weight_identity(self, gauss_student_1d):
        """log w(0) equals log N(0;0,1) minus log t3(0)."""
        _, model, _, _ = gauss_student_1d
        log_phi0 = -0.5 * np.log(2.0 * np.pi)
        log_t0 = gammaln(2.0) - gammaln(1.5) - 0.5 * np.log(3.0 * np.pi)
        assert model.log_weight(np.zeros((1, 1)))[0] == \
            pytest.approx(log_phi0 - log_t0, abs=1e-12)
        assert log_phi0 - log_t0 == pytest.approx(0.0819503164188371, abs=1e-12)

    def test_log_weight_finite_on_proposal_draws(self, mixture2):
        _, model, _, _ = mixture2
        rng = np.random.default_rng(5)
        lw = model.log_weight(model.propose(rng, 10 ** 5))
        assert np.all(np.isfinite(lw))

    def test_proposal_marginal_moments(self, mixture2):
        """Proposal draws are i.i.d. t3: zero mean and 2 sqrt(3)/pi mean
        absolute value per coordinate, both within four standard errors."""
        _, model, _, _ = mixture2
        rng = np.random.default_rng(6)
        n = 10 ** 5
        draws = model.propose(rng, n)
        for coord in range(2):
            x = draws[:, coord]
            assert abs(x.mean()) <= 4.0 * x.std() / np.sqrt(n)
            a = np.abs(x)
            assert abs(a.mean() - MEAN_ABS_T3) <= 4.0 * a.std() / np.sqrt(n)

    def test_target_sample_matches_analytic_rectangles(self, mixture2):
        spec, model, _, _ = mixture2
        rng = np.random.default_rng(7)
        n = 10 ** 6
        draws = model.target_sample(rng, n)
        for rect in (spec.rect_a, spec.rect_b):
            p = mixture_rectangle_probability(spec, rect)
            inside = np.all((draws >= rect[:, 0]) & (draws <= rect[:, 1]), axis=1)
            se = np.sqrt(p * (1.0 - p) / n)
            assert abs(inside.mean() - p) <= 4.0 * se

    def test_rectangle_probability_one_dimensional_oracle(self):
        from scipy.stats import norm
        spec = MixtureSpec(
            means=np.array([[0.5], [-1.0]]), cov_scale=0.25, weight=0.3,
            rect_a=np.array([[0.0, 1.0]]), rect_b=np.array([[1.5, 2.0]]))
        expected = 0.3 * (norm.cdf(1.0, 0.5, 0.5) - norm.cdf(0.0, 0.5, 0.5)) \
            + 0.7 * (norm.cdf(1.0, -1.0, 0.5) - norm.cdf(0.0, -1.0, 0.5))
        assert mixture_rectangle_probability(spec, spec.rect_a) == \
            pytest.approx(expected, abs=1e-14)

    @pytest.mark.parametrize("dim", [2, 7, 20])
    def test_rectangle_probability_matches_ndtr_product(self, dim):
        """The benchmark boxes and random ones, some with infinite edges,
        against the product of scipy's ``ndtr`` differences."""
        spec = benchmark_mixture(dim)
        sd = np.sqrt(spec.cov_scale)
        edges = np.sort(np.random.default_rng(60 + dim).normal(0.0, 2.0, (20, dim, 2)),
                        axis=2)
        edges[::4, :, 0], edges[1::4, :, 1] = -np.inf, np.inf
        for rect in (spec.rect_a, spec.rect_b, *edges):
            expected = sum(
                mass * np.prod(scipy.special.ndtr((rect[:, 1] - mean) / sd)
                               - scipy.special.ndtr((rect[:, 0] - mean) / sd))
                for mass, mean in zip((spec.weight, 1.0 - spec.weight), spec.means))
            assert mixture_rectangle_probability(spec, rect) == \
                pytest.approx(expected, abs=1e-15)

    def test_rectangle_probability_exact_at_infinite_edges(self, mixture2):
        """The CDF is exactly 1 at +inf and 0 at -inf: the whole space holds
        both masses, and a box beyond either end nothing."""
        spec = mixture2[0]
        whole = np.tile([-np.inf, np.inf], (spec.dim, 1))
        assert mixture_rectangle_probability(spec, whole) == \
            spec.weight + (1.0 - spec.weight)
        for edge in (-np.inf, np.inf):
            assert mixture_rectangle_probability(spec, np.full((spec.dim, 2), edge)) == 0.0

    def test_indicator_difference_values(self, mixture2):
        spec, _, f, _ = mixture2
        inside_a_only = np.array([[0.0, 0.0]])
        inside_b_only = np.array([[1.0, 1.5]])  # above box A's second coordinate
        in_both = np.array([[1.0, 1.0]])
        outside = np.array([[5.0, 5.0]])
        assert f(inside_a_only)[0] == 1.0
        assert f(inside_b_only)[0] == -1.0
        assert f(in_both)[0] == 0.0
        assert f(outside)[0] == 0.0


class TestLogSumExpBitwise:
    """The mixture's log density repeats scipy's two-term ``logsumexp``
    arithmetic bit for bit, and its log weight matches the scipy formula to
    the summation bound with each row's bits independent of its batch."""

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @settings(max_examples=200, deadline=None)
    @given(st.lists(component_pairs(), min_size=1, max_size=8))
    def test_two_term_matches_scipy(self, pairs):
        c0, c1 = np.array(pairs).T
        expected = logsumexp(np.stack([c0, c1]), axis=0)
        assert np.array_equal(brsnis.model._log_add_exp(c0, c1), expected,
                              equal_nan=True)

    @pytest.mark.parametrize("dim", MIXTURE_DIMS)
    def test_log_weight_matches_scipy_formula(self, dim):
        spec = benchmark_mixture(dim)
        model = make_gaussian_mixture(spec)
        points = model.propose(np.random.default_rng(40 + dim), 10 ** 5)
        batch = model.log_weight(points)
        assert_matches_scipy_formula(spec, points, batch)
        # Bits independent of the batch, which chunked and threaded runs and
        # the lockstep Nelder-Mead rely on.
        for i, point in enumerate(points[:200]):
            assert np.array_equal(model.log_weight(point[None, :]), batch[i:i + 1])
        for i in range(0, 200, 3):
            assert np.array_equal(model.log_weight(points[i:i + 3]), batch[i:i + 3])

    def test_tied_components_match_scipy_formula(self, gauss_student_1d):
        """Equal masses and centers: every point is a tie."""
        spec, model, _, _ = gauss_student_1d
        points = model.propose(np.random.default_rng(42), 10 ** 4)
        assert_matches_scipy_formula(spec, points, model.log_weight(points))

    def test_log_weight_does_not_call_scipy(self, monkeypatch):
        def fail(*args, **kwargs):
            raise AssertionError("log_weight called scipy's logsumexp")

        model = make_gaussian_mixture(benchmark_mixture(7))
        points = model.propose(np.random.default_rng(43), 100)
        monkeypatch.setattr(scipy.special, "logsumexp", fail)
        model.log_weight(points)
        model.log_weight(points[0])


class TestEstimateKappa:
    def test_constant_weights(self):
        assert estimate_kappa(np.zeros(1000)) == pytest.approx(1.0, abs=1e-12)

    def test_two_point_weights(self):
        """Equal counts of w=1 and w=3: kappa = mean(w^2) / mean(w)^2 = 5/4."""
        log_weights = np.log(np.repeat([1.0, 3.0], 500))
        assert estimate_kappa(log_weights) == pytest.approx(1.25, abs=1e-12)

    def test_shift_invariance(self, mixture2):
        _, model, _, _ = mixture2
        log_weights = model.log_weight(model.propose(np.random.default_rng(10), 5000))
        assert estimate_kappa(log_weights + 123.4) == \
            pytest.approx(estimate_kappa(log_weights), rel=1e-10)

    @pytest.mark.parametrize("gap", [0.0, 10.0, 800.0])
    def test_two_point_closed_form(self, gap):
        """Weights 1 and e^-gap: kappa = 2 (1 + e^-2gap) / (1 + e^-gap)^2."""
        expected = 2.0 * (1.0 + np.exp(-2.0 * gap)) / (1.0 + np.exp(-gap)) ** 2
        assert estimate_kappa(np.array([0.0, -gap])) == pytest.approx(expected, rel=1e-15)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("log_weights, kappa", [([1e308, 0.0], 2.0),
                                                    ([9e307, 9e307], 1.0)],
                             ids=["one-huge", "two-huge"])
    def test_huge_log_weights(self, log_weights, kappa):
        """Doubling the log weights overflowed: both used to give NaN after
        an overflow warning."""
        assert estimate_kappa(np.array(log_weights)) == kappa

    def test_draw_count_validation(self):
        with pytest.raises(ValueError, match="at least 2 draws"):
            estimate_kappa(np.zeros(1))

    def test_no_finite_weight_is_degenerate(self):
        """All -inf used to give NaN after an "invalid value" warning."""
        with pytest.raises(DegenerateWeightsError):
            estimate_kappa(np.full(4, -np.inf))

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("bad", [np.inf, np.nan], ids=["inf", "nan"])
    def test_nan_or_inf_weight_rejected(self, bad):
        """[0, +inf] used to give NaN after a warning, [0, NaN] NaN silently."""
        with pytest.raises(ValueError, match="must not be NaN or \\+inf"):
            estimate_kappa(np.array([0.0, -np.inf, bad]))


def pseudo_random(points):
    """A value in [0, 1) hashed from each row's bits: a surface no search
    settles on, the same for a row in any batch."""
    bits = np.ascontiguousarray(points, dtype=float).view(np.uint64)
    h = np.bitwise_xor.reduce(bits * np.uint64(0x9E3779B97F4A7C15), axis=1)
    h ^= h >> np.uint64(29)
    h *= np.uint64(0xBF58476D1CE4E5B9)
    h ^= h >> np.uint64(32)
    return (h >> np.uint64(11)) * 2.0 ** -53


def bowl(points, center):
    return ((points - center) ** 2).sum(axis=1)


# Objectives past the mixture's weight surface: NaN outside a box, a +inf
# plateau (zero weight) beside a bowl, and three whose restarts run into the
# iteration cap: a bowl roughened by pseudo-random noise, the noise alone, and
# a cone so steep that it still improves at the cap's last iteration in 3-D.
EDGE_SURFACES = {
    "nan-hole": lambda p: np.where(np.abs(p).max(axis=1) < 1.5, bowl(p, 0.5), np.nan),
    "inf-plateau": lambda p: np.where(p[:, 0] < 0, np.inf, bowl(p, 1.0)),
    "rough": lambda p: bowl(p, 0.0) + 0.1 * pseudo_random(p),
    "pseudo-random": pseudo_random,
    "cone": lambda p: 1e100 * np.sqrt(np.sqrt(bowl(p, 0.0))),
}


class TestEstimateOmega:
    def test_constant_weights(self):
        model = ModelSpec(dim=2, log_weight=lambda x: np.zeros(len(x)),
                          propose=lambda rng, n: rng.standard_normal((n, 2)))
        est = estimate_omega(model, np.zeros(1000), 4, np.random.default_rng(11))
        assert est == pytest.approx(1.0, abs=1e-9)

    def test_matches_grid_oracle_one_dimensional(self, gauss_student_1d):
        """Gaussian over t3 weight: multistart optimum matches a dense grid."""
        _, model, _, _ = gauss_student_1d
        grid = np.linspace(-10.0, 10.0, 200001).reshape(-1, 1)
        oracle_sup = model.log_weight(grid).max()
        rng = np.random.default_rng(12)
        log_weights = model.log_weight(model.propose(rng, 2 * 10 ** 5))
        est = estimate_omega(model, log_weights, 8, rng)
        assert est == pytest.approx(np.exp(oracle_sup), rel=0.01)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("bad, error, message", [
        (-np.inf, DegenerateWeightsError, "all log weights are -inf"),
        (np.inf, ValueError, "must not be NaN or \\+inf"),
        (np.nan, ValueError, "must not be NaN or \\+inf")],
        ids=["no-finite", "inf", "nan"])
    def test_bad_log_weights_rejected_before_search(self, bad, error, message):
        """All -inf used to give omega = inf; the check runs before any
        proposal start is drawn."""
        def fail(rng, n):
            raise AssertionError("the search started")

        model = ModelSpec(dim=1, log_weight=lambda x: np.zeros(len(x)), propose=fail)
        log_weights = np.full(3, -np.inf)
        log_weights[1] = bad
        with pytest.raises(error, match=message):
            estimate_omega(model, log_weights, 2, np.random.default_rng(0))

    def test_unbounded_weight_raises(self):
        """The search stops at the first log weight past the ceiling, or NaN,
        before the surface overflows, so no RuntimeWarning is raised either."""
        for log_weight in (lambda x: (x ** 2).sum(axis=1),
                           lambda x: np.where(np.abs(x[:, 0]) < 5.0, x[:, 0] ** 2, np.nan)):
            model = ModelSpec(dim=1, log_weight=log_weight,
                              propose=lambda rng, n: rng.standard_normal((n, 1)))
            rng = np.random.default_rng(13)
            log_weights = model.log_weight(model.propose(rng, 100))
            assert np.all(np.isfinite(log_weights))  # the NaN lies past the starts
            with pytest.raises(UnboundedWeightError):
                estimate_omega(model, log_weights, 2, rng)

    @pytest.mark.parametrize("seed", [4, 5])
    def test_zero_weight_starts_read_as_bounded(self, seed):
        """A standard normal truncated to x > 0 under a standard normal
        proposal: w is 2 or 0.  Both starts land where w = 0, which used to
        raise UnboundedWeightError, and with the ceiling alone gave omega 0."""
        model = ModelSpec(dim=1, propose=lambda rng, n: rng.standard_normal((n, 1)),
                          log_weight=lambda x: np.where(x[:, 0] > 0, np.log(2.0), -np.inf))
        log_weights = model.log_weight(model.propose(np.random.default_rng(0), 10 ** 4))
        assert np.all(model.propose(np.random.default_rng(seed), 2) < 0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            est = estimate_omega(model, log_weights, 2, np.random.default_rng(seed))
        assert est == pytest.approx(2.0 / np.exp(log_weights).mean(), rel=1e-12)
        assert est == pytest.approx(2.01, abs=0.01)

    @staticmethod
    def scipy_runs(fun, starts):
        """scipy's Nelder-Mead from each start on ``fun``, which maps ``(m,
        dim)`` points to ``(m,)`` values, one point per call.  scipy's own
        inf - inf on a plateau of +inf values passes without a warning."""
        options = {"maxiter": 2000, "xatol": 1e-8, "fatol": 1e-10}
        with np.errstate(invalid="ignore"):
            return [minimize(lambda v: float(fun(v[None, :])[0]), start,
                             method="Nelder-Mead", options=options)
                    for start in starts]

    @classmethod
    def scipy_minima(cls, fun, starts):
        """Each start's minimum of ``fun`` by scipy: the oracle the lockstep
        search must match bit for bit."""
        return np.array([run.fun for run in cls.scipy_runs(fun, starts)])

    @pytest.mark.parametrize("dim,seed", [(2, 1), (2, 2), (2, 3), (7, 1), (7, 2)])
    def test_lockstep_matches_scipy_per_restart(self, dim, seed):
        model = make_gaussian_mixture(benchmark_mixture(dim))
        starts = model.propose(np.random.default_rng(seed), 8)
        fun = lambda p: -model.log_weight(p)
        minima = brsnis.model._nelder_mead_minima(fun, starts)
        assert np.array_equal(minima, self.scipy_minima(fun, starts))

    @pytest.mark.parametrize("seed", [4, 5, 6])
    def test_lockstep_matches_scipy_one_dimensional(self, gauss_student_1d, seed):
        _, model, _, _ = gauss_student_1d
        starts = model.propose(np.random.default_rng(seed), 8)
        starts[0] = 0.0  # scipy's simplex steps 0.00025 from a zero coordinate
        fun = lambda p: -model.log_weight(p)
        minima = brsnis.model._nelder_mead_minima(fun, starts)
        assert np.array_equal(minima, self.scipy_minima(fun, starts))

    @pytest.mark.parametrize("dim", [1, 3])
    @pytest.mark.parametrize("surface", list(EDGE_SURFACES))
    def test_lockstep_matches_scipy_on_edge_surfaces(self, surface, dim):
        """NaN and +inf values take scipy's branches, and restarts that run
        to the iteration cap stop where scipy's do.  Two starts put a vertex
        of the first simplex just outside the NaN box.  ``check`` sees the
        values of the points scipy evaluates, every reflection included, and
        no discarded candidate's."""
        fun = EDGE_SURFACES[surface]
        starts = np.random.default_rng(dim).standard_normal((6, dim))
        starts[:2, 0] = 1.45
        evaluated, checked = [], []

        def recorded(points):
            evaluated.append(fun(points))
            return evaluated[-1]

        runs = self.scipy_runs(recorded, starts)
        minima = brsnis.model._nelder_mead_minima(fun, starts, checked.append)
        assert np.array_equal(minima, [run.fun for run in runs], equal_nan=True)
        bits = lambda arrays: set(np.concatenate([a.ravel() for a in arrays]).view(np.uint64))
        assert bits(checked) == bits(evaluated)
        # Every case but these two runs some restart to the cap.
        capped = (surface, dim) not in {("nan-hole", 1), ("cone", 1)}
        assert (max(run.nit for run in runs) == 2000) == capped

    def test_discarded_candidates_never_checked(self, mixture2):
        """The lockstep search also evaluates candidates scipy's branch never
        reaches.  With a log weight that is NaN at every point scipy does not
        evaluate, it evaluates NaN but never checks it: omega keeps the plain
        model's float instead of raising UnboundedWeightError."""
        _, model, _, _ = mixture2
        log_weights = model.log_weight(model.propose(np.random.default_rng(14), 1000))
        evaluated = set()

        def recorded(points):
            evaluated.add(points[0].tobytes())
            return -model.log_weight(points)

        self.scipy_minima(recorded, model.propose(np.random.default_rng(15), 4))
        hidden = []

        def holed_log_weight(points):
            lw = model.log_weight(points)
            hole = np.array([point.tobytes() not in evaluated for point in points])
            hidden.append(hole.sum())
            lw[hole] = np.nan
            return lw

        holed = dataclasses.replace(model, log_weight=holed_log_weight)
        assert estimate_omega(holed, log_weights, 4, np.random.default_rng(15)) == \
            estimate_omega(model, log_weights, 4, np.random.default_rng(15))
        assert sum(hidden) > 0

    def test_benchmark_constants_pinned_and_batched(self, monkeypatch):
        """The benchmark's d=7, 8-restart constants at seed 1001, pinned:
        omega from at most 1400 batched log_weight calls in the maximization,
        one an iteration plus one a shrink (about 10^4 one point at a time,
        2,438 with a call for each phase); kappa is the max-shifted
        plug-in's."""
        from brsnis import cli
        config = cli.read_section("bounds", cli.load_config(
            str(ROOT / "configs" / "mixture_bounds.json"),
            ["model.dim=7", "estimate_restarts=8", "seed=1001"]))
        calls = []
        estimate = cli.estimate_omega

        def counted(model, *args):
            def log_weight(points):
                calls.append(len(points))
                return model.log_weight(points)
            return estimate(dataclasses.replace(model, log_weight=log_weight), *args)

        monkeypatch.setattr(cli, "estimate_omega", counted)
        built = cli.build_model(config["model"])
        assert cli.resolve_constants(config, built) == \
            (30819.355540528406, 1220.0844336782836, True)
        assert 0 < len(calls) <= 1400


class TestLaplaceProposal:
    def test_pure_prior_is_exact(self):
        spec = LogisticPosteriorSpec(covariates=np.empty((0, 3)),
                                     responses=np.empty(0), prior_precision=4.0)
        mean, var = laplace_proposal(spec)
        np.testing.assert_array_equal(mean, np.zeros(3))
        np.testing.assert_allclose(var, np.full(3, 0.25))

    def test_one_observation_bisection_oracle(self):
        """x=1, y=1, unit prior precision: the mode solves sigmoid(-t) = t."""
        spec = LogisticPosteriorSpec(covariates=np.array([[1.0]]),
                                     responses=np.array([1.0]),
                                     prior_precision=1.0)
        mean, _ = laplace_proposal(spec)
        root = brentq(lambda t: 1.0 / (1.0 + np.exp(t)) - t, 0.0, 1.0,
                      xtol=1e-12)
        assert mean[0] == pytest.approx(root, abs=1e-8)

    def test_gradient_norm_at_mode(self):
        rng = np.random.default_rng(14)
        x, y = synthetic_logistic_data(rng, 3, 80, np.array([1.0, -0.5, 0.25]))
        spec = LogisticPosteriorSpec(x, y, prior_precision=0.05)
        mean, _ = laplace_proposal(spec)
        z = y * (x @ mean)
        s = 1.0 / (1.0 + np.exp(z))
        grad = (y * s) @ x - 0.05 * mean
        assert np.linalg.norm(grad) <= 1e-8

    def test_mode_near_truth_with_grid_oracle(self):
        rng = np.random.default_rng(15)
        theta_star = np.array([1.0, -1.0])
        x, y = synthetic_logistic_data(rng, 2, 50, theta_star)
        spec = LogisticPosteriorSpec(x, y, prior_precision=0.05)
        mean, _ = laplace_proposal(spec)

        grid_axis = np.linspace(-2.0, 2.0, 161)
        gx, gy = np.meshgrid(grid_axis, grid_axis)
        grid = np.column_stack([gx.ravel(), gy.ravel()])
        z = y[None, :] * (grid @ x.T)
        logpost = -np.logaddexp(0.0, -z).sum(axis=1) \
            - 0.5 * 0.05 * (grid ** 2).sum(axis=1)
        grid_mode = grid[np.argmax(logpost)]
        assert np.linalg.norm(mean - grid_mode) <= 0.05  # grid pitch 0.025
        assert np.linalg.norm(mean - theta_star) <= 0.5

    def test_non_convergence_raises(self):
        rng = np.random.default_rng(16)
        x, y = synthetic_logistic_data(rng, 4, 100, np.array([2.0, -2.0, 1.0, -1.0]))
        spec = LogisticPosteriorSpec(x, y, prior_precision=0.05)
        with pytest.raises(NewtonConvergenceError, match="did not reach gradient tolerance"):
            laplace_proposal(spec, max_iter=1)


class TestLogisticPosteriorModel:
    @pytest.mark.parametrize("dim", [1, 2, 5])
    def test_pure_prior_log_weight_peak_closed_form(self, dim):
        """Without data, log w(theta) = -u/2 + (nu + d)/2 log1p(u/nu) up to a
        constant, with u = tau^2 |theta|^2: it peaks on the sphere u = d, by
        -d/2 + (nu + d)/2 log1p(d/nu) above its value at the origin."""
        tau2 = 2.0
        spec = LogisticPosteriorSpec(covariates=np.empty((0, dim)),
                                     responses=np.empty(0), prior_precision=tau2)
        model = make_logistic_posterior(spec)
        directions = np.random.default_rng(17).standard_normal((50, dim))
        directions /= np.linalg.norm(directions, axis=1, keepdims=True)
        radii = np.sqrt(np.linspace(0.0, 4.0 * dim, 4001) / tau2)
        lw = model.log_weight((radii[:, None, None] * directions).reshape(-1, dim))
        lw = (lw - model.log_weight(np.zeros((1, dim)))[0]).reshape(len(radii), -1)
        gain = -dim / 2.0 + (DOF + dim) / 2.0 * np.log1p(dim / DOF)
        assert np.all(lw.argmax(axis=0) == 1000)  # u = d, on every direction
        np.testing.assert_allclose(lw.max(axis=0), gain, rtol=0, atol=1e-12)
        assert np.all(lw <= gain + 1e-12)

    def test_log_weight_at_mode_identity(self):
        rng = np.random.default_rng(18)
        x, y = synthetic_logistic_data(rng, 3, 60, np.array([0.5, -0.5, 1.0]))
        spec = LogisticPosteriorSpec(x, y, prior_precision=0.05)
        model = make_logistic_posterior(spec)
        mean, _ = laplace_proposal(spec)

        z = y * (x @ mean)
        log_lik = -np.logaddexp(0.0, -z).sum()
        log_prior = 0.5 * 3 * np.log(0.05 / (2.0 * np.pi)) \
            - 0.5 * 0.05 * (mean ** 2).sum()
        expected = log_lik + log_prior  # the proposal's log kernel is 0 at its centre
        assert model.log_weight(mean[None, :])[0] == pytest.approx(expected,
                                                                   abs=1e-10)

    def test_no_target_sampler(self):
        spec = LogisticPosteriorSpec(covariates=np.empty((0, 2)),
                                     responses=np.empty(0), prior_precision=1.0)
        assert make_logistic_posterior(spec).target_sample is None

    def test_response_validation(self):
        with pytest.raises(ValueError):
            LogisticPosteriorSpec(covariates=np.ones((2, 1)),
                                  responses=np.array([1.0, 0.0]),
                                  prior_precision=1.0)


class TestLogisticWeightConstants:
    """Under the Student proposal the logistic weight is bounded, so the
    constants settle: at the default model two seeds' estimates agree within
    four standard deviations of their difference.  The relative spreads, 2%
    for kappa-hat and 0.3% for omega-hat, bound those measured over 32 seeds
    at these settings.  Under a Gaussian proposal kappa-hat grew with the
    draw count and the maximization diverged."""

    DRAWS, RESTARTS = 2 * 10 ** 5, 8
    SPREAD = {"kappa": 0.02, "omega": 0.003}

    def test_estimates_agree_across_seeds(self):
        from brsnis import cli
        model = cli.build_model({"name": "logistic-synthetic"}).model
        estimates = []
        for seed in (1, 2):
            rng = np.random.default_rng(seed)
            log_weights = model.log_weight(model.propose(rng, self.DRAWS))
            estimates.append({
                "kappa": estimate_kappa(log_weights),
                "omega": estimate_omega(model, log_weights, self.RESTARTS, rng)})
        for name, spread in self.SPREAD.items():
            a, b = (e[name] for e in estimates)
            assert abs(a - b) <= 4.0 * np.sqrt(2.0) * spread * (a + b) / 2.0, name


def block_cases(width):
    """Row counts at the edges of ``row_blocks(n, width)``: none, one and two
    rows, one block, a lone last row and a last block of three rows."""
    rows = brsnis.model._block_rows(width)
    return sorted({0, 1, 2, rows - 1, rows, rows + 1, rows + 2, 2 * rows + 1,
                   2 * rows + 3})


def assert_blocks_cover_rows(n, width):
    """``row_blocks(n, width)`` covers range(n) in order, every block but the
    last with exactly ``_block_rows(width)`` rows."""
    rows = brsnis.model._block_rows(width)
    blocks = brsnis.model.row_blocks(n, width)
    assert [i for block in blocks for i in range(n)[block]] == list(range(n))
    sizes = [block.stop - block.start for block in blocks]
    assert all(size == rows for size in sizes[:-1])
    assert n == 0 or 1 <= sizes[-1] <= rows


# Batch sizes that span a dozen or more blocks of n_obs = 200 rows.
MANY_BLOCKS = [4095, 4096, 4097, 4098, 8193, 8195]


class TestLogisticRowBlocks:
    """The logistic log weight is computed in row blocks of
    ``_block_rows(n_obs)`` rows, about ``_BLOCK_CELLS`` float64 cells each, so
    a large batch runs in bounded memory, with every bit unchanged."""

    N_OBS = 200
    BLOCK = brsnis.model._block_rows(N_OBS)

    def test_block_rows_fill_cells(self):
        """A block holds as many whole rows as fit ``_BLOCK_CELLS`` cells,
        and never fewer than two: 9362 at the mixture's d = 7, 327 at the
        logistic model's 200 observations."""
        widths = (0, 1, 7, 200, 1 << 15, (1 << 15) + 1, 1 << 16, 10 ** 6)
        assert brsnis.model._BLOCK_CELLS == 1 << 16
        assert ([brsnis.model._block_rows(w) for w in widths]
                == [1 << 16, 1 << 16, 9362, 327, 2, 2, 2, 2])

    @pytest.mark.parametrize("n", sorted(set(block_cases(N_OBS) + MANY_BLOCKS)))
    def test_blocks_cover_rows_in_order(self, n):
        assert_blocks_cover_rows(n, self.N_OBS)

    @pytest.mark.parametrize("width, n", [(w, n) for w in (1, 7, 10 ** 6)
                                          for n in block_cases(w)])
    def test_blocks_cover_rows_in_order_at_width(self, width, n):
        """A single column, the mixture's d = 7, and rows wider than a block."""
        assert_blocks_cover_rows(n, width)

    @pytest.mark.parametrize("n", [1, 2, BLOCK - 1, BLOCK, BLOCK + 1, 2 * BLOCK + 3,
                                   20 * BLOCK + 1, 4095, 4096, 4097, 8195])
    def test_log_weight_matches_unblocked_formula(self, n):
        """Where the last block is a lone row (n = 1, BLOCK + 1, 20 BLOCK + 1),
        40 windows of n rows, so 40 distinct last rows, are checked: a lone
        row evaluated as one row, in BLAS's matrix-vector kernel, gets other
        bits in about one row of nine, which one last row would often miss."""
        rng = np.random.default_rng(23)
        x, y = synthetic_logistic_data(rng, 5, self.N_OBS,
                                       np.array([1.0, -0.5, 0.0, 0.5, 2.0]))
        spec = LogisticPosteriorSpec(x, y, prior_precision=0.05)
        model = make_logistic_posterior(spec)
        windows = 40 if n % self.BLOCK == 1 else 1
        theta = model.propose(rng, n + windows - 1)
        expected = unblocked_logistic_log_weight(spec, theta)
        for first in range(windows):
            rows = slice(first, first + n)
            assert np.array_equal(model.log_weight(theta[rows]), expected[rows])

    def test_lone_row_has_its_batch_bits(self):
        """Each row evaluated alone is bitwise its row of one 400-row call.
        BLAS computes a one-row product with its matrix-vector kernel, which
        gave 46 of these rows other bits before a lone row was evaluated as a
        two-row block; the chain runners evaluate lone rows."""
        rng = np.random.default_rng(23)
        x, y = synthetic_logistic_data(rng, 5, self.N_OBS,
                                       np.array([1.0, -0.5, 0.0, 0.5, 2.0]))
        model = make_logistic_posterior(LogisticPosteriorSpec(x, y, prior_precision=0.05))
        theta = model.propose(rng, 400)
        alone = np.concatenate([model.log_weight(row[None]) for row in theta])
        assert np.array_equal(alone, model.log_weight(theta))


class TestLogisticInPlace:
    """The logistic layer computes in place: the softplus likelihood agrees
    with ``np.logaddexp`` to a few ulp, and the predictive and the proposal's
    sampler and density give the out-of-place expressions bit for bit."""

    BLOCK = brsnis.model._block_rows(200)

    @pytest.fixture(scope="class")
    def logistic(self):
        rng = np.random.default_rng(41)
        x, y = synthetic_logistic_data(rng, 5, 200, np.array([1.0, -0.5, 0.0, 0.5, 2.0]))
        spec = LogisticPosteriorSpec(x, y, prior_precision=0.05)
        return spec, make_logistic_posterior(spec)

    def test_log_weight_matches_logaddexp(self, logistic):
        spec, model = logistic
        theta = model.propose(np.random.default_rng(42), 3000)
        expected = unblocked_logistic_log_weight(spec, theta,
                                                 softplus=lambda z: np.logaddexp(0.0, -z))
        np.testing.assert_allclose(model.log_weight(theta), expected, rtol=1e-14, atol=0)

    def test_softplus_extremes_match_logaddexp(self):
        """One observation x = y = 1, so each margin z is theta itself: at
        z = 0 and past exp's overflow and underflow the softplus gives
        ``np.logaddexp``'s values and raises no floating-point warning."""
        spec = LogisticPosteriorSpec(covariates=np.array([[1.0]]),
                                     responses=np.array([1.0]), prior_precision=1.0)
        z = np.array([0.0, 745.0, -745.0, 800.0, -800.0, 1e3, -1e3])
        lp = 0.5 * np.log(1.0 / (2.0 * np.pi)) - 0.5 * z ** 2
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = log_posterior(spec, z[:, None])
        np.testing.assert_array_equal(got, -np.logaddexp(0.0, -z) + lp)

    def test_predictive_matches_out_of_place_and_keeps_inputs(self, logistic):
        _, model = logistic
        rng = np.random.default_rng(43)
        theta = model.propose(rng, self.BLOCK)
        x_test = rng.standard_normal((37, 5))
        theta_before, x_before = theta.copy(), x_test.copy()
        got = logistic_predictive(theta, x_test)
        assert np.array_equal(got, 1.0 / (1.0 + np.exp(-(theta @ x_test.T))))
        assert np.array_equal(theta, theta_before)
        assert np.array_equal(x_test, x_before)

    def test_propose_matches_out_of_place(self, logistic):
        spec, model = logistic
        mean, var_diag = laplace_proposal(spec)
        got = model.propose(np.random.default_rng(44), 1000)
        rng = np.random.default_rng(44)
        normals = rng.standard_normal((1000, spec.dim))
        g = rng.chisquare(DOF, 1000)
        assert np.array_equal(got, mean + normals * np.sqrt(DOF / g)[:, None]
                              * np.sqrt(var_diag))

    def test_proposal_logpdf_matches_out_of_place(self, logistic):
        """``log_weight`` is the log posterior minus the proposal's log
        kernel; with the same log posterior, here of all 1000 rows as one
        block, it must equal the out-of-place kernel's difference bit for
        bit."""
        spec, model = logistic
        theta = model.propose(np.random.default_rng(45), 1000)
        assert np.array_equal(model.log_weight(theta),
                              log_posterior(spec, theta)
                              - out_of_place_proposal_logpdf(spec, theta))

    def test_log_weight_peak_memory(self, logistic):
        """One block's margins and softplus at a time: below three (block +
        1) x n_obs float64 arrays on three blocks of rows."""
        spec, model = logistic
        theta = model.propose(np.random.default_rng(46), 2 * self.BLOCK + 3)
        tracemalloc.start()
        try:
            model.log_weight(theta)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 3 * (self.BLOCK + 1) * spec.n_obs * 8

    def test_log_weight_large_batch_peak_memory(self, logistic):
        """The prior term and the proposal kernel run in the same row blocks
        as the likelihood: at 10^5 rows the pass holds one block's margins
        and softplus, block-sized temporaries and the output, below three
        (block + 1) x n_obs arrays plus two n-vectors.  One (n, dim) temporary of either
        term alone, 4 MB here, would exceed that."""
        spec, model = logistic
        n = 10 ** 5
        theta = model.propose(np.random.default_rng(47), n)
        tracemalloc.start()
        try:
            model.log_weight(theta)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 3 * (self.BLOCK + 1) * spec.n_obs * 8 + 2 * n * 8


def mixture_block_edges(dim):
    """One block, a lone last row, and a last block of three rows."""
    rows = brsnis.model._block_rows(dim)
    return {rows, rows + 1, 2 * rows + 1, 2 * rows + 3}


def mixture_block_cases():
    """(n, dim) pairs: every dim runs a few fixed sizes and its own block
    edges, and dims 2 and 7 each other's too."""
    base = {1, 2, 4096, 4097, 8193, 10 ** 4}
    cases = []
    for dim in MIXTURE_DIMS:
        edges = mixture_block_edges(2) | mixture_block_edges(7) if dim in (2, 7) \
            else mixture_block_edges(dim)
        cases += [(n, dim) for n in sorted(base | edges)]
    return cases


class TestMixtureRowBlocks:
    """The mixture's log weight runs in row blocks of ``_block_rows(dim)``
    rows, each block coordinate-major, within the summation bound of the
    scipy formula and with the bits of the rows around each block edge
    evaluated unblocked; its proposal scales the normals in place, with every
    bit unchanged."""

    @pytest.mark.parametrize("n, dim", mixture_block_cases())
    def test_matches_unblocked_formulas(self, n, dim):
        spec = benchmark_mixture(dim)
        model = make_gaussian_mixture(spec)
        points = model.propose(np.random.default_rng(n), n)
        rng = np.random.default_rng(n)
        z = rng.standard_normal((n, dim))
        g = rng.chisquare(DOF, n)
        assert np.array_equal(points, z * np.sqrt(DOF / g)[:, None])
        log_weights = model.log_weight(points)
        assert_matches_scipy_formula(spec, points, log_weights)
        for rows in brsnis.model.row_blocks(n, dim):
            edge = slice(max(rows.start - 2, 0), rows.start + 2)
            assert np.array_equal(model.log_weight(points[edge]), log_weights[edge])

    def test_propose_peak_memory(self):
        """The Student scale is built in place: the normals and one n-vector,
        below (dim + 1.5) n float64 at 10^5 rows of dim 7."""
        dim, n = 7, 10 ** 5
        model = make_gaussian_mixture(benchmark_mixture(dim))
        rng = np.random.default_rng(61)
        tracemalloc.start()
        try:
            model.propose(rng, n)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < (dim + 1.5) * n * 8


class TestSyntheticData:
    def test_shapes_and_labels(self):
        rng = np.random.default_rng(19)
        x, y = synthetic_logistic_data(rng, 4, 120, np.array([1.0, 0.0, -1.0, 2.0]))
        assert x.shape == (120, 4)
        assert set(np.unique(y)) <= {-1.0, 1.0}

    def test_deterministic_given_seed(self):
        theta = np.array([0.5, -0.5])
        x1, y1 = synthetic_logistic_data(np.random.default_rng(20), 2, 30, theta)
        x2, y2 = synthetic_logistic_data(np.random.default_rng(20), 2, 30, theta)
        np.testing.assert_array_equal(x1, x2)
        np.testing.assert_array_equal(y1, y2)


class TestCountingModel:
    def test_counts_draws_and_evals(self, mixture2):
        _, model, _, _ = mixture2
        counter = CountingModel(model)
        rng = np.random.default_rng(21)
        counter.log_weight(counter.propose(rng, 37))
        counter.log_weight(counter.propose(rng, 5))
        assert counter.proposal_draws == 42
        assert counter.weight_evals == 42


class TestSupBoundCheck:
    @pytest.mark.parametrize("value", [1.5, -1.5, np.nan],
                             ids=["above", "below-minus-bound", "nan"])
    def test_value_outside_bound_raises(self, value):
        """A NaN value used to pass: ``max(|nan|) > bound`` is False."""
        f = TestFunction(fn=lambda pts: np.full(len(pts), value), sup_bound=1.0)
        with pytest.raises(ValueError, match="not finite or above its sup bound"):
            f(np.zeros((3, 2)))
