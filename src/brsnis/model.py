"""Target/proposal model abstraction and the built-in benchmark models.

A model couples an unnormalized log importance weight with a proposal
sampler.  Points are always ``(n, dim)`` float arrays and all densities are
evaluated in log space.  The built-in models, a two-mode Gaussian mixture
and a Bayesian logistic posterior, share one multivariate Student proposal
(centered for the mixture, at the posterior mode with the diagonal Laplace
scale for the logistic model), whose heavy tails keep both weights bounded.

The logistic likelihood sums softplus terms log(1 + exp(-z)).  They are
computed in the stable form log1p(exp(-|z|)) - min(z, 0) from numpy's
vectorized ``exp`` and ``log1p``, in place on reused row-block buffers,
rather than with ``np.logaddexp(0, -z)``, which numpy runs as a scalar libm
loop several times slower.  The two agree to a few ulp, not bit for bit.

The mixture's log weight runs coordinate-major: each row block is copied to
``(dim, n)`` and the squared distances to both component centers are summed
over the coordinates by ``_coordinate_sums``, which repeats the order of
numpy's pairwise ``sum(axis=1)``, so every row keeps the bits of the
row-major sum while numpy's loops run along the rows rather than along a row
only ``dim`` wide.

No command loads scipy.  The three special functions the models need,
``gammaln`` for the Student normalizer, ``ndtr`` for the mixture's box
probabilities and ``logsumexp`` for the weight constants, come from
``_special``, ports that return scipy 1.17's bits, and the weight maximization
is a lockstep multistart Nelder-Mead in numpy that follows scipy's iterates
bit for bit.  scipy is left to the tests, which hold each port to it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from ._special import gammaln, logsumexp, ndtr
from .snis import _check_top_log_weights


class UnboundedWeightError(RuntimeError):
    """Raised when weight maximization diverges (unbounded weight function)."""


class NewtonConvergenceError(RuntimeError):
    """Raised when the Newton mode search fails; carries the last iterate."""

    def __init__(self, message: str, last_iterate: np.ndarray):
        super().__init__(message)
        self.last_iterate = last_iterate


@dataclass(frozen=True)
class ModelSpec:
    """A target/proposal pair.

    Parameters
    ----------
    dim : int
        Point dimension.
    log_weight : callable
        Maps points ``(n, dim)`` to the log of the unnormalized importance
        weight, shape ``(n,)``.  Finite on proposal draws; ``-inf`` is only
        allowed where the target has zero density.
    propose : callable
        ``propose(rng, n)`` draws ``n`` i.i.d. proposal points.
    target_sample : callable, optional
        ``target_sample(rng, n)`` draws exact target samples when the target
        is directly samplable.
    """

    dim: int
    log_weight: Callable[[np.ndarray], np.ndarray]
    propose: Callable[[np.random.Generator, int], np.ndarray]
    target_sample: Optional[Callable[[np.random.Generator, int], np.ndarray]] = None

    def __post_init__(self):
        if self.dim < 1:
            raise ValueError("dim must be a positive integer")


@dataclass(frozen=True)
class TestFunction:
    """A bounded test function with a declared sup bound.

    Every evaluation checks the declared bound, because the closed-form
    bound evaluators rescale by it and silently exceeding it would void
    every comparison downstream.
    """

    __test__ = False  # keep pytest from collecting this as a test case

    fn: Callable[[np.ndarray], np.ndarray]
    sup_bound: float

    def __post_init__(self):
        if not self.sup_bound > 0:
            raise ValueError("sup_bound must be positive")

    def __call__(self, points: np.ndarray) -> np.ndarray:
        values = self.fn(points)
        if np.size(values) and not np.max(np.abs(values)) <= self.sup_bound * (1.0 + 1e-12):
            raise ValueError("test function value not finite or above its sup bound")
        return values


class CountingModel:
    """Wraps a model and counts proposal draws and weight evaluations.

    Used for budget accounting: ``proposal_draws`` accumulates the number of
    points requested from ``propose``, ``weight_evals`` the number of points
    passed to ``log_weight``.
    """

    def __init__(self, base: ModelSpec):
        self.base = base
        self.dim = base.dim
        self.proposal_draws = 0
        self.weight_evals = 0

    def log_weight(self, points: np.ndarray) -> np.ndarray:
        self.weight_evals += len(points)
        return self.base.log_weight(points)

    def propose(self, rng: np.random.Generator, n: int) -> np.ndarray:
        self.proposal_draws += n
        return self.base.propose(rng, n)

    @property
    def target_sample(self):
        return self.base.target_sample


def indicator_difference(rect_a: np.ndarray, rect_b: np.ndarray) -> TestFunction:
    """Test function 1_A(x) - 1_B(x) for two axis-aligned boxes.

    Boxes are ``(dim, 2)`` arrays of per-coordinate [low, high] bounds.
    """
    rect_a = np.asarray(rect_a, dtype=float)
    rect_b = np.asarray(rect_b, dtype=float)

    def fn(points):
        points = np.atleast_2d(points)
        in_a = np.all((points >= rect_a[:, 0]) & (points <= rect_a[:, 1]), axis=1)
        in_b = np.all((points >= rect_b[:, 0]) & (points <= rect_b[:, 1]), axis=1)
        return in_a.astype(float) - in_b.astype(float)

    return TestFunction(fn=fn, sup_bound=1.0)


# Float64 cells per block of a row-blocked computation: 512 KB, so a block
# buffer stays in a typical core's L2 cache whatever its width.  The
# mixture's log weight is blocked by its dim, the logistic model's (rows,
# n_obs) and (rows, test points) products by their second axis.
_BLOCK_CELLS = 1 << 16


def _block_rows(width: int) -> int:
    """Rows per block of ``width`` float64 columns: at least two."""
    return max(_BLOCK_CELLS // max(width, 1), 2)


def row_blocks(n: int, width: int) -> list[slice]:
    """Consecutive slices of at most ``_block_rows(width) + 1`` rows covering
    range(n).

    A lone last row joins the block before it: BLAS computes a one-row
    product with its matrix-vector kernel, whose bits can differ from the
    same row of a larger product, while blocks of two or more rows give
    every row of the unblocked product bit for bit.
    """
    starts = list(range(0, n, _block_rows(width)))
    if len(starts) > 1 and n - starts[-1] == 1:
        starts.pop()
    return [slice(a, b) for a, b in zip(starts, starts[1:] + [n])]


# ---------------------------------------------------------------------------
# The shared Student proposal; Gaussian mixture target
# ---------------------------------------------------------------------------


_STUDENT_DOF = 3.0


def _student_draws(rng: np.random.Generator, n: int, dim: int) -> np.ndarray:
    """``n`` standard Student draws: ``(n, dim)`` normals, then ``n`` chi-squares."""
    z = rng.standard_normal((n, dim))
    # Scaled in place: one n-vector beside the normals.
    scale = rng.chisquare(_STUDENT_DOF, n)
    np.divide(_STUDENT_DOF, scale, out=scale)
    np.sqrt(scale, out=scale)
    z *= scale[:, None]
    return z


def _student_log_kernel(z: np.ndarray) -> np.ndarray:
    """The Student's log density at standardized points, less its normalizer."""
    sq = np.einsum("ij,ij->i", z, z)
    return -0.5 * (_STUDENT_DOF + z.shape[1]) * np.log1p(sq / _STUDENT_DOF)


def _validate_rect(rect: np.ndarray, dim: int, name: str):
    rect = np.asarray(rect, dtype=float)
    if rect.shape != (dim, 2):
        raise ValueError(f"{name} must have shape ({dim}, 2)")
    if not np.all(rect[:, 1] > rect[:, 0]):
        raise ValueError(f"{name} must have positive volume")
    return rect


@dataclass(frozen=True)
class MixtureSpec:
    """Two-component diagonal Gaussian mixture with a Student proposal.

    The target is ``weight * N(means[0], cov_scale I) +
    (1 - weight) * N(means[1], cov_scale I)``; the proposal is the centered
    multivariate Student distribution with ``_STUDENT_DOF`` degrees of
    freedom and identity scale.  ``rect_a``/``rect_b`` define the benchmark
    test function 1_A - 1_B.
    """

    means: np.ndarray
    cov_scale: float
    weight: float
    rect_a: np.ndarray
    rect_b: np.ndarray

    def __post_init__(self):
        means = np.atleast_2d(np.asarray(self.means, dtype=float))
        if means.shape[0] != 2:
            raise ValueError("means must hold exactly two component centers")
        object.__setattr__(self, "means", means)
        if not self.cov_scale > 0:
            raise ValueError("cov_scale must be positive")
        if not 0.0 < self.weight < 1.0:
            raise ValueError("weight must lie in (0, 1)")
        dim = means.shape[1]
        object.__setattr__(self, "rect_a", _validate_rect(self.rect_a, dim, "rect_a"))
        object.__setattr__(self, "rect_b", _validate_rect(self.rect_b, dim, "rect_b"))

    @property
    def dim(self) -> int:
        return self.means.shape[1]


def benchmark_mixture(dim: int) -> MixtureSpec:
    """The built-in two-mode benchmark configuration in a given dimension.

    Centers at (1, ..., 1) and (-2, 0, ..., 0), per-coordinate variance
    1/dim, first-component mass 1/3, Student proposal with 3 degrees of
    freedom.  Box A spans [-2, 6] x [-1, 1]^(d-1); box B spans
    [0.75, 1.25] x [1, 2] x [-0.1, 0.1]^(d-2).
    """
    if dim < 2:
        raise ValueError("benchmark_mixture requires dim >= 2")
    means = np.vstack([np.ones(dim), np.r_[-2.0, np.zeros(dim - 1)]])
    rect_a = np.vstack([[-2.0, 6.0], np.tile([-1.0, 1.0], (dim - 1, 1))])
    rect_b = np.vstack([[0.75, 1.25], [1.0, 2.0], np.tile([-0.1, 0.1], (dim - 2, 1))])
    return MixtureSpec(
        means=means,
        cov_scale=1.0 / dim,
        weight=1.0 / 3.0,
        rect_a=rect_a,
        rect_b=rect_b,
    )


# numpy's pairwise summation (``pairwise_sum`` in its loops) sums up to this
# many terms with eight interleaved accumulators and splits longer runs.
_PAIRWISE_BLOCK = 128


def _coordinate_sums(a: np.ndarray) -> np.ndarray:
    """Sums over axis -2 of ``a``, each column in numpy's pairwise order.

    Column j gets the bits ``a[..., :, j].sum()`` gives a contiguous row:
    below 8 terms one sequential sum, up to ``_PAIRWISE_BLOCK`` eight
    strided accumulators combined as ((r0+r1)+(r2+r3))+((r4+r5)+(r6+r7))
    plus the tail in order, and above that the two halves split at a
    multiple of 8, each summed the same way.  Every step adds whole rows of
    columns, so numpy's vector loops run along the columns.
    """
    count = a.shape[-2]
    if count < 8:
        return np.add.reduce(a, axis=-2)
    if count <= _PAIRWISE_BLOCK:
        head = count - count % 8
        r = np.add.reduce(a[..., :head, :].reshape(a.shape[:-2] + (-1, 8, a.shape[-1])),
                          axis=-3)
        out = ((r[..., 0, :] + r[..., 1, :]) + (r[..., 2, :] + r[..., 3, :])) \
            + ((r[..., 4, :] + r[..., 5, :]) + (r[..., 6, :] + r[..., 7, :]))
        for i in range(head, count):
            out += a[..., i, :]
        return out
    half = count // 2
    half -= half % 8
    return _coordinate_sums(a[..., :half, :]) + _coordinate_sums(a[..., half:, :])


def _log_add_exp(c0: np.ndarray, c1: np.ndarray) -> np.ndarray:
    """log(exp(c0) + exp(c1)) by the arithmetic of scipy 1.17's ``logsumexp``
    over two rows, so bit for bit its result: hi + log1p(exp(lo - hi)), and
    hi + log(2) on a tie.  Two equal infinities give that infinity."""
    hi = np.maximum(c0, c1)
    lo = np.minimum(c0, c1)
    # 0 on a tie: log1p(exp(0)) is log(2) exactly, and no inf - inf is taken.
    gap = np.subtract(lo, hi, out=np.zeros(hi.shape), where=lo < hi)
    return hi + np.log1p(np.exp(gap))


def make_gaussian_mixture(spec: MixtureSpec) -> ModelSpec:
    """Build the mixture-target model.

    ``log_weight`` is the difference of normalized target and proposal log
    densities.  The proposal sampler is ``_student_draws``; the target
    sampler consumes ``n`` uniforms (component choice) followed by
    ``(n, dim)`` standard normals.
    """
    dim = spec.dim
    sd = np.sqrt(spec.cov_scale)
    two_var = 2.0 * spec.cov_scale
    log_norm = -0.5 * dim * np.log(2.0 * np.pi * spec.cov_scale)
    comp_consts = np.array([[np.log(mass) + log_norm]
                            for mass in (spec.weight, 1.0 - spec.weight)])
    # The centers as (2, dim, 1), to subtract from a (dim, n) block.
    means = spec.means[:, :, None]
    # Normalizer of the centered multivariate Student with identity scale.
    student_const = (gammaln((_STUDENT_DOF + dim) / 2.0) - gammaln(_STUDENT_DOF / 2.0)
                     - 0.5 * dim * np.log(_STUDENT_DOF * np.pi))
    block = _block_rows(dim)

    def block_log_weight(points):
        # Both components' squared distances in one coordinate-major buffer.
        diff = np.subtract(np.ascontiguousarray(points.T), means)
        np.multiply(diff, diff, out=diff)
        c0, c1 = comp_consts - _coordinate_sums(diff) / two_var
        return _log_add_exp(c0, c1) - (student_const + _student_log_kernel(points))

    def log_weight(points):
        # Rows are independent, so blocks give the unblocked bits in bounded
        # memory; a batch of one block skips the copy and the loop.
        points = np.atleast_2d(np.asarray(points, dtype=float))
        if len(points) <= block + 1:
            return block_log_weight(points)
        out = np.empty(len(points))
        for rows in row_blocks(len(points), dim):
            out[rows] = block_log_weight(points[rows])
        return out

    def propose(rng, n):
        return _student_draws(rng, n, dim)

    def target_sample(rng, n):
        comp = (rng.random(n) >= spec.weight).astype(int)
        z = rng.standard_normal((n, dim))
        return spec.means[comp] + sd * z

    return ModelSpec(dim=dim, log_weight=log_weight, propose=propose,
                     target_sample=target_sample)


def mixture_rectangle_probability(spec: MixtureSpec, rect: np.ndarray) -> float:
    """Exact probability of an axis-aligned box under the mixture target.

    Product of one-dimensional Gaussian CDF differences per component, mixed
    by the component masses.
    """
    rect = np.asarray(rect, dtype=float)
    sd = np.sqrt(spec.cov_scale)
    total = 0.0
    for j, mass in enumerate((spec.weight, 1.0 - spec.weight)):
        hi, lo = (np.array([ndtr(v) for v in (edge - spec.means[j]) / sd])
                  for edge in (rect[:, 1], rect[:, 0]))
        total += mass * float(np.prod(hi - lo))
    return total


def mixture_truth(spec: MixtureSpec) -> float:
    """Exact value of pi(1_A - 1_B) for the spec's boxes."""
    return mixture_rectangle_probability(spec, spec.rect_a) - \
        mixture_rectangle_probability(spec, spec.rect_b)


def mixture_test_function(spec: MixtureSpec) -> TestFunction:
    return indicator_difference(spec.rect_a, spec.rect_b)


# ---------------------------------------------------------------------------
# Bayesian logistic posterior with a mode-centered Student proposal
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LogisticPosteriorSpec:
    """Logistic regression posterior with a Gaussian N(0, 1/prior_precision I) prior.

    ``covariates`` is ``(n_obs, dim)``, ``responses`` takes values in
    {-1, +1}, and ``prior_precision`` is the prior precision tau^2.
    """

    covariates: np.ndarray
    responses: np.ndarray
    prior_precision: float

    def __post_init__(self):
        x = np.atleast_2d(np.asarray(self.covariates, dtype=float))
        y = np.asarray(self.responses, dtype=float).ravel()
        if x.shape[0] != y.shape[0]:
            raise ValueError("covariates and responses must have matching length")
        if y.size and not np.all(np.isin(y, (-1.0, 1.0))):
            raise ValueError("responses must take values in {-1, +1}")
        if not self.prior_precision > 0:
            raise ValueError("prior_precision must be positive")
        object.__setattr__(self, "covariates", x)
        object.__setattr__(self, "responses", y)

    @property
    def dim(self) -> int:
        return self.covariates.shape[1]

    @property
    def n_obs(self) -> int:
        return self.covariates.shape[0]


def synthetic_logistic_data(rng: np.random.Generator, dim: int, n_obs: int,
                            theta_star: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Draw a synthetic dataset from the logistic model at ``theta_star``.

    Covariates are i.i.d. standard normal; responses are +/-1 with
    P(y=+1 | x) = sigmoid(x . theta_star).
    """
    theta_star = np.asarray(theta_star, dtype=float)
    if theta_star.shape != (dim,):
        raise ValueError("theta_star must have shape (dim,)")
    x = rng.standard_normal((n_obs, dim))
    p1 = 1.0 / (1.0 + np.exp(-(x @ theta_star)))
    y = np.where(rng.random(n_obs) < p1, 1.0, -1.0)
    return x, y


def _log_posterior(spec: LogisticPosteriorSpec, signed: np.ndarray, theta: np.ndarray,
                   margins: np.ndarray, softplus: np.ndarray) -> np.ndarray:
    """Unnormalized log posterior of a block of rows ``theta``: log-likelihood
    plus the normalized Gaussian prior log density.

    ``signed`` is ``(covariates * responses[:, None]).T``, so ``theta @
    signed`` is each margin z = y (x . theta), bit for bit the product with
    the responses applied after it (a sign flip is exact).  Each observation
    adds -log(1 + exp(-z)), evaluated as log1p(exp(-|z|)) - min(z, 0): exp
    never overflows, the form is exact in both tails, and numpy runs its
    SIMD ``exp`` and ``log1p`` where ``np.logaddexp`` takes a scalar libm
    loop.  The margins and their softplus are written into the first
    ``len(theta)`` rows of the ``(rows, n_obs)`` buffers ``margins`` and
    ``softplus``, each row by the unblocked expressions, so no bit depends
    on the blocking.
    """
    b = len(theta)
    dim = spec.dim
    tau2 = spec.prior_precision
    lp = 0.5 * dim * np.log(tau2 / (2.0 * np.pi)) - 0.5 * tau2 * (theta ** 2).sum(axis=1)
    z = np.matmul(theta, signed, out=margins[:b])
    sp = softplus[:b]
    np.abs(z, out=sp)
    np.negative(sp, out=sp)
    np.exp(sp, out=sp)
    np.log1p(sp, out=sp)
    sp -= np.minimum(z, 0.0, out=z)
    return -sp.sum(axis=1) + lp


def laplace_proposal(spec: LogisticPosteriorSpec,
                     grad_tol: float = 1e-8,
                     max_iter: int = 100) -> tuple[np.ndarray, np.ndarray]:
    """Newton mode and diagonal curvature of the logistic posterior.

    Returns ``(mean, var_diag)``, the Student proposal's centre and squared
    scale: the posterior mode and the elementwise inverse of the negative log
    posterior's Hessian diagonal there.  The objective is strictly concave, so
    the iteration converges from the origin; failure to reach ``grad_tol``
    within ``max_iter`` raises ``NewtonConvergenceError``.
    """
    x, y, tau2 = spec.covariates, spec.responses, spec.prior_precision
    dim = spec.dim
    theta = np.zeros(dim)
    eye = np.eye(dim)
    for it in range(max_iter + 1):
        z = y * (x @ theta)
        s = 1.0 / (1.0 + np.exp(z))          # sigmoid(-z)
        grad = (y * s) @ x - tau2 * theta
        hess = (x * (s * (1.0 - s))[:, None]).T @ x + tau2 * eye
        if np.linalg.norm(grad) <= grad_tol:
            return theta, 1.0 / np.diag(hess)
        if it == max_iter:
            break
        theta = theta + np.linalg.solve(hess, grad)
    raise NewtonConvergenceError(
        f"mode search did not reach gradient tolerance {grad_tol} "
        f"within {max_iter} iterations", theta)


def make_logistic_posterior(spec: LogisticPosteriorSpec) -> ModelSpec:
    """Build the logistic-posterior model with its mode-centered proposal.

    The proposal takes ``_student_draws``, scales them by the square roots of
    ``laplace_proposal``'s variances and centres them at its mode.
    ``log_weight`` omits the proposal's normalizer, which self-normalization,
    omega and kappa cancel.  No exact target sampler exists.  The log
    likelihood sums the stable softplus form
    log1p(exp(-|z|)) - min(z, 0) of log(1 + exp(-z)) (see ``_log_posterior``):
    it matches ``np.logaddexp(0, -z)`` to a few ulp at numpy's vector speed.
    """
    mean, var_diag = laplace_proposal(spec)
    sd_diag = np.sqrt(var_diag)
    signed = (spec.covariates * spec.responses[:, None]).T
    block = _block_rows(spec.n_obs)

    def log_weight(theta):
        # One pass over cache-sized row blocks: each block's log posterior,
        # on two reused (block x n_obs) buffers, less the proposal's log
        # kernel, so no (n, dim) or (n, n_obs) temporary is made.
        theta = np.atleast_2d(np.asarray(theta, dtype=float))
        if len(theta) == 1:
            # A lone row goes through BLAS's matrix-vector kernel, whose bits
            # can differ from the same row of a larger product; as a two-row
            # block it gets the bits it has in any batch.
            return log_weight(np.repeat(theta, 2, axis=0))[:1]
        out = np.empty(len(theta))
        shape = (min(len(theta), block + 1), spec.n_obs)
        margins, softplus = np.empty(shape), np.empty(shape)
        for rows in row_blocks(len(theta), spec.n_obs):
            t = theta[rows]
            out[rows] = (_log_posterior(spec, signed, t, margins, softplus)
                         - _student_log_kernel((t - mean) / sd_diag))
        return out

    def propose(rng, n):
        z = _student_draws(rng, n, spec.dim)
        z *= sd_diag
        z += mean
        return z

    return ModelSpec(dim=spec.dim, log_weight=log_weight, propose=propose)


def logistic_predictive(theta: np.ndarray, covariates: np.ndarray) -> np.ndarray:
    """Class-1 probabilities sigmoid(x . theta), shape (n_theta, n_points).

    Computed in place on the product, so one (n_theta, n_points) array is
    allocated; the inputs are not written.
    """
    p = np.atleast_2d(theta) @ np.asarray(covariates, dtype=float).T
    np.negative(p, out=p)
    np.exp(p, out=p)
    p += 1.0
    return np.divide(1.0, p, out=p)


# ---------------------------------------------------------------------------
# Monte Carlo estimators for the weight constants
# ---------------------------------------------------------------------------


def estimate_kappa(log_weights: np.ndarray) -> float:
    """Plug-in estimate of the chi-square weight constant lambda(w^2)/lambda(w)^2
    from the log weights of i.i.d. proposal draws.  Computed in log space, so
    the result is invariant to any constant shift of the log weights.  A NaN
    or +inf log weight raises ValueError, and a sample without a finite one
    DegenerateWeightsError, before anything is computed."""
    n = len(log_weights)
    if n < 2:
        raise ValueError("kappa needs the log weights of at least 2 draws")
    _check_top_log_weights(np.max(log_weights))
    return float(np.exp(logsumexp(2.0 * log_weights) - 2.0 * logsumexp(log_weights)
                        + np.log(n)))


# scipy's Nelder-Mead coefficients (reflection, expansion, contraction,
# shrink) and the stopping rule of the weight maximization.
_NM_RHO, _NM_CHI, _NM_PSI, _NM_SIGMA = 1, 2, 0.5, 0.5
_NM_MAXITER, _NM_XATOL, _NM_FATOL = 2000, 1e-8, 1e-10


def _nelder_mead_minima(fun: Callable[[np.ndarray], np.ndarray],
                        starts: np.ndarray) -> np.ndarray:
    """The minimum Nelder-Mead reaches from each row of ``starts``.

    Each restart follows ``scipy.optimize.minimize(method="Nelder-Mead")``
    with ``maxiter=_NM_MAXITER``, ``xatol=_NM_XATOL`` and ``fatol=_NM_FATOL``
    bit for bit: the same initial simplex, steps, comparisons and re-sorts.
    The restarts still running advance in lockstep, so ``fun``, which maps
    ``(m, dim)`` points to ``(m,)`` values, is called at most three times an
    iteration: on every reflection, on each restart's expansion or
    contraction point, and on the shrunk simplices.
    """
    r, n = starts.shape
    s = np.repeat(starts[:, None, :], n + 1, axis=1)
    axes = np.arange(n)
    s[:, axes + 1, axes] = np.where(starts != 0, (1 + 0.05) * starts, 0.00025)
    fs = fun(s.reshape(-1, n)).reshape(r, n + 1)

    def resort(s, fs):
        order = np.argsort(fs, axis=1)
        rows = np.arange(len(fs))[:, None]
        return s[rows, order], fs[rows, order]

    # scipy sorts the first simplex twice; argsort need not be stable, so
    # only the same two sorts promise the same order of tied vertices.
    s, fs = resort(*resort(s, fs))
    minima = np.empty(r)
    live = np.arange(r)  # rows of ``starts`` still running; s and fs hold theirs
    for _ in range(1, _NM_MAXITER):
        # On a plateau of +inf values inf - inf is NaN, which compares false:
        # the restart is not done, as in scipy.
        with np.errstate(invalid="ignore"):
            done = ((np.abs(s[:, 1:] - s[:, :1]).max(axis=(1, 2)) <= _NM_XATOL)
                    & (np.abs(fs[:, :1] - fs[:, 1:]).max(axis=1) <= _NM_FATOL))
        if done.any():
            minima[live[done]] = fs[done].min(axis=1)
            live, s, fs = live[~done], s[~done], fs[~done]
            if not len(live):
                break
        xbar = np.add.reduce(s[:, :-1], 1) / n
        worst = s[:, -1]
        xr = (1 + _NM_RHO) * xbar - _NM_RHO * worst
        fxr = fun(xr)
        expand = fxr < fs[:, 0]
        accept = ~expand & (fxr < fs[:, -2])
        outside = ~expand & ~accept & (fxr < fs[:, -1])
        inside = ~expand & ~accept & ~outside
        # Second point a * xbar - b * worst; scipy's inside contraction
        # (1 - psi) * xbar + psi * worst is the same bits with b = -psi.
        a = np.where(expand, 1 + _NM_RHO * _NM_CHI,
                     np.where(outside, 1 + _NM_PSI * _NM_RHO, 1 - _NM_PSI))
        b = np.where(expand, _NM_RHO * _NM_CHI,
                     np.where(outside, _NM_PSI * _NM_RHO, -_NM_PSI))
        x2, f2 = xr.copy(), fxr.copy()
        second = ~accept
        if second.any():
            x2[second] = a[second, None] * xbar[second] - b[second, None] * worst[second]
            f2[second] = fun(x2[second])
        bar = np.where(inside, fs[:, -1], fxr)
        better = second & np.where(outside, f2 <= bar, f2 < bar)
        replace = accept | expand | better
        s[replace, -1] = np.where(better[:, None], x2, xr)[replace]
        fs[replace, -1] = np.where(better, f2, fxr)[replace]
        shrink = ~replace
        if shrink.any():
            best = s[shrink, :1]
            s[shrink, 1:] = best + _NM_SIGMA * (s[shrink, 1:] - best)
            fs[shrink, 1:] = fun(s[shrink, 1:].reshape(-1, n)).reshape(-1, n)
        s, fs = resort(s, fs)
    minima[live] = fs.min(axis=1)  # restarts stopped by the iteration limit
    return minima


def estimate_omega(model: ModelSpec, log_weights: np.ndarray, restarts: int,
                   rng: np.random.Generator) -> float:
    """Plug-in estimate of sup w / lambda(w).

    The numerator is maximized by Nelder-Mead from ``restarts`` proposal
    draws (the weight surface of the built-in mixture is multimodal, so a
    derivative-free multistart is used).  The restarts run in lockstep, one
    batched ``log_weight`` call per phase for all of them, and each follows
    scipy's Nelder-Mead iterates bit for bit.  The denominator is the
    log-space mean of ``exp(log_weights)``, the weights of i.i.d. proposal
    draws, such as the sample ``estimate_kappa`` reads.  The numerator is the
    larger of the Nelder-Mead maximum and the top weight of ``log_weights``,
    so starts that all have zero weight still read a bounded weight.  Only
    the numerator is a lower bound on sup w; the denominator is a Monte Carlo
    mean with relative standard error about sqrt((kappa - 1) /
    len(log_weights)), so the ratio can land on either side of the true
    constant.  ``log_weights`` is checked as ``estimate_kappa`` checks it.
    """
    if restarts < 1:
        raise ValueError("restarts must be at least 1")
    # The pass's top log weight is checked finite, and like every start's a
    # lower bound on sup log w: it stands in when every start has zero weight.
    top = float(np.max(log_weights, initial=-np.inf))
    _check_top_log_weights(top)
    starts = model.propose(rng, restarts)
    # A finite-weight surface gains at most a few nats over a random start; a
    # runaway or NaN log weight signals an unbounded one and stops the search.
    ceiling = max(float(model.log_weight(starts).max()), top) + 500.0

    def neg_log_weight(points):
        lw = model.log_weight(points)
        if not np.all(lw < ceiling):
            raise UnboundedWeightError(
                "weight maximization diverged; the bounded-weight assumption "
                "appears violated")
        return -lw

    best = max(-_nelder_mead_minima(neg_log_weight, starts).min(), top)
    log_mean_weight = logsumexp(log_weights) - np.log(len(log_weights))
    return float(np.exp(best - log_mean_weight))
