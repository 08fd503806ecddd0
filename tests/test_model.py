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
from brsnis import (CountingModel, LogisticPosteriorSpec, MixtureSpec, ModelSpec,
                    NewtonConvergenceError, TestFunction, UnboundedWeightError,
                    benchmark_mixture, estimate_kappa, estimate_omega, indicator_difference,
                    laplace_proposal, logistic_predictive, make_gaussian_mixture,
                    make_logistic_posterior, mixture_rectangle_probability,
                    synthetic_logistic_data)

MEAN_ABS_T3 = 2.0 * np.sqrt(3.0) / np.pi  # E|X| for a t3 variable
ROOT = Path(__file__).resolve().parents[1]


def scipy_log_weight(spec, points):
    """The mixture's log weight with its two components summed by scipy's
    ``logsumexp``: the oracle the model must match bit for bit."""
    dim, dof = spec.dim, spec.student_dof
    log_norm = -0.5 * dim * np.log(2.0 * np.pi * spec.cov_scale)
    comp = np.empty((2, len(points)))
    for j, mass in enumerate((spec.weight, 1.0 - spec.weight)):
        sq = ((points - spec.means[j]) ** 2).sum(axis=1)
        comp[j] = np.log(mass) + log_norm - sq / (2.0 * spec.cov_scale)
    const = (gammaln((dof + dim) / 2.0) - gammaln(dof / 2.0)
             - 0.5 * dim * np.log(dof * np.pi))
    sq = np.einsum("ij,ij->i", points, points)
    return logsumexp(comp, axis=0) - (const - 0.5 * (dof + dim) * np.log1p(sq / dof))


def stable_softplus(z):
    """log(1 + exp(-z)) in the form the model evaluates."""
    return np.log1p(np.exp(-np.abs(z))) - np.minimum(z, 0.0)


def out_of_place_proposal_logpdf(spec, theta):
    """The Gaussian proposal's log density written out of place."""
    mean, var_diag = laplace_proposal(spec)
    prop_const = -0.5 * spec.dim * np.log(2.0 * np.pi) - 0.5 * np.log(var_diag).sum()
    return prop_const - 0.5 * (((theta - mean) / np.sqrt(var_diag)) ** 2).sum(axis=1)


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
            MixtureSpec(good.means, -1.0, good.weight, 3.0, good.rect_a, good.rect_b)
        with pytest.raises(ValueError):
            MixtureSpec(good.means, 0.5, good.weight, 0.0, good.rect_a, good.rect_b)
        with pytest.raises(ValueError):
            MixtureSpec(good.means, 0.5, 1.5, 3.0, good.rect_a, good.rect_b)
        with pytest.raises(ValueError):
            MixtureSpec(good.means, 0.5, 0.5, 3.0,
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
            student_dof=3.0, rect_a=np.array([[0.0, 1.0]]),
            rect_b=np.array([[1.5, 2.0]]))
        expected = 0.3 * (norm.cdf(1.0, 0.5, 0.5) - norm.cdf(0.0, 0.5, 0.5)) \
            + 0.7 * (norm.cdf(1.0, -1.0, 0.5) - norm.cdf(0.0, -1.0, 0.5))
        assert mixture_rectangle_probability(spec, spec.rect_a) == \
            pytest.approx(expected, abs=1e-14)

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
    arithmetic, so seeded outputs keep every bit."""

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @settings(max_examples=200, deadline=None)
    @given(st.lists(component_pairs(), min_size=1, max_size=8))
    def test_two_term_matches_scipy(self, pairs):
        c0, c1 = np.array(pairs).T
        expected = logsumexp(np.stack([c0, c1]), axis=0)
        assert np.array_equal(brsnis.model._log_add_exp(c0, c1), expected,
                              equal_nan=True)

    @pytest.mark.parametrize("dim", [2, 7])
    def test_log_weight_matches_scipy_formula(self, dim):
        spec = benchmark_mixture(dim)
        model = make_gaussian_mixture(spec)
        points = model.propose(np.random.default_rng(40 + dim), 10 ** 5)
        assert np.array_equal(model.log_weight(points), scipy_log_weight(spec, points))
        for point in points[:200]:
            single = point[None, :]
            assert np.array_equal(model.log_weight(single), scipy_log_weight(spec, single))

    def test_tied_components_match_scipy_formula(self, gauss_student_1d):
        """Equal masses and centers: every point is a tie."""
        spec, model, _, _ = gauss_student_1d
        points = model.propose(np.random.default_rng(42), 10 ** 4)
        assert np.array_equal(model.log_weight(points), scipy_log_weight(spec, points))

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

    def test_draw_count_validation(self):
        with pytest.raises(ValueError, match="at least 2 draws"):
            estimate_kappa(np.zeros(1))


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

    @staticmethod
    def scipy_minima(model, starts):
        """Each start's minimum of -log w by scipy's Nelder-Mead, one point
        per call: the oracle the lockstep maximizer must match bit for bit."""
        options = {"maxiter": 2000, "xatol": 1e-8, "fatol": 1e-10}
        return np.array([
            minimize(lambda v: -float(model.log_weight(v[None, :])[0]), start,
                     method="Nelder-Mead", options=options).fun
            for start in starts])

    @pytest.mark.parametrize("dim,seed", [(2, 1), (2, 2), (2, 3), (7, 1), (7, 2)])
    def test_lockstep_matches_scipy_per_restart(self, dim, seed):
        model = make_gaussian_mixture(benchmark_mixture(dim))
        starts = model.propose(np.random.default_rng(seed), 8)
        minima = brsnis.model._nelder_mead_minima(lambda p: -model.log_weight(p), starts)
        assert np.array_equal(minima, self.scipy_minima(model, starts))

    @pytest.mark.parametrize("seed", [4, 5, 6])
    def test_lockstep_matches_scipy_one_dimensional(self, gauss_student_1d, seed):
        _, model, _, _ = gauss_student_1d
        starts = model.propose(np.random.default_rng(seed), 8)
        starts[0] = 0.0  # scipy's simplex steps 0.00025 from a zero coordinate
        minima = brsnis.model._nelder_mead_minima(lambda p: -model.log_weight(p), starts)
        assert np.array_equal(minima, self.scipy_minima(model, starts))

    def test_benchmark_constants_pinned_and_batched(self, monkeypatch):
        """The benchmark's d=7, 8-restart constants at seed 1001 keep the
        floats the one-point-at-a-time scipy search gave, from at most 2500
        batched log_weight calls in the maximization (about 10^4 before)."""
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
            (30819.35554052846, 1220.0844336782852, True)
        assert 0 < len(calls) <= 2500


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

    def test_non_convergence_carries_last_iterate(self):
        rng = np.random.default_rng(16)
        x, y = synthetic_logistic_data(rng, 4, 100, np.array([2.0, -2.0, 1.0, -1.0]))
        spec = LogisticPosteriorSpec(x, y, prior_precision=0.05)
        with pytest.raises(NewtonConvergenceError) as err:
            laplace_proposal(spec, max_iter=1)
        assert err.value.last_iterate.shape == (4,)


class TestLogisticPosteriorModel:
    def test_pure_prior_log_weight_is_zero(self):
        spec = LogisticPosteriorSpec(covariates=np.empty((0, 2)),
                                     responses=np.empty(0), prior_precision=2.0)
        model = make_logistic_posterior(spec)
        rng = np.random.default_rng(17)
        theta = rng.standard_normal((50, 2))
        np.testing.assert_allclose(model.log_weight(theta), np.zeros(50),
                                   atol=1e-12)

    def test_log_weight_at_mode_identity(self):
        rng = np.random.default_rng(18)
        x, y = synthetic_logistic_data(rng, 3, 60, np.array([0.5, -0.5, 1.0]))
        spec = LogisticPosteriorSpec(x, y, prior_precision=0.05)
        model = make_logistic_posterior(spec)
        mean, var = laplace_proposal(spec)

        z = y * (x @ mean)
        log_lik = -np.logaddexp(0.0, -z).sum()
        log_prior = 0.5 * 3 * np.log(0.05 / (2.0 * np.pi)) \
            - 0.5 * 0.05 * (mean ** 2).sum()
        log_prop_at_mean = -0.5 * 3 * np.log(2.0 * np.pi) \
            - 0.5 * np.log(var).sum()
        expected = log_lik + log_prior - log_prop_at_mean
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


class TestLogisticRowBlocks:
    """The logistic log weight is computed in row blocks of ``_BLOCK_ROWS``,
    so a large batch runs in bounded memory, with every bit unchanged."""

    BLOCK = brsnis.model._BLOCK_ROWS

    @pytest.mark.parametrize("n", [0, 1, 2, BLOCK - 1, BLOCK, BLOCK + 1, BLOCK + 2,
                                   2 * BLOCK + 1, 2 * BLOCK + 3])
    def test_blocks_cover_rows_in_order(self, n):
        blocks = brsnis.model.row_blocks(n)
        assert [i for rows in blocks for i in range(n)[rows]] == list(range(n))
        sizes = [rows.stop - rows.start for rows in blocks]
        assert all(size <= self.BLOCK + 1 for size in sizes)
        assert n <= 1 or min(sizes) >= 2  # no one-row product in a batch

    @pytest.mark.parametrize("n", [1, BLOCK - 1, BLOCK, BLOCK + 1, 2 * BLOCK + 3])
    def test_log_weight_matches_unblocked_formula(self, n):
        rng = np.random.default_rng(23)
        x, y = synthetic_logistic_data(rng, 5, 200, np.array([1.0, -0.5, 0.0, 0.5, 2.0]))
        spec = LogisticPosteriorSpec(x, y, prior_precision=0.05)
        model = make_logistic_posterior(spec)
        theta = model.propose(rng, n)
        assert np.array_equal(model.log_weight(theta),
                              unblocked_logistic_log_weight(spec, theta))


class TestLogisticInPlace:
    """The logistic layer computes in place: the softplus likelihood agrees
    with ``np.logaddexp`` to a few ulp, and the predictive and the proposal's
    sampler and density give the out-of-place expressions bit for bit."""

    BLOCK = brsnis.model._BLOCK_ROWS

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
        signed = (spec.covariates * spec.responses[:, None]).T
        lp = 0.5 * np.log(1.0 / (2.0 * np.pi)) - 0.5 * z ** 2
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = brsnis.model._log_posterior(spec, signed, z[:, None])
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
        normals = np.random.default_rng(44).standard_normal((1000, spec.dim))
        assert np.array_equal(got, mean + normals * np.sqrt(var_diag))

    def test_proposal_logpdf_matches_out_of_place(self, logistic):
        """``log_weight`` is the log posterior minus the proposal log density;
        with the same log posterior it must equal the out-of-place density's
        difference bit for bit."""
        spec, model = logistic
        theta = model.propose(np.random.default_rng(45), 1000)
        signed = (spec.covariates * spec.responses[:, None]).T
        assert np.array_equal(model.log_weight(theta),
                              brsnis.model._log_posterior(spec, signed, theta)
                              - out_of_place_proposal_logpdf(spec, theta))

    def test_log_weight_peak_memory(self, logistic):
        """One margin block and one softplus buffer at a time: below three
        (block + 1) x n_obs float64 arrays on three blocks of rows."""
        spec, model = logistic
        theta = model.propose(np.random.default_rng(46), 2 * self.BLOCK + 3)
        tracemalloc.start()
        try:
            model.log_weight(theta)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 3 * (self.BLOCK + 1) * spec.n_obs * 8


class TestMixtureRowBlocks:
    """The mixture's log weight runs in row blocks above one block and its
    proposal scales the normals in place, with every bit unchanged."""

    BLOCK = brsnis.model._BLOCK_ROWS

    @pytest.mark.parametrize("dim", [2, 7])
    @pytest.mark.parametrize("n", [1, BLOCK, BLOCK + 1, 2 * BLOCK + 1, 10 ** 4])
    def test_matches_unblocked_formulas(self, dim, n):
        spec = benchmark_mixture(dim)
        model = make_gaussian_mixture(spec)
        points = model.propose(np.random.default_rng(n), n)
        rng = np.random.default_rng(n)
        z = rng.standard_normal((n, dim))
        g = rng.chisquare(spec.student_dof, n)
        assert np.array_equal(points, z * np.sqrt(spec.student_dof / g)[:, None])
        assert np.array_equal(model.log_weight(points), scipy_log_weight(spec, points))


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
