"""Replication summaries, distances, coverage and rate fitting."""

import numpy as np
import pytest

from brsnis import (coverage_check, fit_geometric_rate, lag_covariance,
                    replication_stats, sliced_wasserstein, tv_predictive)


class TestReplicationStats:
    def test_exact_estimates_give_zero_bias_and_mse(self):
        summary = replication_stats(np.full(40, 1.7), truth=1.7, batch_size=10)
        np.testing.assert_array_equal(summary.batch_bias, np.zeros(4))
        np.testing.assert_array_equal(summary.batch_mse, np.zeros(4))

    def test_hand_batch(self):
        truth = 5.0
        summary = replication_stats([truth + 1.0, truth - 1.0], truth, 2)
        assert summary.bias == pytest.approx(0.0, abs=1e-15)
        assert summary.mse == pytest.approx(1.0)

    def test_mse_decomposition_identity(self):
        """Per batch, MSE equals bias squared plus the population variance."""
        rng = np.random.default_rng(0)
        estimates = rng.normal(loc=0.3, scale=1.2, size=600)
        summary = replication_stats(estimates, truth=0.25, batch_size=100)
        batches = estimates.reshape(-1, 100)
        for b in range(6):
            var = batches[b].var(ddof=0)
            assert summary.batch_mse[b] == pytest.approx(
                summary.batch_bias[b] ** 2 + var, rel=1e-10)

    def test_one_batch_has_no_standard_error(self):
        """One batch has no spread to take; the errors are None (JSON null),
        not 0.0."""
        summary = replication_stats([1.0, 2.0, 4.0], truth=2.0, batch_size=3)
        assert (summary.bias_se, summary.mse_se) == (None, None)
        assert summary.bias == pytest.approx(1.0 / 3.0)
        two = replication_stats([1.0, 2.0, 4.0, 3.0], truth=2.0, batch_size=2)
        assert two.bias_se == pytest.approx(1.0) and two.mse_se == pytest.approx(1.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            replication_stats([], 0.0, 1)
        with pytest.raises(ValueError):
            replication_stats([1.0, 2.0, 3.0], 0.0, 2)


class TestLagCovariance:
    def test_independent_sequences_near_zero(self):
        rng = np.random.default_rng(1)
        reps, iters = 20000, 6
        sequences = 2.0 + rng.standard_normal((reps, iters))
        value = lag_covariance(sequences, truth=2.0, lag=3)
        se = 1.0 / np.sqrt(reps)  # product of independent unit normals
        assert abs(value) <= 3.0 * se

    def test_constant_sequences_exact_zero(self):
        sequences = np.full((50, 4), 0.7)
        assert lag_covariance(sequences, truth=0.7, lag=1) == 0.0

    def test_lag_bounds(self):
        with pytest.raises(ValueError):
            lag_covariance(np.zeros((3, 4)), 0.0, lag=4)
        with pytest.raises(ValueError):
            lag_covariance(np.zeros((3, 4)), 0.0, lag=0)

    def test_chain_lag_covariance_under_closed_form_bound(self, mixture2):
        """Recycled-estimate lag covariances respect the closed-form decay
        bound at matching pool size and lag."""
        from brsnis import (bound_constants, estimate_kappa, estimate_omega,
                            pool_cov_bound, run_chains)
        _, model, f, truth = mixture2
        rng = np.random.default_rng(14)
        log_weights = model.log_weight(model.propose(rng, 2 * 10 ** 5))
        kappa = estimate_kappa(log_weights)
        omega = estimate_omega(model, log_weights, 8, rng)
        chains = 2 * 10 ** 4
        batch = run_chains(model, f, 16, 6, model.propose(rng, chains), rng)
        consts = bound_constants(max(omega, 1.0), max(kappa, 1.0), 16)
        rec = batch.recycled_estimates
        for lag in (1, 2):
            value = lag_covariance(rec, truth, lag=lag, base_index=3)
            prod = (rec[:, 3] - truth) * (rec[:, 3 + lag] - truth)
            se = prod.std(ddof=1) / np.sqrt(chains)
            assert abs(value) <= pool_cov_bound(consts, lag) + 3.0 * se


class TestSlicedWasserstein:
    def test_identical_sets_zero(self):
        rng = np.random.default_rng(2)
        pts = rng.standard_normal((500, 3))
        assert sliced_wasserstein(pts, pts, 32, np.random.default_rng(3)) == 0.0

    def test_point_mass_translation(self):
        a = np.zeros((2, 1))
        b = np.ones((2, 1))
        for n_proj in (1, 7, 50):
            value = sliced_wasserstein(a, b, n_proj, np.random.default_rng(4))
            assert value == pytest.approx(1.0, abs=1e-12)

    def test_symmetry(self):
        rng = np.random.default_rng(5)
        a = rng.standard_normal((300, 2))
        b = rng.standard_normal((300, 2)) + 1.0
        ab = sliced_wasserstein(a, b, 64, np.random.default_rng(6))
        ba = sliced_wasserstein(b, a, 64, np.random.default_rng(6))
        assert ab == pytest.approx(ba, rel=1e-12)

    def test_gaussian_shift_oracle(self):
        """Two isotropic Gaussians a distance apart: each slice contributes
        |shift . direction|, so the mean distance approaches 2 shift / pi."""
        rng = np.random.default_rng(7)
        n, shift = 3 * 10 ** 4, 1.5
        a = rng.standard_normal((n, 2))
        b = rng.standard_normal((n, 2))
        b[:, 0] += shift
        value = sliced_wasserstein(a, b, 1500, np.random.default_rng(8))
        assert value == pytest.approx(2.0 * shift / np.pi, rel=0.02)

    def test_subsampling_unequal_sizes(self):
        rng = np.random.default_rng(9)
        a = rng.standard_normal((2000, 2))
        b = rng.standard_normal((500, 2))
        value = sliced_wasserstein(a, b, 64, np.random.default_rng(10))
        assert np.isfinite(value) and value >= 0

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            sliced_wasserstein(np.zeros((3, 2)), np.zeros((3, 3)), 8,
                               np.random.default_rng(11))


class TestTvPredictive:
    def test_equal_tables_zero(self):
        p = np.linspace(0.1, 0.9, 9)
        assert tv_predictive(p, p) == 0.0

    def test_maximal_disagreement(self):
        assert tv_predictive(np.ones(5), np.zeros(5)) == 1.0

    def test_uniform_shift(self):
        p = np.full(10, 0.4)
        assert tv_predictive(p + 0.1, p) == pytest.approx(0.1)

    def test_triangle_inequality(self):
        rng = np.random.default_rng(12)
        a, b, c = rng.random((3, 40))
        ab = tv_predictive(a, b)
        bc = tv_predictive(b, c)
        ac = tv_predictive(a, c)
        assert ac <= ab + bc + 1e-12

    def test_probability_validation(self):
        with pytest.raises(ValueError):
            tv_predictive(np.array([1.2]), np.array([0.5]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, -0.1])
    @pytest.mark.parametrize("side", ["estimated", "reference"])
    def test_non_finite_probability_rejected(self, bad, side):
        """A NaN used to pass: it fails both ``< 0`` and ``> 1``."""
        tables = [np.array([bad, 0.5]), np.array([0.5, 0.5])]
        if side == "reference":
            tables.reverse()
        with pytest.raises(ValueError, match="finite and lie in"):
            tv_predictive(*tables)


class TestCoverageCheck:
    def test_exact_estimates_pass(self):
        result = coverage_check(np.full(100, 3.0), 3.0, bound=0.1, delta=0.1)
        assert result.violation_fraction == 0.0
        assert result.passed

    def test_zero_bound_fails(self):
        result = coverage_check(np.full(100, 3.1), 3.0, bound=0.0, delta=0.2)
        assert result.violation_fraction == 1.0
        assert not result.passed

    def test_nominal_coverage_passes(self):
        rng = np.random.default_rng(13)
        estimates = rng.standard_normal(10 ** 4)
        bound = 1.6448536269514722  # standard normal 95th percentile
        assert coverage_check(estimates, 0.0, bound, delta=0.1).passed


class TestFitGeometricRate:
    def test_exact_geometric_sequence(self):
        rate = 0.37
        values = 2.5 * rate ** np.arange(8)
        slope, intercept = fit_geometric_rate(values)
        assert slope == pytest.approx(np.log(rate), abs=1e-12)
        assert intercept == pytest.approx(np.log(2.5), abs=1e-10)

    def test_constant_values_zero_slope(self):
        slope, _ = fit_geometric_rate(np.full(5, 4.2))
        assert slope == pytest.approx(0.0, abs=1e-12)

    def test_custom_grid(self):
        ks = np.array([1.0, 3.0, 9.0])
        values = np.exp(-0.5 * ks + 1.0)
        slope, intercept = fit_geometric_rate(values, ks)
        assert slope == pytest.approx(-0.5, abs=1e-12)
        assert intercept == pytest.approx(1.0, abs=1e-12)

    def test_validation(self):
        with pytest.raises(ValueError):
            fit_geometric_rate([1.0, 2.0])
        with pytest.raises(ValueError):
            fit_geometric_rate([1.0, -2.0, 3.0])
