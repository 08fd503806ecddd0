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

    @pytest.mark.parametrize("estimates, truth", [
        ([1.0, np.nan], 1.0), ([1.0, np.inf], 1.0), ([1.0, 2.0], np.nan)],
        ids=["nan-estimate", "inf-estimate", "nan-truth"])
    def test_non_finite_rejected(self, estimates, truth):
        """A NaN estimate or truth used to give NaN bias, MSE and errors."""
        with pytest.raises(ValueError, match="estimates and truth must be finite"):
            replication_stats(estimates, truth, 1)


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
        from brsnis import (RollingConfig, bound_constants, estimate_kappa,
                            estimate_omega, pool_cov_bound, run_chain)
        _, model, f, truth = mixture2
        rng = np.random.default_rng(14)
        log_weights = model.log_weight(model.propose(rng, 2 * 10 ** 5))
        kappa = estimate_kappa(log_weights)
        omega = estimate_omega(model, log_weights, 8, rng)
        chains = 2 * 10 ** 4
        rec, _ = run_chain(model, f, RollingConfig(16, 6, 0), rng,
                           starts=model.propose(rng, chains))
        consts = bound_constants(max(omega, 1.0), max(kappa, 1.0), 16)
        for lag in (1, 2):
            value = lag_covariance(rec, truth, lag=lag, base_index=3)
            prod = (rec[:, 3] - truth) * (rec[:, 3 + lag] - truth)
            se = prod.std(ddof=1) / np.sqrt(chains)
            assert abs(value) <= pool_cov_bound(consts, lag) + 3.0 * se


class TestSlicedWasserstein:
    def test_identical_sets_zero(self):
        rng = np.random.default_rng(2)
        pts = rng.standard_normal((500, 3))
        directions = np.random.default_rng(3).standard_normal((32, 3))
        assert sliced_wasserstein(pts, pts, directions) == 0.0

    def test_point_mass_translation(self):
        a = np.zeros((2, 1))
        b = np.ones((2, 1))
        for n_proj in (1, 7, 50):
            directions = np.random.default_rng(4).standard_normal((n_proj, 1))
            value = sliced_wasserstein(a, b, directions)
            assert value == pytest.approx(1.0, abs=1e-12)

    def test_symmetry(self):
        rng = np.random.default_rng(5)
        a = rng.standard_normal((300, 2))
        b = rng.standard_normal((300, 2)) + 1.0
        directions = np.random.default_rng(6).standard_normal((64, 2))
        ab = sliced_wasserstein(a, b, directions)
        ba = sliced_wasserstein(b, a, directions)
        assert ab == pytest.approx(ba, rel=1e-12)

    def test_gaussian_shift_oracle(self):
        """Two isotropic Gaussians a distance apart: each slice contributes
        |shift . direction|, so the mean distance approaches 2 shift / pi."""
        rng = np.random.default_rng(7)
        n, shift = 3 * 10 ** 4, 1.5
        a = rng.standard_normal((n, 2))
        b = rng.standard_normal((n, 2))
        b[:, 0] += shift
        directions = np.random.default_rng(8).standard_normal((1500, 2))
        value = sliced_wasserstein(a, b, directions)
        assert value == pytest.approx(2.0 * shift / np.pi, rel=0.02)

    def test_unequal_clouds_rejected(self):
        """Clouds of different sizes used to be subsampled to the smaller one."""
        with pytest.raises(ValueError, match="of one shape"):
            sliced_wasserstein(np.zeros((4, 2)), np.zeros((3, 2)), np.ones((8, 2)))

    def test_directions_of_wrong_width_rejected(self):
        with pytest.raises(ValueError, match="clouds' dimension"):
            sliced_wasserstein(np.zeros((3, 2)), np.ones((3, 2)), np.ones((8, 3)))

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            sliced_wasserstein(np.zeros((3, 2)), np.zeros((3, 3)),
                               np.random.default_rng(11).standard_normal((8, 2)))

    def test_no_projections_rejected(self):
        """Zero directions used to average an empty set: NaN and a warning."""
        with pytest.raises(ValueError, match="directions must be at least one row"):
            sliced_wasserstein(np.zeros((3, 2)), np.ones((3, 2)), np.zeros((0, 2)))


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

    def test_empty_estimates_rejected(self):
        """No estimates used to give a NaN fraction and a warning."""
        with pytest.raises(ValueError, match="estimates must be non-empty"):
            coverage_check(np.empty(0), 0.0, bound=0.1, delta=0.1)

    @pytest.mark.parametrize("estimates, truth, bound", [
        ([0.0, np.nan], 0.0, 0.1), ([0.0, -np.inf], 0.0, 0.1),
        ([0.0, 0.0], np.nan, 0.1), ([0.0, 0.0], 0.0, np.nan)],
        ids=["nan-estimate", "inf-estimate", "nan-truth", "nan-bound"])
    def test_non_finite_rejected(self, estimates, truth, bound):
        """A NaN compares false against the bound, so each case used to pass."""
        with pytest.raises(ValueError, match="estimates, truth and bound must be finite"):
            coverage_check(estimates, truth, bound, delta=0.1)


class TestFitGeometricRate:
    def test_exact_geometric_sequence(self):
        rate = 0.37
        values = 2.5 * rate ** np.arange(8)
        slope, intercept = fit_geometric_rate(values, np.arange(8))
        assert slope == pytest.approx(np.log(rate), abs=1e-12)
        assert intercept == pytest.approx(np.log(2.5), abs=1e-10)

    def test_constant_values_zero_slope(self):
        slope, _ = fit_geometric_rate(np.full(5, 4.2), np.arange(5))
        assert slope == pytest.approx(0.0, abs=1e-12)

    def test_custom_grid(self):
        ks = np.array([1.0, 3.0, 9.0])
        values = np.exp(-0.5 * ks + 1.0)
        slope, intercept = fit_geometric_rate(values, ks)
        assert slope == pytest.approx(-0.5, abs=1e-12)
        assert intercept == pytest.approx(1.0, abs=1e-12)

    def test_validation(self):
        with pytest.raises(ValueError):
            fit_geometric_rate([1.0, 2.0], np.arange(2))
        with pytest.raises(ValueError):
            fit_geometric_rate([1.0, -2.0, 3.0], np.arange(3))

    @pytest.mark.parametrize("values", [[1.0, np.nan, 3.0], [1.0, np.inf, 3.0]],
                             ids=["nan", "inf"])
    def test_non_finite_values_rejected(self, values):
        """``values <= 0`` let NaN through, and the fit returned (nan, nan)."""
        with pytest.raises(ValueError, match="values must be finite"):
            fit_geometric_rate(values, np.arange(3))

    def test_non_finite_ks_rejected(self):
        with pytest.raises(ValueError, match="ks must be finite"):
            fit_geometric_rate([1.0, 2.0, 3.0], [0.0, np.nan, 2.0])
