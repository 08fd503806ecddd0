"""Weight normalization, the self-normalized estimator and its bounds."""

import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import brsnis
from brsnis import (DegenerateWeightsError, coverage_check, normalize_weights,
                    snis_bias_bound, snis_estimate, snis_hpd_bound, snis_mse_bound)


class TestNormalizeWeights:
    def test_uniform(self):
        np.testing.assert_allclose(normalize_weights([0.0, 0.0, 0.0, 0.0]),
                                   [0.25, 0.25, 0.25, 0.25])

    def test_hand_value(self):
        np.testing.assert_allclose(normalize_weights([0.0, np.log(3.0)]),
                                   [0.25, 0.75])

    def test_large_shift(self):
        """Max-shifted exponentiation survives log weights around 1000."""
        np.testing.assert_allclose(normalize_weights([1000.0, 1000.0 + np.log(3.0)]),
                                   [0.25, 0.75])

    def test_simplex_within_tolerance(self):
        rng = np.random.default_rng(1)
        w = normalize_weights(rng.normal(scale=30.0, size=500))
        assert np.all(w >= 0) and np.all(w <= 1)
        assert abs(w.sum() - 1.0) <= 1e-12

    def test_minus_inf_entries_dropped(self):
        w = normalize_weights([-np.inf, 0.0, 0.0])
        np.testing.assert_allclose(w, [0.0, 0.5, 0.5])

    def test_all_minus_inf_rejected(self):
        with pytest.raises(DegenerateWeightsError):
            normalize_weights([-np.inf, -np.inf])

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("bad", [np.nan, np.inf], ids=["nan", "inf"])
    @pytest.mark.parametrize("estimate", [
        normalize_weights, lambda lw: snis_estimate(lw, np.zeros(len(lw)))],
        ids=["normalize", "snis-estimate"])
    def test_nan_or_inf_rejected(self, estimate, bad):
        """Both used to read as "all log weights are -inf"."""
        with pytest.raises(ValueError, match="must not be NaN or \\+inf"):
            estimate([0.0, bad, -np.inf])


class TestWeightRule:
    def test_raised_only_in_snis(self):
        """Every estimator applies snis.py's one rule for unusable log
        weights; no other module raises its errors, so it cannot fork."""
        raising = re.compile(r"DegenerateWeightsError\(|must not be NaN or \+inf")
        for path in sorted(Path(brsnis.__file__).parent.glob("*.py")):
            assert bool(raising.search(path.read_text())) == (path.name == "snis.py"), \
                path.name

class TestSnisEstimate:
    def test_uniform_weights_give_plain_mean(self):
        est = snis_estimate(np.zeros(4), [1.0, 2.0, 3.0, 4.0])
        assert est == pytest.approx(2.5, abs=1e-14)

    def test_hand_value(self):
        est = snis_estimate([0.0, np.log(3.0)], [0.0, 1.0])
        assert est == pytest.approx(0.75, abs=1e-14)

    def test_constant_function_exact(self):
        rng = np.random.default_rng(2)
        est = snis_estimate(rng.normal(size=200), np.full(200, 3.7))
        assert est == pytest.approx(3.7, abs=1e-12)

    def test_matrix_valued_columns(self):
        lw = np.array([0.0, np.log(3.0)])
        fv = np.array([[0.0, 1.0], [1.0, 2.0]])
        np.testing.assert_allclose(
            snis_estimate(lw, fv), [0.75, 1.75])

    @given(st.floats(-200.0, 200.0))
    @settings(max_examples=30, deadline=None)
    def test_shift_invariance(self, shift):
        rng = np.random.default_rng(3)
        lw = rng.normal(size=64)
        fv = rng.normal(size=64)
        base = snis_estimate(lw, fv)
        shifted = snis_estimate(lw + shift, fv)
        assert shifted == pytest.approx(base, rel=1e-10, abs=1e-12)

    @given(st.integers(0, 2 ** 31 - 1))
    @settings(max_examples=30, deadline=None)
    def test_permutation_invariance_and_boundedness(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 100))
        lw = rng.normal(scale=5.0, size=n)
        fv = rng.normal(size=n)
        base = snis_estimate(lw, fv)
        perm = rng.permutation(n)
        assert snis_estimate(lw[perm], fv[perm]) == \
            pytest.approx(base, rel=1e-10, abs=1e-12)
        assert abs(base) <= np.max(np.abs(fv)) + 1e-12

    def test_degenerate_propagates(self):
        with pytest.raises(DegenerateWeightsError):
            snis_estimate([-np.inf, -np.inf], [0.0, 1.0])

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            snis_estimate([0.0, 0.0], [1.0])


class TestClosedFormBounds:
    def test_bias_and_mse_values(self):
        assert snis_bias_bound(100.0, 1000) == pytest.approx(1.2)
        assert snis_mse_bound(100.0, 1000) == pytest.approx(0.4)
        assert snis_bias_bound(1.0, 12) == pytest.approx(1.0)

    def test_benchmark_plugin_value(self):
        # kappa near 7e2 at M = 25600 puts the MSE bound near 0.109.
        assert snis_mse_bound(700.0, 25600) == pytest.approx(0.109375)

    def test_hpd_value(self):
        assert snis_hpd_bound(1.0, 10 ** 4, 2.0 / np.e) == \
            pytest.approx(0.144134689054374, abs=1e-12)

    def test_hpd_delta_to_one_limit(self):
        omega, m = 3.0, 400
        limit = 12.0 * omega * (m * np.log(2.0)) ** -0.5 * np.sqrt(np.log(2.0))
        assert snis_hpd_bound(omega, m, 1.0 - 1e-12) == pytest.approx(limit, rel=1e-6)

    def test_argument_validation(self):
        with pytest.raises(ValueError):
            snis_bias_bound(0.5, 10)
        with pytest.raises(ValueError):
            snis_hpd_bound(1.0, 1, 0.5)
        with pytest.raises(ValueError):
            snis_hpd_bound(1.0, 10, 1.5)


class TestHpdCoverage:
    def test_coverage_on_gauss_student(self, gauss_student_1d):
        """Deviations exceed the high-probability bound at most delta-often."""
        spec, model, f, truth = gauss_student_1d
        rng = np.random.default_rng(11)
        reps, m, delta = 2000, 500, 0.1
        draws = model.propose(rng, reps * m)
        lw = model.log_weight(draws).reshape(reps, m)
        fv = f(draws).reshape(reps, m)
        shift = lw.max(axis=1, keepdims=True)
        w = np.exp(lw - shift)
        estimates = (w * fv).sum(axis=1) / w.sum(axis=1)
        omega_plugin = 1.1
        bound = snis_hpd_bound(omega_plugin, m, delta)
        result = coverage_check(estimates, truth, bound, delta)
        assert result.passed
