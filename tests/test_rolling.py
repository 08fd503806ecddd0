"""Burn-in averaged estimators and the bootstrap replay over cached banks."""

import numpy as np
import pytest
from conftest import log_weights, outcome
from hypothesis import given, settings
from hypothesis import strategies as st

from brsnis import (CachedSampleBank, CountingModel,
                    DegenerateWeightsError, RollingConfig, TestFunction,
                    bootstrap_br_snis, build_sample_bank, normalize_weights,
                    rolling_estimate, run_chain)


def flat_bank(log_weights, f_values, initial_log_weight, initial_f_value):
    """A bank holding the given log weights and f values."""
    return CachedSampleBank(log_weights, f_values, initial_log_weight,
                            initial_f_value)


def reference_replay(bank, cfg, rounds, rng):
    """Naive scalar replay used as an independent oracle for the fast path:
    the ``(rounds,)`` round values of a ``(M,)`` bank.

    Same stream contract as the library: per round one permutation of the
    bank, then one selection uniform per iteration.  Every pool is shifted
    by its own max log weight, so a pool with no finite log weight raises
    DegenerateWeightsError.
    """
    n, k, k0 = cfg.n_candidates, cfg.n_iters, cfg.burn_in
    state_lw, state_f = bank.initial_log_weight, bank.initial_f_value
    round_values = []
    for _ in range(rounds):
        perm = rng.permutation(bank.size)
        us = rng.random(k)
        kept = []
        for step in range(k):
            idx = perm[step * (n - 1):(step + 1) * (n - 1)]
            lw = np.append(bank.log_weights[idx], state_lw)
            fv = np.append(bank.f_values[idx], state_f)
            w = normalize_weights(lw)
            if step >= k0:
                kept.append(float(w @ fv))
            # state first in the cumulative ordering, segment afterwards
            order = np.r_[len(idx), np.arange(len(idx))]
            cum = np.cumsum(w[order])
            pick = order[min(int(np.searchsorted(cum, us[step], side="left")),
                             n - 1)]
            state_lw, state_f = lw[pick], fv[pick]
        round_values.append(np.mean(kept))
    return np.array(round_values)


@st.composite
def spread_banks(draw):
    """``(bank, cfg, rounds, seed, finite)`` over the log weights of
    ``log_weights``, the initial entry first, and f values in [-1, 1]."""
    n, k = draw(st.integers(2, 6)), draw(st.integers(1, 5))
    cfg = RollingConfig(n, k, draw(st.integers(0, k - 1)))
    lw, finite = draw(log_weights((n - 1) * k + 1))
    fv = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1))).uniform(-1, 1, len(lw))
    return (flat_bank(lw[1:], fv[1:], lw[0], fv[0]), cfg, draw(st.integers(1, 3)),
            draw(st.integers(0, 2 ** 32 - 1)), finite)


class TestRollingEstimate:
    def test_no_burn_in_is_plain_mean(self):
        np.testing.assert_allclose(rolling_estimate(np.array([[1.0, 2.0, 3.0]]), 0), [2.0])

    def test_full_burn_in_keeps_last_value(self):
        np.testing.assert_allclose(rolling_estimate(np.array([[1.0, 2.0, 3.0]]), 2), [3.0])

    def test_out_of_range(self):
        """The burn-in is checked against the iteration axis, not the chain
        count: two chains of three iterations take a burn-in of 2.  One
        chain's estimates without the chain axis are rejected."""
        with pytest.raises(ValueError):
            rolling_estimate(np.array([[1.0, 2.0]]), 2)
        with pytest.raises(ValueError):
            rolling_estimate(np.array([[1.0, 2.0]]), -1)
        np.testing.assert_array_equal(rolling_estimate(np.ones((2, 3)), 2), [1.0, 1.0])
        with pytest.raises(ValueError, match="leading chain axis"):
            rolling_estimate(np.array([1.0, 2.0, 3.0]), 0)

    @pytest.mark.parametrize("tail", [(), (3,)], ids=["scalar", "three-columns"])
    @pytest.mark.parametrize("chains, iters", [(1, 1), (5, 7), (64, 1000)])
    def test_batch_is_each_chain_alone(self, chains, iters, tail):
        """Each chain's value, per column for q columns, is bitwise the mean
        of that chain's estimates past the burn-in taken on its own."""
        recycled = np.random.default_rng(chains).standard_normal((chains, iters) + tail)
        burn_in = iters // 3
        batch = rolling_estimate(recycled, burn_in)
        assert batch.shape == (chains,) + tail
        for c in range(chains):
            np.testing.assert_array_equal(batch[c], np.mean(recycled[c, burn_in:], axis=0))

    def test_config_derived_quantities(self):
        with pytest.raises(ValueError):
            RollingConfig(9, 4, 4)

    @pytest.mark.parametrize("n, k, message", [(1, 4, "n_candidates must be at least 2"),
                                               (9, 0, "n_iters must be at least 1")],
                             ids=["one-candidate", "no-iterations"])
    def test_config_rejects_one_candidate_or_no_iterations(self, n, k, message):
        """A pool needs two candidates and a chain one step; ``RollingConfig``
        checks both for every chain estimator, ``run_chain`` included."""
        with pytest.raises(ValueError, match=message):
            RollingConfig(n, k, 0)


class TestBrSnis:
    """BR-SNIS as the CLI runs it: the burn-in average of a cold-start chain."""

    def test_budget_accounting(self, mixture2):
        """The chain consumes exactly (N - 1) k draws plus the initial one."""
        _, model, f, _ = mixture2
        counter = CountingModel(model)
        n, k = 7, 5
        recycled, _ = run_chain(counter, f, RollingConfig(n, k, 2), [np.random.default_rng(0)])
        rolling_estimate(recycled, 2)
        assert counter.proposal_draws == (n - 1) * k + 1

    def test_bounded_by_sup_bound(self, mixture2):
        _, model, f, _ = mixture2
        rngs = [np.random.default_rng(seed) for seed in range(5)]
        recycled, _ = run_chain(model, f, RollingConfig(5, 6, 0), rngs)
        assert (abs(rolling_estimate(recycled, 3)) <= f.sup_bound).all()


class TestSampleBank:
    def test_sizes_and_immutability(self, mixture2):
        _, model, f, _ = mixture2
        counter = CountingModel(model)
        bank = build_sample_bank(counter, f, 24, np.random.default_rng(1))
        assert bank.size == 24
        assert counter.proposal_draws == 25  # the reserved triple included
        with pytest.raises(ValueError):
            bank.log_weights[0] = 0.0

    @pytest.mark.parametrize("f_values, initial_f_value", [
        (np.arange(4.0), 0.0), (np.ones((4, 2)), np.zeros(2))],
        ids=["one-column", "two-columns"])
    def test_caller_arrays_stay_writable(self, f_values, initial_f_value):
        """``np.asarray`` hands a float64 array through as itself, so freezing
        it froze the caller's f values; the bank freezes views instead."""
        log_weights = np.zeros(4)
        bank = CachedSampleBank(log_weights, f_values, 0.0, initial_f_value)
        log_weights[0] = f_values[0] = 5.0
        for frozen in (bank.log_weights, bank.f_values):
            with pytest.raises(ValueError, match="read-only"):
                frozen[0] = 0.0

    def test_mismatched_arrays_rejected(self):
        with pytest.raises(ValueError):
            CachedSampleBank(log_weights=np.zeros(2), f_values=np.zeros(3),
                             initial_log_weight=0.0, initial_f_value=0.0)

    @pytest.mark.parametrize("f_values, initial_f_value", [
        (np.zeros((3, 2)), 0.0), (np.zeros(3), np.zeros(2))],
        ids=["scalar-for-two-columns", "two-values-for-one-column"])
    def test_initial_f_value_shape_checked(self, f_values, initial_f_value):
        """A scalar used to broadcast silently across both columns, and two
        values for one column failed only inside the replay."""
        with pytest.raises(ValueError, match="shape of one f_values row"):
            CachedSampleBank(log_weights=np.zeros(3), f_values=f_values,
                             initial_log_weight=0.0, initial_f_value=initial_f_value)

    def test_three_dimensional_f_values_rejected(self):
        """snis_estimate's rule: an (M, 2, 3) bank used to replay every round
        and then fail with a TypeError."""
        with pytest.raises(ValueError, match="one- or two-dimensional"):
            CachedSampleBank(log_weights=np.zeros(3), f_values=np.zeros((3, 2, 3)),
                             initial_log_weight=0.0, initial_f_value=np.zeros((2, 3)))


class TestBootstrap:
    def test_matches_reference_replay(self, mixture2):
        _, model, f, _ = mixture2
        bank = build_sample_bank(model, f, 40, np.random.default_rng(2))
        cfg = RollingConfig(n_candidates=5, n_iters=10, burn_in=9)
        fast = bootstrap_br_snis(bank, cfg, rounds=7, rng=np.random.default_rng(3))
        slow = reference_replay(bank, cfg, rounds=7, rng=np.random.default_rng(3))
        assert fast == pytest.approx(slow, rel=1e-12, abs=1e-12)

    def test_matches_reference_replay_partial_burn_in(self, mixture2):
        _, model, f, _ = mixture2
        bank = build_sample_bank(model, f, 36, np.random.default_rng(4))
        cfg = RollingConfig(n_candidates=7, n_iters=6, burn_in=2)
        fast = bootstrap_br_snis(bank, cfg, rounds=5, rng=np.random.default_rng(5))
        slow = reference_replay(bank, cfg, rounds=5, rng=np.random.default_rng(5))
        assert fast == pytest.approx(slow, rel=1e-12, abs=1e-12)

    def test_underflowed_pools_match_reference_replay(self):
        """Pools far below the bank's max weight are shifted by their own max
        instead of returning 0/0."""
        lw = np.full(64, -900.0)
        lw[0] = 0.0
        bank = flat_bank(lw, np.arange(64) / 64.0, -900.0, 0.5)
        cfg = RollingConfig(n_candidates=5, n_iters=16, burn_in=0)
        for seed in range(5):
            fast = bootstrap_br_snis(bank, cfg, rounds=4,
                                     rng=np.random.default_rng(seed))
            slow = reference_replay(bank, cfg, rounds=4,
                                    rng=np.random.default_rng(seed))
            assert fast == pytest.approx(slow, rel=1e-12), seed

    def test_all_minus_inf_pool_rejected(self):
        lw = np.full(8, -np.inf)
        lw[0] = 0.0
        bank = flat_bank(lw, np.zeros(8), -np.inf, 0.0)
        with pytest.raises(DegenerateWeightsError):
            bootstrap_br_snis(bank, RollingConfig(3, 4, 0), rounds=4,
                              rng=np.random.default_rng(0))

    @pytest.mark.filterwarnings("error")
    def test_all_minus_inf_bank_rejected_without_warnings(self):
        """No finite weight anywhere: the error comes before any -inf - -inf."""
        bank = flat_bank(np.full(8, -np.inf), np.zeros(8), -np.inf, 0.0)
        with pytest.raises(DegenerateWeightsError):
            bootstrap_br_snis(bank, RollingConfig(3, 4, 0), rounds=4,
                              rng=np.random.default_rng(0))

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("bad", [np.nan, np.inf], ids=["nan", "inf"])
    @pytest.mark.parametrize("initial", [False, True], ids=["in-bank", "initial"])
    def test_nan_or_inf_log_weight_rejected(self, bad, initial):
        """+inf in the bank used to warn in exp() and then read as degenerate;
        a NaN initial log weight slipped past Python's max into the replay."""
        lw = np.zeros(8)
        if not initial:
            lw[3] = bad
        bank = flat_bank(lw, np.zeros(8), bad if initial else 0.0, 0.0)
        with pytest.raises(ValueError, match="must not be NaN or \\+inf"):
            bootstrap_br_snis(bank, RollingConfig(3, 4, 0), rounds=4,
                              rng=np.random.default_rng(0))

    @settings(max_examples=200, deadline=None)
    @given(spread_banks())
    def test_matches_reference_replay_any_spread(self, case):
        """Any log-weight spread, lone finite entries included, gives the
        per-pool-shifted reference's value, or the same degenerate pool."""
        bank, cfg, rounds, seed, finite = case
        fast, slow = (outcome(replay, bank, cfg, rounds, np.random.default_rng(seed))
                      for replay in (bootstrap_br_snis, reference_replay))
        if finite == "none" or isinstance(slow, str):
            assert isinstance(fast, str) and isinstance(slow, str)  # both degenerate
        else:
            assert fast == pytest.approx(slow, rel=1e-12, abs=1e-12)

    def test_single_round_equals_one_replayed_chain(self, mixture2):
        _, model, f, _ = mixture2
        bank = build_sample_bank(model, f, 32, np.random.default_rng(6))
        cfg = RollingConfig(n_candidates=9, n_iters=4, burn_in=3)
        value = bootstrap_br_snis(bank, cfg, rounds=1, rng=np.random.default_rng(7))
        oracle = reference_replay(bank, cfg, rounds=1, rng=np.random.default_rng(7))
        assert value == pytest.approx(oracle, rel=1e-12)

    def test_no_model_calls_after_bank(self, mixture2):
        _, model, f, _ = mixture2
        counter = CountingModel(model)
        bank = build_sample_bank(counter, f, 30, np.random.default_rng(8))
        draws, evals = counter.proposal_draws, counter.weight_evals
        bootstrap_br_snis(bank, RollingConfig(4, 10, 9), rounds=6,
                          rng=np.random.default_rng(9))
        assert counter.proposal_draws == draws
        assert counter.weight_evals == evals

    def test_constant_weights_average_cached_values(self):
        """Unit weights: each pool estimate is the plain mean of its N values."""
        rng = np.random.default_rng(10)
        m, n = 12, 4
        f_values = rng.normal(size=m)
        bank = flat_bank(np.zeros(m), f_values, 0.0, 0.5)
        cfg = RollingConfig(n_candidates=n + 1, n_iters=3, burn_in=0)
        value = bootstrap_br_snis(bank, cfg, rounds=4, rng=np.random.default_rng(11))
        lo = min(f_values.min(), 0.5)
        hi = max(f_values.max(), 0.5)
        assert value.shape == (4,)
        assert ((lo <= value) & (value <= hi)).all()

    def test_size_mismatch_rejected(self, mixture2):
        _, model, f, _ = mixture2
        bank = build_sample_bank(model, f, 30, np.random.default_rng(12))
        with pytest.raises(ValueError):
            bootstrap_br_snis(bank, RollingConfig(4, 9, 0), rounds=1,
                              rng=np.random.default_rng(13))

    def test_multi_output_columns(self, mixture2):
        """Vector-valued cached f values produce per-column round values."""
        _, model, _, _ = mixture2
        f2 = TestFunction(fn=lambda pts: np.column_stack([pts[:, 0], pts[:, 0] ** 0]),
                          sup_bound=60.0)
        bank = build_sample_bank(model, f2, 24, np.random.default_rng(14))
        cfg = RollingConfig(n_candidates=4, n_iters=8, burn_in=7)
        value = bootstrap_br_snis(bank, cfg, rounds=3, rng=np.random.default_rng(15))
        assert value.shape == (3, 2)
        assert value[:, 1] == pytest.approx(1.0, abs=1e-12)  # constant column

    @pytest.mark.parametrize("case", ["last-step", "partial-burn-in", "underflowed"])
    def test_multi_output_columns_match_reference_replay(self, mixture2, case):
        """A q = 3 bank replays each column as the scalar bank of that column
        does: the selections read only the weights, so one seed gives every
        column the same chain.  Kept steps gather their segment's f rows and
        a move reads the picked row; at k0 = k - 1, at k0 < k - 1 and on a
        bank with underflowed pools each column matches the reference."""
        _, model, f, _ = mixture2
        if case == "underflowed":
            lw = np.full(64, -900.0)
            lw[0] = 0.0
            fv = np.random.default_rng(16).uniform(0.5, 1.0, (64, 3))
            bank = flat_bank(lw, fv, -900.0, np.array([0.75, 0.5, 1.0]))
            cfg, rounds = RollingConfig(n_candidates=5, n_iters=16, burn_in=0), 4
        else:
            f3 = TestFunction(fn=lambda pts: np.column_stack(
                [2.0 + np.tanh(pts[:, 0]), 2.0 + np.tanh(pts[:, 1]), 2.0 + f(pts)]),
                sup_bound=3.0)
            bank = build_sample_bank(model, f3, 40, np.random.default_rng(17))
            burn_in = 9 if case == "last-step" else 3
            cfg, rounds = RollingConfig(n_candidates=5, n_iters=10, burn_in=burn_in), 7
        value = bootstrap_br_snis(bank, cfg, rounds, rng=np.random.default_rng(18))
        assert value.shape == (rounds, 3)
        for j in range(3):
            column = flat_bank(bank.log_weights, bank.f_values[:, j],
                               bank.initial_log_weight, bank.initial_f_value[j])
            oracle = reference_replay(column, cfg, rounds, rng=np.random.default_rng(18))
            assert value[:, j] == pytest.approx(oracle, rel=1e-12), j

    @pytest.mark.parametrize("columns", [(), (3,)], ids=["scalar", "three-columns"])
    @pytest.mark.parametrize("underflowed", [False, True], ids=["spread", "underflowed"])
    def test_rounds_form_a_prefix(self, mixture2, columns, underflowed):
        """A round draws one permutation and k uniforms, and only the state
        carries forward: the first r rounds of a 12-round replay are, bit for
        bit, the r-round replay."""
        if underflowed:
            lw = np.full(64, -900.0)
            lw[0] = 0.0
            fv = np.random.default_rng(19).uniform(0.5, 1.0, (64,) + columns)
            bank = flat_bank(lw, fv, -900.0, np.full(columns, 0.75))
            cfg = RollingConfig(n_candidates=5, n_iters=16, burn_in=0)
        else:
            _, model, f, _ = mixture2
            fq = f if not columns else TestFunction(
                fn=lambda pts: np.column_stack([pts[:, 0], pts[:, 1], f(pts)]),
                sup_bound=60.0)
            bank = build_sample_bank(model, fq, 40, np.random.default_rng(20))
            cfg = RollingConfig(n_candidates=5, n_iters=10, burn_in=3)
        full = bootstrap_br_snis(bank, cfg, rounds=12, rng=np.random.default_rng(21))
        assert full.shape == (12,) + columns
        for r in (1, 5, 12):
            prefix = bootstrap_br_snis(bank, cfg, rounds=r, rng=np.random.default_rng(21))
            assert np.array_equal(full[:r], prefix), r


class TestRollingBounds:
    def test_empirical_bias_and_mse_under_rolling_bounds(self, mixture2):
        """Burn-in averaged estimates stay inside their closed-form bias and
        MSE bounds (plus the replication noise allowance)."""
        from brsnis import (bound_constants, estimate_kappa, estimate_omega,
                            rolling_bias_bound, rolling_mse_bound)
        _, model, f, truth = mixture2
        rng = np.random.default_rng(30)
        log_weights = model.log_weight(model.propose(rng, 2 * 10 ** 5))
        kappa = estimate_kappa(log_weights)
        omega = estimate_omega(model, log_weights, 8, rng)
        n, k, k0, chains = 17, 16, 8, 5000
        recycled, _ = run_chain(model, f, RollingConfig(n, k, 0), rng,
                                starts=model.propose(rng, chains))
        values = rolling_estimate(recycled, k0)
        consts = bound_constants(max(omega, 1.0), max(kappa, 1.0), n)
        bias = abs(values.mean() - truth)
        bias_se = values.std(ddof=1) / np.sqrt(chains)
        sq = (values - truth) ** 2
        mse, mse_se = sq.mean(), sq.std(ddof=1) / np.sqrt(chains)
        assert bias <= rolling_bias_bound(consts, k0, k) + 3.0 * bias_se
        assert mse <= rolling_mse_bound(consts, k0, k) + 3.0 * mse_se


class TestBiasTrend:
    def test_longer_burn_in_does_not_increase_bias(self, mixture2):
        """Burn-in of 0, half, and all-but-one orders the empirical bias."""
        _, model, f, truth = mixture2
        n, k, chains = 16, 12, 10 ** 4
        rng = np.random.default_rng(20)
        recycled, _ = run_chain(model, f, RollingConfig(n, k, 0), rng,
                                starts=model.propose(rng, chains))
        biases = {}
        ses = {}
        for burn in (0, k // 2, k - 1):
            values = rolling_estimate(recycled, burn)
            biases[burn] = abs(values.mean() - truth)
            ses[burn] = values.std(ddof=1) / np.sqrt(chains)
        assert biases[0] >= biases[k // 2] - 2.0 * (ses[0] + ses[k // 2])
        assert biases[k // 2] >= biases[k - 1] - 2.0 * (ses[k // 2] + ses[k - 1])
