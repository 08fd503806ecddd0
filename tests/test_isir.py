"""Kernel step mechanics, the chain runner and the one-step pool identity."""

import numpy as np
import pytest
from conftest import log_weights, outcome
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import categorical_draw, isir_step, key_relation_check
from scipy.stats import chisquare

from brsnis import (DegenerateWeightsError, LogisticPosteriorSpec, ModelSpec,
                    RollingConfig, TestFunction, make_logistic_posterior,
                    normalize_weights, run_chain, sliced_wasserstein,
                    snis_estimate, synthetic_logistic_data)


class _FixedUniform:
    """Generator stand-in returning a preset uniform draw."""

    def __init__(self, value):
        self.value = value

    def random(self):
        return self.value


def constant_weight_model(dim=1):
    return ModelSpec(dim=dim,
                     log_weight=lambda x: np.zeros(len(x)),
                     propose=lambda rng, n: rng.standard_normal((n, dim)),
                     target_sample=lambda rng, n: rng.standard_normal((n, dim)))


def unit_function(dim=1):
    return TestFunction(fn=lambda pts: np.ones(len(pts)), sup_bound=1.0)


@st.composite
def table_models(draw):
    """``(model, f, finite)``: each proposal draw is an index into a table of
    ``log_weights`` and of f values in [-1, 1]."""
    lw, finite = draw(log_weights(draw(st.integers(1, 12))))
    fv = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1))).uniform(-1, 1, len(lw))
    model = ModelSpec(dim=1, log_weight=lambda x: lw[x[:, 0].astype(int)],
                      propose=lambda rng, n: rng.integers(len(lw), size=(n, 1)) * 1.0)
    return model, TestFunction(fn=lambda x: fv[x[:, 0].astype(int)], sup_bound=1.0), finite


def cold_chains(model, f, n, k, chains, rng):
    """``run_chain`` on one shared generator from one proposal draw per chain."""
    return run_chain(model, f, RollingConfig(n, k, 0), rng,
                     starts=model.propose(rng, chains))


def per_pool_replay(model, f, n, k, chains, rng):
    """``cold_chains``' stream replayed one pool at a time with
    ``normalize_weights``: the initial states, then per step every chain's
    N - 1 proposals and one uniform per chain."""
    y = model.propose(rng, chains)
    state_lw, state_f = model.log_weight(y), f(y)
    recycled = np.empty((chains, k))
    for step in range(k):
        fresh = model.propose(rng, chains * (n - 1)).reshape(chains, n - 1, -1)
        us = rng.random(chains)
        for c in range(chains):
            lw = np.append(state_lw[c], model.log_weight(fresh[c]))
            fv = np.append(state_f[c], f(fresh[c]))
            w = normalize_weights(lw)
            recycled[c, step] = w @ fv
            pick = min(int(np.searchsorted(np.cumsum(w), us[c], side="left")), n - 1)
            state_lw[c], state_f[c] = lw[pick], fv[pick]
    return recycled


class TestCategoricalDraw:
    def test_degenerate_mass(self):
        rng = np.random.default_rng(0)
        assert all(categorical_draw([1.0, 0.0, 0.0], rng) == 0 for _ in range(20))

    def test_tie_rule(self):
        """The smallest index whose cumulative weight reaches u wins."""
        assert categorical_draw([0.25, 0.75], _FixedUniform(0.25)) == 0
        assert categorical_draw([0.25, 0.75], _FixedUniform(0.250001)) == 1

    def test_validation(self):
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError):
            categorical_draw([0.5, 0.4], rng)
        with pytest.raises(ValueError):
            categorical_draw([-0.1, 1.1], rng)

    def test_uniform_frequencies(self):
        rng = np.random.default_rng(1)
        draws = [categorical_draw([0.25] * 4, rng) for _ in range(20000)]
        counts = np.bincount(draws, minlength=4)
        assert chisquare(counts).pvalue > 0.001


class TestIsirStep:
    def test_pool_contains_state_once_at_slot(self, mixture2):
        _, model, f, _ = mixture2
        rng = np.random.default_rng(2)
        y = np.array([0.3, -0.4])
        _, pool = isir_step(model, y, f, 8, rng)
        matches = np.all(pool.points == y, axis=1)
        assert matches.sum() == 1
        assert matches[pool.insertion_index]
        assert len(pool.points) == 8

    def test_stream_order_contract(self, mixture2):
        """One step consumes: slot index, N-1 proposals, selection uniform."""
        _, model, f, _ = mixture2
        y = np.array([0.1, 0.2])
        n = 6
        rng = np.random.default_rng(3)
        new_y, pool = isir_step(model, y, f, n, rng)

        replay = np.random.default_rng(3)
        slot = int(replay.integers(n))
        fresh = model.propose(replay, n - 1)
        u = replay.random()
        assert pool.insertion_index == slot
        np.testing.assert_array_equal(np.delete(pool.points, slot, axis=0), fresh)
        lw = np.insert(model.log_weight(fresh), slot, model.log_weight(y[None])[0])
        w = np.exp(lw - lw.max())
        w /= w.sum()
        expected = pool.points[min(int(np.searchsorted(np.cumsum(w), u)), n - 1)]
        np.testing.assert_array_equal(new_y, expected)

    def test_constant_weights_retention_probability(self):
        """With unit weights and N=2 the state survives half the time."""
        model = constant_weight_model()
        f = unit_function()
        rng = np.random.default_rng(4)
        y = np.zeros(1)
        keep = 0
        steps = 20000
        for _ in range(steps):
            new_y, _ = isir_step(model, y, f, 2, rng, y_log_weight=0.0,
                                 y_f_value=1.0)
            keep += bool(np.all(new_y == y))
        se = np.sqrt(0.25 / steps)
        assert abs(keep / steps - 0.5) <= 4.0 * se

    def test_insertion_slot_uniformity(self, mixture2):
        _, model, f, _ = mixture2
        rng = np.random.default_rng(5)
        y = np.zeros(2)
        slots = []
        for _ in range(20000):
            _, pool = isir_step(model, y, f, 4, rng, y_log_weight=0.0, y_f_value=0.0)
            slots.append(pool.insertion_index)
        counts = np.bincount(slots, minlength=4)
        assert chisquare(counts).pvalue > 0.001


class TestRunChain:
    @staticmethod
    def assert_matches_hand_replay(model, f, n, k, seed):
        """Replay ``run_chain``'s stream (the initial draw, then per step N - 1
        proposals and one uniform) over pools of the state then its draws:
        states match exactly, each recycled value is bitwise the runner's pool
        SNIS (shift by the pool max, state term plus fresh sum, over the
        total) and within rel 1e-12 of ``snis_estimate``."""
        recycled, states = run_chain(model, f, RollingConfig(n, k, 0),
                                     [np.random.default_rng(seed)])
        rng = np.random.default_rng(seed)
        y = model.propose(rng, 1)[0]
        y_lw, y_f = model.log_weight(y[None, :])[0], f(y[None, :])[0]
        for step, level in enumerate(recycled[0]):
            np.testing.assert_array_equal(states[0, step], y)
            fresh = model.propose(rng, n - 1)
            u, lw, fv = rng.random(), model.log_weight(fresh), f(fresh)
            assert level == pytest.approx(snis_estimate(
                np.append(y_lw, lw), np.append(y_f, fv)), rel=1e-12)
            w = np.exp(np.append(y_lw, lw) - max(lw.max(), y_lw))
            assert level == (w[0] * y_f + (w[1:] * fv).sum()) / (w[1:].sum() + w[0])
            j = min(int(np.searchsorted(np.cumsum(w), u * (w[1:].sum() + w[0]))), n - 1)
            if j > 0:
                y, y_lw, y_f = fresh[j - 1], lw[j - 1], fv[j - 1]
        np.testing.assert_array_equal(states[0, k], y)
        return states[0]

    def test_single_iteration_matches_manual_step(self, mixture2):
        _, model, f, _ = mixture2
        self.assert_matches_hand_replay(model, f, n=8, k=1, seed=6)

    def test_recycled_equals_pool_snis_bitwise(self, mixture2):
        _, model, f, _ = mixture2
        self.assert_matches_hand_replay(model, f, n=6, k=10, seed=7)

    def test_previous_state_survives_in_every_pool(self, mixture2):
        """The replay keeps the state in every pool; the chain stays at some steps."""
        _, model, f, _ = mixture2
        states = self.assert_matches_hand_replay(model, f, n=5, k=12, seed=8)
        stays = np.all(states[1:] == states[:-1], axis=1)
        assert stays.any() and not stays.all()

    def test_vector_test_function_columns(self, mixture2):
        """Columns (f, 1): column 0 is f's scalar run, column 1 is 1."""
        _, model, f, _ = mixture2
        f2 = TestFunction(fn=lambda pts: np.column_stack([f(pts), np.ones(len(pts))]),
                          sup_bound=1.0)
        for run in (lambda g: run_chain(model, g, RollingConfig(9, 5, 0),
                                        [np.random.default_rng(21)])[0][0],
                    lambda g: cold_chains(model, g, 9, 5, 3, np.random.default_rng(21))[0]):
            scalar, vector = run(f), run(f2)
            assert vector.shape == scalar.shape + (2,)
            np.testing.assert_allclose(vector[..., 0], scalar, rtol=1e-12, atol=1e-15)
            np.testing.assert_allclose(vector[..., 1], 1.0, rtol=1e-12)

    def test_all_minus_inf_pool_rejected(self):
        model = ModelSpec(dim=1, log_weight=lambda x: np.full(len(x), -np.inf),
                          propose=lambda rng, n: rng.standard_normal((n, 1)))
        with pytest.raises(DegenerateWeightsError):
            run_chain(model, unit_function(), RollingConfig(4, 2, 0),
                      [np.random.default_rng(23)])

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("bad", [np.nan, np.inf], ids=["nan", "inf"])
    @pytest.mark.parametrize("start", [-9.0, 9.0], ids=["in-pool", "at-start"])
    def test_nan_or_inf_log_weight_rejected(self, bad, start):
        """A NaN or +inf log weight, drawn or at the start, used to read as a
        degenerate pool ("no finite pool max")."""
        model = ModelSpec(dim=1, log_weight=lambda x: np.where(x[:, 0] > 0, bad, 0.0),
                          propose=lambda rng, n: rng.standard_normal((n, 1)))
        with pytest.raises(ValueError, match="must not be NaN or \\+inf"):
            run_chain(model, unit_function(), RollingConfig(4, 2, 0),
                      np.random.default_rng(23), starts=np.full((3, 1), start))

    def test_three_dimensional_f_rejected(self):
        """snis_estimate's rule: an (n, 2, 3) f used to be flattened silently
        into six columns."""
        f = TestFunction(fn=lambda pts: np.zeros((len(pts), 2, 3)), sup_bound=1.0)
        with pytest.raises(ValueError, match="one- or two-dimensional"):
            run_chain(constant_weight_model(), f, RollingConfig(4, 2, 0),
                      np.random.default_rng(0), starts=np.zeros((3, 1)))

    def test_default_start_is_one_proposal_draw(self, mixture2):
        """Without starts, a chain on its own generator is bit for bit the
        chain started explicitly from ``model.propose(rng, 1)`` on the same
        generator, shared."""
        _, model, f, _ = mixture2
        cfg = RollingConfig(7, 9, 0)
        chain = run_chain(model, f, cfg, [np.random.default_rng(24)])
        rng = np.random.default_rng(24)
        batch = run_chain(model, f, cfg, rng, starts=model.propose(rng, 1))
        for ours, theirs in zip(chain, batch):
            np.testing.assert_array_equal(ours, theirs)

    def test_explicit_and_target_starts(self, mixture2):
        """``run_chain`` begins at the starts it is given, explicit points or
        target draws, and leaves the caller's array as it was, also under an
        f that returns a view of its points."""
        _, model, _, _ = mixture2
        first = TestFunction(fn=lambda pts: pts[:, 0], sup_bound=10.0)
        rng = np.random.default_rng(9)
        for starts in (np.array([[0.5, 0.5], [-1.0, 2.0], [3.0, -3.0]]),
                       model.target_sample(rng, 3)):
            given = starts.copy()
            _, states = run_chain(model, first, RollingConfig(5, 6, 0), rng, starts=starts)
            np.testing.assert_array_equal(starts, given)
            np.testing.assert_array_equal(states[:, 0], given)
            assert (states[:, -1] != given).any()

    def test_config_validation(self, mixture2):
        """A pool of one candidate or zero iterations is rejected by the
        ``RollingConfig`` that ``run_chain`` reads; one candidate used to fail
        inside a numpy reshape."""
        _, model, f, _ = mixture2
        for n, k, message in ((1, 5, "n_candidates"), (4, 0, "n_iters")):
            with pytest.raises(ValueError, match=f"{message} must be at least"):
                run_chain(model, f, RollingConfig(n, k, 0), np.random.default_rng(0),
                          starts=np.zeros((3, 2)))


class TestRunChains:
    def test_stationary_start_single_step_unbiased(self, mixture2):
        """Recycled estimates from target-initialized single steps center on
        the analytic truth."""
        _, model, f, truth = mixture2
        rng = np.random.default_rng(12)
        recycled, _ = run_chain(model, f, RollingConfig(32, 1, 0), rng,
                                starts=model.target_sample(rng, 10 ** 4))
        est = recycled[:, 0]
        se = est.std(ddof=1) / np.sqrt(len(est))
        assert abs(est.mean() - truth) <= 4.0 * se

    @pytest.fixture(scope="class")
    def logistic(self):
        """The default-sized logistic posterior (d = 5, 200 observations),
        whose one-row log weights once had bits of their own, and a clipped
        coordinate as f."""
        x, y = synthetic_logistic_data(np.random.default_rng(23), 5, 200,
                                       np.array([1.0, -0.5, 0.0, 0.5, 2.0]))
        model = make_logistic_posterior(LogisticPosteriorSpec(x, y, prior_precision=0.05))
        return model, TestFunction(fn=lambda pts: np.clip(pts[:, 0], -50.0, 50.0),
                                   sup_bound=50.0)

    @pytest.mark.parametrize("which", ["mixture", "logistic"])
    @pytest.mark.parametrize("n", [2, 3, 9])
    @pytest.mark.parametrize("chains", [1, 2, 5])
    def test_per_chain_generators_give_lone_chain_streams(self, mixture2, logistic,
                                                          which, n, chains):
        """With one generator per chain, chain c's run is bitwise what
        ``run_chain`` gives for chain c alone on its own generator."""
        model, f = mixture2[1:3] if which == "mixture" else logistic
        starts = model.propose(np.random.default_rng(30), chains)
        rngs = [np.random.default_rng([31, c]) for c in range(chains)]
        cfg = RollingConfig(n, 6, 0)
        batch = run_chain(model, f, cfg, rngs, starts=starts)
        for c in range(chains):
            lone = run_chain(model, f, cfg, np.random.default_rng([31, c]),
                             starts=starts[c:c + 1])
            for ours, theirs in zip(batch, lone):
                np.testing.assert_array_equal(ours[c], theirs[0])

    def test_one_generator_per_chain_required(self, mixture2):
        _, model, f, _ = mixture2
        with pytest.raises(ValueError, match="one generator per chain"):
            run_chain(model, f, RollingConfig(4, 2, 0),
                      [np.random.default_rng(c) for c in range(2)], starts=np.zeros((3, 2)))

    def test_shared_generator_needs_starts(self, mixture2):
        """Default starts are drawn one per chain generator; one shared
        generator gives no chain count to draw them for."""
        _, model, f, _ = mixture2
        with pytest.raises(ValueError, match="shared generator needs explicit starts"):
            run_chain(model, f, RollingConfig(4, 2, 0), np.random.default_rng(0))

    def test_agrees_with_sequential_runner(self, mixture2):
        """The lockstep runner and iterated reference steps draw from the
        same law."""
        _, model, f, _ = mixture2
        n, k, reps = 8, 3, 1500
        recycled, _ = cold_chains(model, f, n, k, reps, np.random.default_rng(13))
        rng = np.random.default_rng(14)
        seq = np.empty((reps, k))
        for rep in range(reps):
            y = model.propose(rng, 1)[0]
            for step in range(k):
                y, pool = isir_step(model, y, f, n, rng)
                seq[rep, step] = snis_estimate(pool.log_weights, pool.f_values)
        for step in range(k):
            a, b = recycled[:, step], seq[:, step]
            se = np.sqrt(a.var(ddof=1) / reps + b.var(ddof=1) / reps)
            assert abs(a.mean() - b.mean()) <= 4.0 * se

    def test_state_kernel_preserves_target(self, mixture2):
        """One kernel step from a stationary start stays inside the sliced
        Wasserstein noise band of fresh target samples."""
        spec, model, f, _ = mixture2
        rng = np.random.default_rng(15)
        chains = 3000
        _, states = run_chain(model, f, RollingConfig(16, 1, 0), rng,
                              starts=model.target_sample(rng, chains))
        moved = states[:, 1]
        reference = model.target_sample(rng, chains)
        sw_chain = sliced_wasserstein(moved, reference,
                                      np.random.default_rng(100).standard_normal((64, 2)))
        null = np.array([
            sliced_wasserstein(model.target_sample(rng, chains),
                               model.target_sample(rng, chains),
                               np.random.default_rng(100 + i).standard_normal((64, 2)))
            for i in range(12)
        ])
        assert sw_chain <= null.mean() + 4.0 * null.std(ddof=1) + 1e-9

    @settings(max_examples=200, deadline=None)
    @given(table_models(), st.integers(2, 6), st.integers(1, 5), st.integers(1, 4),
           st.integers(0, 2 ** 32 - 1))
    def test_matches_per_pool_replay_any_spread(self, case, n, k, chains, seed):
        """Any log-weight spread, lone finite entries included, gives every
        pool's normalize_weights estimate, or the same degenerate pool."""
        model, f, finite = case
        fast, slow = (outcome(run, model, f, n, k, chains, np.random.default_rng(seed))
                      for run in (cold_chains, per_pool_replay))
        if finite == "none" or isinstance(slow, str):
            assert (fast, slow) == ("degenerate", "degenerate")
        else:
            np.testing.assert_allclose(fast[0], slow,
                                       rtol=1e-12, atol=1e-12)


class TestKeyRelation:
    def test_constant_weight_and_function_exact(self):
        model = constant_weight_model()
        f = unit_function()
        result = key_relation_check(model, f, np.zeros(1), n_candidates=8,
                                    replications=200,
                                    rng=np.random.default_rng(16),
                                    mc_draws=1000)
        assert result.empirical_mean == pytest.approx(1.0, abs=1e-12)
        assert result.closed_form == pytest.approx(1.0, abs=1e-12)
        assert abs(result.z_score) < 1e-6

    def test_constant_weight_general_function(self, mixture2):
        """With unit weights the identity reduces to a mean of f draws."""
        spec, _, f, _ = mixture2
        model = constant_weight_model(dim=2)
        y = np.array([0.0, 0.0])
        result = key_relation_check(model, f, y, n_candidates=4,
                                    replications=30000,
                                    rng=np.random.default_rng(17),
                                    mc_draws=10 ** 5)
        assert abs(result.z_score) <= 4.0

    def test_mixture_first_mode(self, mixture2):
        spec, model, f, _ = mixture2
        result = key_relation_check(model, f, spec.means[0], n_candidates=16,
                                    replications=2 * 10 ** 4,
                                    rng=np.random.default_rng(18),
                                    mc_draws=2 * 10 ** 5)
        assert abs(result.z_score) <= 4.0


def test_public_api_is_one_kernel():
    """Every exported name resolves and is listed once; the step-by-step
    reference kernel and the key-relation check live in the tests only."""
    import brsnis
    import brsnis.isir

    assert len(set(brsnis.__all__)) == len(brsnis.__all__)
    assert all(hasattr(brsnis, name) for name in brsnis.__all__)
    for name in ("WeightedPool", "categorical_draw", "isir_step", "key_relation_check",
                 "KeyRelationResult"):
        assert name not in brsnis.__all__
        assert not hasattr(brsnis, name) and not hasattr(brsnis.isir, name)
