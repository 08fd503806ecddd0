"""Burn-in averaged estimators over recycled pool estimates, plus the
sample-reusing bootstrap wrapper.

The rolling estimator averages the per-iteration recycled estimates of a
chain after discarding a burn-in prefix.  The bootstrap wrapper re-runs the
selection dynamics over random permutations of one cached bank of
(log weight, f value) pairs, so after the bank is built it never touches the
model again; the chain state carries over from round to round, which lets
the selection dynamics keep mixing across rounds while each round
contributes its final-window average.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .isir import ChainTrace, RollingConfig
from .model import ModelSpec, TestFunction
from .snis import _check_top_log_weights, normalize_weights

_SMALLEST_NORMAL = np.finfo(float).tiny


def rolling_estimate(trace: ChainTrace, burn_in: int) -> float | np.ndarray:
    """Mean of the recycled estimates after the burn-in prefix; one value
    per column for a q-column test function."""
    recycled = trace.recycled_estimates
    if not 0 <= burn_in < len(recycled):
        raise ValueError("burn_in must lie in [0, number of iterations)")
    value = np.mean(recycled[burn_in:], axis=0)
    return float(value) if value.ndim == 0 else value


# ---------------------------------------------------------------------------
# Bootstrap over a cached sample bank
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CachedSampleBank:
    """The log weights and f values of M cached proposal draws, plus those of
    one reserved initial-state draw.  The points themselves are not kept:
    the replay reads only weights and f values.

    ``f_values`` may be ``(M,)`` or ``(M, q)`` for q test functions sharing
    the weights.  Arrays are frozen after construction.
    """

    log_weights: np.ndarray
    f_values: np.ndarray
    initial_log_weight: float
    initial_f_value: float | np.ndarray

    def __post_init__(self):
        lw = np.asarray(self.log_weights, dtype=float).ravel()
        fv = np.asarray(self.f_values, dtype=float)
        if fv.ndim not in (1, 2):
            raise ValueError("f_values must be one- or two-dimensional")
        if len(fv) != len(lw):
            raise ValueError("bank arrays must share one length")
        if np.shape(self.initial_f_value) != fv.shape[1:]:
            raise ValueError("initial_f_value must have the shape of one f_values row")
        for arr, name in ((lw, "log_weights"), (fv, "f_values")):
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    @property
    def size(self) -> int:
        return len(self.log_weights)


def build_sample_bank(model: ModelSpec, f: TestFunction, n_samples: int,
                      rng: np.random.Generator) -> CachedSampleBank:
    """Draw n_samples proposal points plus the reserved initial one and cache
    their log weights and f values."""
    if n_samples < 1:
        raise ValueError("n_samples must be positive")
    pts = model.propose(rng, n_samples)
    init = model.propose(rng, 1)
    return CachedSampleBank(
        log_weights=model.log_weight(pts),
        f_values=f(pts),
        initial_log_weight=float(model.log_weight(init)[0]),
        initial_f_value=f(init)[0],
    )


def bootstrap_br_snis(bank: CachedSampleBank, cfg: RollingConfig, rounds: int,
                      rng: np.random.Generator) -> float | np.ndarray:
    """Permutation-averaged replay of the selection dynamics over a bank.

    Each round draws a fresh uniform permutation of the M cached entries,
    partitions it into k segments of N - 1, and replays the chain: every
    iteration's pool is the carried state plus the segment, the recycled
    estimates past the burn-in are averaged into the round's value, and the
    next state is selected by one categorical draw on the cached weights.
    The state carries over between rounds, so the selection dynamics keep
    mixing across the whole replay; the reserved entry seeds round one.
    The returned value is the arithmetic mean over rounds.  No model
    evaluation happens here; everything runs off the cached weights and
    f values.

    Random-stream contract per round: one permutation of M indices, then k
    selection uniforms.
    """
    if rounds < 1:
        raise ValueError("rounds must be at least 1")
    m_total = bank.size
    n, k, k0 = cfg.n_candidates, cfg.n_iters, cfg.burn_in
    if (n - 1) * k != m_total:
        raise ValueError(f"bank of size {m_total} does not match "
                         f"(N - 1) k = {(n - 1) * k}")
    multi = bank.f_values.ndim == 2
    # One global max shift, checked before any exp() (np.maximum keeps a NaN
    # initial log weight), keeps every exp() in [0, 1].  A pool whose shifted
    # total underflows below the smallest normal float is normalized on its
    # own instead, and the state's weight is put back on the global scale.
    lw, fv = bank.log_weights, bank.f_values
    shift = np.maximum(lw.max(), bank.initial_log_weight)
    _check_top_log_weights(shift)
    bw = np.exp(lw - shift)
    state_lw, state_f = bank.initial_log_weight, bank.initial_f_value
    state_w = float(np.exp(state_lw - shift))
    kept = k - k0
    round_means = np.empty((rounds,) + bank.f_values.shape[1:])
    for rnd in range(rounds):
        perm = rng.permutation(m_total)
        seg_w = bw[perm].reshape(k, n - 1)
        cum = np.cumsum(seg_w, axis=1)
        # Python floats: cheaper per step than numpy scalars, same values.
        seg_totals = cum[:, -1].tolist()
        us = rng.random(k).tolist()
        acc = 0.0
        for step in range(k):
            total = seg_totals[step] + state_w
            own_shift = total < _SMALLEST_NORMAL  # 0.0 if all of the pool is -inf
            if own_shift:
                w = normalize_weights(np.append(state_lw, lw[
                    perm[step * (n - 1):(step + 1) * (n - 1)]]))
                state_w, seg_w[step] = float(w[0]), w[1:]
                cum[step] = np.cumsum(seg_w[step])
                total = cum[step, -1] + state_w
            if step >= k0:
                # Only kept steps read f: gather this segment's N - 1 rows.
                seg_f = fv[perm[step * (n - 1):(step + 1) * (n - 1)]]
                acc = acc + (state_w * state_f + seg_w[step] @ seg_f) / total
            u = us[step] * total
            if u > state_w:
                pick = min(int(cum[step].searchsorted(u - state_w)), n - 2)
                picked = perm[step * (n - 1) + pick]
                state_lw, state_f = lw[picked], fv[picked]
                state_w = float(seg_w[step, pick])
            if own_shift:
                state_w = float(np.exp(state_lw - shift))
        round_means[rnd] = acc / kept
    result = round_means.mean(axis=0)
    return result if multi else float(result)
