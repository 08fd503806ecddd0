"""The iterated sampling-importance-resampling Markov kernel and chain runners.

One kernel step puts the current state in an N-point candidate pool with
N-1 fresh proposal draws and selects the next state by one categorical draw
over the normalized pool weights.  Every pool also yields a recycled
estimate: the self-normalized estimate over all N candidates, which is what
the rolling estimators average.

``isir_step`` is the step-by-step reference: it draws a uniform insertion
slot for the state, then N-1 proposals, then one selection uniform.
``run_chains`` runs many chains in lockstep from the initial states it is
given; it keeps the state first in every pool and draws no slot, and no law
depends on the layout.  ``run_chain`` is ``run_chains`` with one chain
started from one proposal draw.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .model import ModelSpec, TestFunction
from .snis import DegenerateWeightsError, normalize_weights
from .snis import snis_estimate  # noqa: F401  patched here by perfbench/tracer.py


@dataclass(frozen=True)
class WeightedPool:
    """One candidate pool: points, log weights, cached f values, state slot."""

    points: np.ndarray
    log_weights: np.ndarray
    f_values: np.ndarray
    insertion_index: int

    def __post_init__(self):
        n = len(self.points)
        if n < 2:
            raise ValueError("a pool needs at least 2 candidates")
        if len(self.log_weights) != n or len(self.f_values) != n:
            raise ValueError("pool arrays must share one length")
        if not 0 <= self.insertion_index < n:
            raise ValueError("insertion_index out of range")


@dataclass(frozen=True)
class RollingConfig:
    """Pool size N, iteration count k and burn-in k0 (0 <= k0 < k): the
    schedule of every chain estimator.  ``run_chain`` reads N and k; its
    caller applies the burn-in, and ``bootstrap_br_snis`` reads all three."""

    n_candidates: int
    n_iters: int
    burn_in: int

    def __post_init__(self):
        if self.n_candidates < 2:
            raise ValueError("n_candidates must be at least 2")
        if self.n_iters < 1:
            raise ValueError("n_iters must be at least 1")
        if not 0 <= self.burn_in < self.n_iters:
            raise ValueError("burn_in must lie in [0, n_iters)")


@dataclass(frozen=True)
class ChainTrace:
    """The per-iteration recycled estimates and the states Y_0..Y_k.  From
    ``run_chains`` both carry a leading chain axis."""

    recycled_estimates: np.ndarray
    states: np.ndarray


def categorical_draw(weights: np.ndarray, rng: np.random.Generator) -> int:
    """Inverse-CDF draw from a probability vector.

    Uses a single uniform u and returns the smallest index whose cumulative
    weight reaches u, which fixes the tie rule deterministically.
    """
    weights = np.asarray(weights, dtype=float)
    if weights.ndim != 1 or weights.size == 0:
        raise ValueError("weights must be a non-empty vector")
    if np.any(weights < 0) or abs(weights.sum() - 1.0) > 1e-9:
        raise ValueError("weights must form a probability vector")
    cum = np.cumsum(weights)
    idx = int(np.searchsorted(cum, rng.random(), side="left"))
    return min(idx, weights.size - 1)


def isir_step(model: ModelSpec, y: np.ndarray, f: TestFunction, n_candidates: int,
              rng: np.random.Generator,
              y_log_weight: Optional[float] = None,
              y_f_value: Optional[float] = None) -> tuple[np.ndarray, WeightedPool]:
    """One kernel step from state ``y``; returns the new state and the pool.

    ``y_log_weight``/``y_f_value`` short-circuit re-evaluating the carried
    state when the caller already holds its cached values.
    """
    y = np.asarray(y, dtype=float).ravel()
    slot = int(rng.integers(n_candidates))
    fresh = model.propose(rng, n_candidates - 1)
    if y_log_weight is None:
        y_log_weight = float(model.log_weight(y[None, :])[0])
    if y_f_value is None:
        y_f_value = f(y[None, :])[0]
    points = np.insert(fresh, slot, y, axis=0)
    log_weights = np.insert(model.log_weight(fresh), slot, y_log_weight)
    f_values = np.insert(f(fresh), slot, y_f_value, axis=0)
    selected = categorical_draw(normalize_weights(log_weights), rng)
    pool = WeightedPool(points=points, log_weights=log_weights,
                        f_values=f_values, insertion_index=slot)
    return points[selected], pool


def run_chains(model: ModelSpec, f: TestFunction, n_candidates: int, n_iters: int,
               starts: np.ndarray, rng: np.random.Generator) -> ChainTrace:
    """Run one chain per row of ``starts`` in lockstep off one shared generator.

    Per iteration the generator gives all chains' N - 1 proposal draws, then
    one selection uniform per chain; ``starts`` is left unmodified.  The trace
    has recycled estimates ``(chains, iters[, q])`` and states
    ``(chains, iters + 1, dim)``.
    """
    if n_candidates < 2 or n_iters < 1:
        raise ValueError("a chain needs n_candidates >= 2 and n_iters >= 1")
    n_chains = len(starts)
    state_lw, f0 = model.log_weight(starts), f(starts)
    # f values carry a trailing column axis, dropped again for a scalar f;
    # with one column the sums below are bitwise those of the 2-D arrays.
    # The copy keeps the moves below out of an f that returns a view.
    state_fv = f0.reshape(n_chains, -1).copy()
    m = n_candidates - 1
    recycled = np.empty((n_chains, n_iters, state_fv.shape[1]))
    states = np.empty((n_chains, n_iters + 1, model.dim))
    states[:, 0] = starts
    for step in range(n_iters):
        fresh = model.propose(rng, n_chains * m)
        lw = model.log_weight(fresh).reshape(n_chains, m)
        fv = f(fresh).reshape(n_chains, m, -1)
        shift = np.maximum(lw.max(axis=1), state_lw)
        if not np.isfinite(shift).all():
            raise DegenerateWeightsError("degenerate weights: no finite pool max")
        w_fresh = np.exp(lw - shift[:, None])
        w_state = np.exp(state_lw - shift)
        total = w_fresh.sum(axis=1) + w_state
        recycled[:, step] = (w_state[:, None] * state_fv +
                             (w_fresh[:, :, None] * fv).sum(axis=1)) / total[:, None]
        u = rng.random(n_chains) * total
        cum = np.cumsum(np.concatenate([w_state[:, None], w_fresh], axis=1), axis=1)
        pick = np.minimum((cum < u[:, None]).sum(axis=1), m)
        moved = np.nonzero(pick > 0)[0]
        cols = pick[moved] - 1
        state_lw[moved] = lw[moved, cols]
        state_fv[moved] = fv[moved, cols]
        states[:, step + 1] = states[:, step]
        states[moved, step + 1] = fresh.reshape(n_chains, m, model.dim)[moved, cols]
    return ChainTrace(recycled_estimates=recycled[:, :, 0] if f0.ndim == 1 else recycled,
                      states=states)


def run_chain(model: ModelSpec, f: TestFunction, cfg: RollingConfig,
              rng: np.random.Generator) -> ChainTrace:
    """Run one chain from one proposal draw: ``run_chains`` with one chain, on
    the same stream; recycled_estimates[l] is the pool-l SNIS estimate."""
    trace = run_chains(model, f, cfg.n_candidates, cfg.n_iters, model.propose(rng, 1),
                       rng)
    return ChainTrace(recycled_estimates=trace.recycled_estimates[0],
                      states=trace.states[0])


@dataclass(frozen=True)
class KeyRelationResult:
    """Monte Carlo check of the one-step pool-mean identity."""

    empirical_mean: float
    closed_form: float
    z_score: float
    std_error: float


def key_relation_check(model: ModelSpec, f: TestFunction, y: np.ndarray,
                       n_candidates: int, replications: int,
                       rng: np.random.Generator,
                       mc_draws: int = 10 ** 6) -> KeyRelationResult:
    """Check E[u_N f] over pools from state ``y`` against its closed form.

    The unnormalized pool statistic u_N f = N^-1 sum_i w(x_i) f(x_i), with
    w taken as exp(log_weight) directly, has one-step conditional mean
    (1 - 1/N) lambda(w f) + (1/N) w(y) f(y).  Both sides are estimated by
    Monte Carlo (lambda(w f) from ``mc_draws`` fresh proposal points) and the
    z-score combines both standard errors.
    """
    if n_candidates < 2:
        raise ValueError("n_candidates must be at least 2")
    y = np.asarray(y, dtype=float).ravel()
    n = n_candidates
    wy_fy = float(np.exp(model.log_weight(y[None, :])[0]) * f(y[None, :])[0])

    fresh = model.propose(rng, replications * (n - 1))
    wf = np.exp(model.log_weight(fresh)) * f(fresh)
    pool_stats = (wy_fy + wf.reshape(replications, n - 1).sum(axis=1)) / n
    empirical = float(pool_stats.mean())
    emp_var = float(pool_stats.var(ddof=1)) / replications

    ref = model.propose(rng, mc_draws)
    wf_ref = np.exp(model.log_weight(ref)) * f(ref)
    lam_wf = float(wf_ref.mean())
    lam_var = float(wf_ref.var(ddof=1)) / mc_draws
    closed = (1.0 - 1.0 / n) * lam_wf + wy_fy / n

    se = float(np.sqrt(emp_var + (1.0 - 1.0 / n) ** 2 * lam_var))
    z = (empirical - closed) / se if se > 0 else 0.0
    return KeyRelationResult(empirical_mean=empirical, closed_form=closed,
                             z_score=float(z), std_error=se)
