"""Test-only reference implementations of the i-SIR kernel.

``isir_step`` is the step-by-step kernel: it draws a uniform insertion slot
for the state, then N-1 proposals, then one selection uniform, and picks the
next state by ``categorical_draw``.  The library's lockstep runner
``run_chain`` keeps the state first in every pool and draws no slot; the
tests use ``isir_step`` as the oracle that no law depends on that layout.
``key_relation_check`` is a Monte Carlo check of the one-step pool-mean
identity; it reads only the model.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from brsnis import ModelSpec, TestFunction, normalize_weights


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
