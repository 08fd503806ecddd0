"""The iterated sampling-importance-resampling Markov kernel and its chain runner.

One kernel step puts the current state in an N-point candidate pool with
N-1 fresh proposal draws and selects the next state by one categorical draw
over the normalized pool weights.  Every pool also yields a recycled
estimate: the self-normalized estimate over all N candidates, which is what
the rolling estimators average.

``run_chain`` runs many chains in lockstep, off one shared generator or off
one generator per chain, from the initial states it is given.  Without
them, each chain starts from one proposal draw on its own generator, so a
replication's stream does not depend on the batch it runs in.  It keeps the
state first in every pool and draws no insertion slot: the selection and
the recycled estimate are symmetric in the pool's points, so no law depends
on the layout, and a fixed slot needs no draw and no per-chain gather.
``test_agrees_with_sequential_runner`` checks this against ``isir_step`` in
``tests/oracles.py``, a step-by-step reference that draws a uniform slot.
It returns the tuple ``(recycled, states)``, each with a leading chain axis,
and ``RollingConfig`` holds the schedule of the chain estimators.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .model import ModelSpec, TestFunction
from .snis import _check_top_log_weights
from .snis import snis_estimate  # noqa: F401  patched here by perfbench/tracer.py


@dataclass(frozen=True)
class RollingConfig:
    """Pool size N, iteration count k and burn-in k0 (0 <= k0 < k): the
    schedule of every chain estimator.  ``run_chain`` reads N and k for
    every chain of its batch, ``rolling_estimate`` applies the burn-in to
    the whole batch, and ``bootstrap_br_snis`` reads all three."""

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


def run_chain(model: ModelSpec, f: TestFunction, cfg: RollingConfig,
              rng: np.random.Generator | Sequence[np.random.Generator],
              starts: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Run one chain per row of ``starts`` in lockstep, with pool size
    ``cfg.n_candidates`` for ``cfg.n_iters`` steps.

    ``rng`` is one generator shared by all chains, or one generator per
    chain.  Per iteration a shared generator gives all chains' N - 1
    proposal draws, then one selection uniform per chain; chain c's own
    generator gives its N - 1 draws, then its one uniform.  Without
    ``starts``, chain c starts from ``model.propose(rng[c], 1)``, so its
    stream is that of a lone chain on ``rng[c]`` whatever the batch; a
    shared generator needs ``starts``.  Either way one ``log_weight`` and
    one ``f`` call take all chains' draws, and ``starts`` is left
    unmodified.  Returns the recycled estimates ``(chains, iters[, q])``,
    ``recycled[c, l]`` being chain c's pool-l SNIS estimate, and the states
    Y_0..Y_k ``(chains, iters + 1, dim)``.
    """
    shared = isinstance(rng, np.random.Generator)
    if starts is None:
        if shared:
            raise ValueError("a shared generator needs explicit starts")
        starts = np.concatenate([model.propose(g, 1) for g in rng])
    n_chains, n_iters = len(starts), cfg.n_iters
    if not shared and len(rng) != n_chains:
        raise ValueError("need one generator per chain")
    state_lw, f0 = model.log_weight(starts), f(starts)
    if f0.ndim not in (1, 2):
        raise ValueError("f_values must be one- or two-dimensional")
    # f values carry a trailing column axis, dropped again for a scalar f;
    # with one column the sums below are bitwise those of the 2-D arrays.
    # The copy keeps the moves below out of an f that returns a view.
    state_fv = f0.reshape(n_chains, -1).copy()
    m = cfg.n_candidates - 1
    recycled = np.empty((n_chains, n_iters, state_fv.shape[1]))
    states = np.empty((n_chains, n_iters + 1, model.dim))
    states[:, 0] = starts
    for step in range(n_iters):
        fresh = (model.propose(rng, n_chains * m) if shared
                 else np.concatenate([model.propose(g, m) for g in rng]))
        lw = model.log_weight(fresh).reshape(n_chains, m)
        fv = f(fresh).reshape(n_chains, m, -1)
        shift = np.maximum(lw.max(axis=1), state_lw)
        _check_top_log_weights(shift)
        w_fresh = np.exp(lw - shift[:, None])
        w_state = np.exp(state_lw - shift)
        total = w_fresh.sum(axis=1) + w_state
        recycled[:, step] = (w_state[:, None] * state_fv +
                             (w_fresh[:, :, None] * fv).sum(axis=1)) / total[:, None]
        u = total * (rng.random(n_chains) if shared else [g.random() for g in rng])
        cum = np.cumsum(np.concatenate([w_state[:, None], w_fresh], axis=1), axis=1)
        pick = np.minimum((cum < u[:, None]).sum(axis=1), m)
        moved = np.nonzero(pick > 0)[0]
        cols = pick[moved] - 1
        state_lw[moved] = lw[moved, cols]
        state_fv[moved] = fv[moved, cols]
        states[:, step + 1] = states[:, step]
        states[moved, step + 1] = fresh.reshape(n_chains, m, model.dim)[moved, cols]
    return recycled[:, :, 0] if f0.ndim == 1 else recycled, states
