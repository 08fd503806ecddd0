"""Replication statistics, distance diagnostics and coverage checks.

This is the measurement layer: batched bias/MSE summaries over replicated
estimates, the sliced Wasserstein distance between point clouds, the total
variation distance between binary predictive tables, bound-coverage
checking, and geometric-rate fitting of decay curves.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, Optional

import numpy as np


@dataclass(frozen=True)
class ReplicationSummary:
    """Batched bias and MSE statistics for one estimator configuration.

    ``batch_bias[b]`` is the batch-b mean estimate minus the truth and
    ``batch_mse[b]`` the batch-b mean squared error.  ``bias`` and ``mse``
    aggregate over batches, each with a standard error across batches, or
    None from a single batch.
    """

    batch_bias: np.ndarray
    batch_mse: np.ndarray
    bias: float
    mse: float
    bias_se: Optional[float]
    mse_se: Optional[float]


def replication_stats(estimates: np.ndarray, truth: float,
                      batch_size: int) -> ReplicationSummary:
    """Per-batch bias/MSE over replicated estimates of a known truth.

    The estimates are split in order into batches of ``batch_size``, which
    must divide their number; the standard errors are taken across batches.
    """
    estimates = np.asarray(estimates, dtype=float).ravel()
    if estimates.size == 0:
        raise ValueError("estimates must be non-empty")
    if batch_size < 1 or estimates.size % batch_size:
        raise ValueError("batch_size must divide the number of replications")
    batches = estimates.reshape(-1, batch_size)
    n_batches = batches.shape[0]
    batch_bias = batches.mean(axis=1) - truth
    batch_mse = ((batches - truth) ** 2).mean(axis=1)
    bias_se, mse_se = (float(v.std(ddof=0) / np.sqrt(n_batches - 1)) if n_batches > 1
                       else None for v in (batch_bias, batch_mse))
    return ReplicationSummary(
        batch_bias=batch_bias,
        batch_mse=batch_mse,
        bias=float(batch_bias.mean()),
        mse=float(batch_mse.mean()),
        bias_se=bias_se,
        mse_se=mse_se,
    )


def lag_covariance(sequences: np.ndarray, truth: float, lag: int,
                   base_index: int = 0) -> float:
    """Cross moment E[(x_k - truth)(x_{k+lag} - truth)] across replications.

    ``sequences`` is a (replications, iterations) array of aligned
    per-iteration values; the moment is taken at iteration ``base_index``
    against ``base_index + lag``.
    """
    sequences = np.atleast_2d(np.asarray(sequences, dtype=float))
    if lag < 1:
        raise ValueError("lag must be at least 1")
    if base_index < 0 or base_index + lag >= sequences.shape[1]:
        raise ValueError("lag exceeds the available iterations")
    lead = sequences[:, base_index] - truth
    trail = sequences[:, base_index + lag] - truth
    return float(np.mean(lead * trail))


def sliced_wasserstein(points_a: np.ndarray, points_b: np.ndarray,
                       n_projections: int, rng: np.random.Generator) -> float:
    """Mean one-dimensional order-2 Wasserstein distance over random slices.

    Both clouds are projected onto ``n_projections`` uniform random unit
    directions; per direction the distance is the root mean squared
    difference of the sorted projections, and the result averages those
    per-direction distances.  Unequal cloud sizes are reconciled by
    uniformly subsampling the larger cloud.
    """
    a = np.atleast_2d(np.asarray(points_a, dtype=float))
    b = np.atleast_2d(np.asarray(points_b, dtype=float))
    if a.shape[1] != b.shape[1]:
        raise ValueError("point clouds must share a dimension")
    if len(a) == 0 or len(b) == 0:
        raise ValueError("point clouds must be non-empty")
    if len(a) > len(b):
        a = a[rng.choice(len(a), size=len(b), replace=False)]
    elif len(b) > len(a):
        b = b[rng.choice(len(b), size=len(a), replace=False)]
    dim = a.shape[1]
    directions = rng.standard_normal((n_projections, dim))
    directions /= np.linalg.norm(directions, axis=1, keepdims=True)
    proj_a = np.sort(a @ directions.T, axis=0)
    proj_b = np.sort(b @ directions.T, axis=0)
    per_direction = np.sqrt(((proj_a - proj_b) ** 2).mean(axis=0))
    return float(per_direction.mean())


def tv_predictive(estimated: np.ndarray, reference: np.ndarray) -> float:
    """Average binary total variation distance between an estimated and a
    reference predictive, given as class-1 probabilities per test point.

    Half the sum over both classes of the absolute probability deviations;
    for a binary table the two class deviations coincide, so this reduces to
    the mean absolute class-1 deviation.
    """
    est = np.asarray(estimated, dtype=float).ravel()
    ref = np.asarray(reference, dtype=float).ravel()
    if est.shape != ref.shape or est.size == 0:
        raise ValueError("estimated and reference must share a positive length")
    for arr in (est, ref):
        # Written so that NaN, which fails every comparison, is rejected too.
        if not np.all((arr >= 0) & (arr <= 1)):
            raise ValueError("probabilities must be finite and lie in [0, 1]")
    return float(np.abs(est - ref).mean())


class CoverageResult(NamedTuple):
    violation_fraction: float
    passed: bool


def coverage_check(estimates: np.ndarray, truth: float, bound: float,
                   delta: float) -> CoverageResult:
    """Check that |estimate - truth| exceeds the bound at most delta-often.

    Passes when the violation fraction stays within delta plus a two sigma
    binomial allowance for the finite replication count.
    """
    if not 0.0 < delta < 1.0:
        raise ValueError("delta must lie in (0, 1)")
    estimates = np.asarray(estimates, dtype=float).ravel()
    fraction = float(np.mean(np.abs(estimates - truth) > bound))
    slack = 2.0 * np.sqrt(delta * (1.0 - delta) / estimates.size)
    return CoverageResult(fraction, fraction <= delta + slack)


def fit_geometric_rate(values: np.ndarray,
                       ks: Optional[np.ndarray] = None) -> tuple[float, float]:
    """Least-squares fit of log(values) against the iteration index.

    Returns (slope, intercept); the slope is the fitted per-step log rate.
    Values must be strictly positive and at least three points long.
    """
    values = np.asarray(values, dtype=float).ravel()
    if values.size < 3:
        raise ValueError("need at least three points to fit a rate")
    if np.any(values <= 0):
        raise ValueError("values must be strictly positive")
    if ks is None:
        ks = np.arange(values.size, dtype=float)
    else:
        ks = np.asarray(ks, dtype=float).ravel()
        if ks.shape != values.shape:
            raise ValueError("ks must match values in length")
    slope, intercept = np.polyfit(ks, np.log(values), 1)
    return float(slope), float(intercept)
