"""Weight normalization and the self-normalized importance sampling estimator.

All weight handling goes through max-shifted exponentiation so that only
relative log weights matter.  The estimator's closed-form bias, MSE and
high-probability bounds (valid for test functions bounded by 1) live here as
pure formula evaluators.
"""

from __future__ import annotations

import numpy as np


class DegenerateWeightsError(ValueError):
    """No log weight of a sample is finite: it carries no usable mass."""


def _check_top_log_weights(top) -> None:
    """The one rule for unusable log weights, which every estimator applies to
    the top log weight of each of its samples before any exp(): NaN or +inf
    raises ValueError, and -inf (no finite log weight) DegenerateWeightsError."""
    if np.isfinite(top).all():
        return
    if (np.isnan(top) | np.isposinf(top)).any():
        raise ValueError("log weights must not be NaN or +inf")
    raise DegenerateWeightsError("degenerate weights: all log weights are -inf")


def normalize_weights(log_weights: np.ndarray) -> np.ndarray:
    """Normalize log weights to a probability vector.

    Entries of ``-inf`` contribute zero weight.  A NaN or +inf entry raises
    ValueError, and an input without a finite entry DegenerateWeightsError.
    """
    lw = np.asarray(log_weights, dtype=float).ravel()
    m = np.max(lw, initial=-np.inf)
    _check_top_log_weights(m)
    w = np.exp(lw - m)
    return w / w.sum()


def snis_estimate(log_weights: np.ndarray, f_values: np.ndarray) -> float | np.ndarray:
    """Self-normalized importance sampling estimate from cached log weights
    and test-function values of one sample batch.

    ``f_values`` may be ``(n,)`` for a scalar test function, giving a float,
    or ``(n, q)`` for ``q`` functions sharing the same weights, giving an
    array of per-column estimates.  The weighted sum of one column is
    numpy's pairwise sum; the ``(n, q)`` sum along axis 0 adds each column's
    terms in order, a recursive sum whose rounding error grows with n (up to
    2.4e-14 against ``math.fsum`` at n = 10**6), still negligible against
    bias measurements.
    """
    lw = np.asarray(log_weights, dtype=float).ravel()
    fv = np.asarray(f_values, dtype=float)
    if fv.ndim not in (1, 2):
        raise ValueError("f_values must be one- or two-dimensional")
    if lw.shape[0] < 1 or fv.shape[0] != lw.shape[0]:
        raise ValueError("log_weights and f_values must share a positive length")
    weights = normalize_weights(lw)
    if fv.ndim == 1:
        return float(np.sum(weights * fv))
    return np.sum(weights[:, None] * fv, axis=0)


def snis_bias_bound(kappa: float, n_samples: int) -> float:
    """Closed-form bias bound 12 kappa / M for sup|f| <= 1."""
    _check_kappa_m(kappa, n_samples)
    return 12.0 * kappa / n_samples


def snis_mse_bound(kappa: float, n_samples: int) -> float:
    """Closed-form MSE bound 4 kappa / M for sup|f| <= 1."""
    _check_kappa_m(kappa, n_samples)
    return 4.0 * kappa / n_samples


def snis_hpd_bound(omega: float, n_samples: int, delta: float) -> float:
    """High-probability deviation bound 12 omega (M ln 2)^(-1/2) sqrt(ln(2/delta)).

    Holds with probability at least 1 - delta for sup|f| <= 1.
    """
    if not omega >= 1:
        raise ValueError("omega must be at least 1")
    if n_samples <= 1:
        raise ValueError("n_samples must exceed 1")
    if not 0.0 < delta < 1.0:
        raise ValueError("delta must lie in (0, 1)")
    return 12.0 * omega * (n_samples * np.log(2.0)) ** -0.5 * np.sqrt(np.log(2.0 / delta))


def _check_kappa_m(kappa: float, n_samples: int):
    if not kappa >= 1:
        raise ValueError("kappa must be at least 1")
    if n_samples < 1:
        raise ValueError("n_samples must be positive")
