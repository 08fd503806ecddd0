"""The three special functions the package needs, ported from scipy 1.17.

``gammaln`` and ``ndtr`` repeat the cephes routines scipy evaluates, and
``logsumexp`` the arithmetic of ``scipy.special.logsumexp`` on a 1-D array,
step for step, so each returns scipy's bits.  Porting them keeps scipy, whose
import costs more than building a model, off every command's path.  The two
cephes ports take Python floats and use ``math``'s libm ``exp`` and ``log``,
as the compiled routines do; ``logsumexp`` uses numpy as scipy does.
"""

from __future__ import annotations

import math

import numpy as np


def _polevl(x: float, coef: tuple[float, ...]) -> float:
    """coef[0] x^n + ... + coef[n] by Horner's rule, as cephes ``polevl``."""
    ans = coef[0]
    for c in coef[1:]:
        ans = ans * x + c
    return ans


def _p1evl(x: float, coef: tuple[float, ...]) -> float:
    """``_polevl`` with an implicit leading coefficient 1, as cephes ``p1evl``."""
    ans = x + coef[0]
    for c in coef[1:]:
        ans = ans * x + c
    return ans


# cephes lgam: Stirling's correction series, and the rational function for
# log Gamma(2 + x) on [0, 1).
_LGAM_A = (8.11614167470508450300E-4, -5.95061904284301438324E-4,
           7.93650340457716943945E-4, -2.77777777730099687205E-3,
           8.33333333333331927722E-2)
_LGAM_B = (-1.37825152569120859100E3, -3.88016315134637840924E4,
           -3.31612992738871184744E5, -1.16237097492762307383E6,
           -1.72173700820839662146E6, -8.53555664245765465627E5)
_LGAM_C = (-3.51815701436523470549E2, -1.70642106651881159223E4,
           -2.20528590553854454839E5, -1.13933444367982507207E6,
           -2.53252307177582951285E6, -2.01889141433532773231E6)
_LS2PI = 0.91893853320467274178  # log(sqrt(2 pi))


def gammaln(x: float) -> float:
    """log Gamma(x) for finite x > 0, scipy's ``gammaln`` bit for bit."""
    x = float(x)
    if not 0.0 < x < math.inf:
        raise ValueError("gammaln is ported for finite x > 0 only")
    if x < 13.0:
        # Shift u = x + p into [2, 3), z collecting the factors shifted past.
        z, p, u = 1.0, 0.0, x
        while u >= 3.0:
            p -= 1.0
            u = x + p
            z *= u
        while u < 2.0:
            z /= u
            p += 1.0
            u = x + p
        if u == 2.0:
            return math.log(z)
        p -= 2.0
        x = x + p
        return math.log(z) + x * _polevl(x, _LGAM_B) / _p1evl(x, _LGAM_C)
    q = (x - 0.5) * math.log(x) - x + _LS2PI
    if x > 1.0e8:
        return q
    p = 1.0 / (x * x)
    if x >= 1000.0:
        return q + ((7.9365079365079365079365e-4 * p - 2.7777777777777777777778e-3) * p
                    + 0.0833333333333333333333) / x
    return q + _polevl(p, _LGAM_A) / x


# cephes ndtr.c: erfc on [1, 8) (P/Q) and from 8 (R/S), erf below 1 (T/U).
_ERFC_P = (2.46196981473530512524E-10, 5.64189564831068821977E-1,
           7.46321056442269912687E0, 4.86371970985681366614E1,
           1.96520832956077098242E2, 5.26445194995477358631E2,
           9.34528527171957607540E2, 1.02755188689515710272E3,
           5.57535335369399327526E2)
_ERFC_Q = (1.32281951154744992508E1, 8.67072140885989742329E1,
           3.54937778887819891062E2, 9.75708501743205489753E2,
           1.82390916687909736289E3, 2.24633760818710981792E3,
           1.65666309194161350182E3, 5.57535340817727675546E2)
_ERFC_R = (5.64189583547755073984E-1, 1.27536670759978104416E0,
           5.01905042251180477414E0, 6.16021097993053585195E0,
           7.40974269950448939160E0, 2.97886665372100240670E0)
_ERFC_S = (2.26052863220117276590E0, 9.39603524938001434673E0,
           1.20489539808096656605E1, 1.70814450747565897222E1,
           9.60896809063285878198E0, 3.36907645100081516050E0)
_ERF_T = (9.60497373987051638749E0, 9.00260197203842689217E1,
          2.23200534594684319226E3, 7.00332514112805075473E3,
          5.55923013010394962768E4)
_ERF_U = (3.35617141647503099647E1, 5.21357949780152679795E2,
          4.59432382970980127987E3, 2.26290000613890934246E4,
          4.92673942608635921086E4)
_MAXLOG = 7.09782712893383996843E2
_SQRT1_2 = 0.707106781186547524400844362104849039


def _erf(x: float) -> float:
    """cephes ``erf`` for |x| <= 1, the only range ``ndtr`` reaches it in."""
    z = x * x
    return x * _polevl(z, _ERF_T) / _p1evl(z, _ERF_U)


def _erfc(a: float) -> float:
    """cephes ``erfc`` for a >= 1/sqrt(2), the only range ``ndtr`` reaches."""
    if a < 1.0:
        return 1.0 - _erf(a)
    z = -a * a
    if z < -_MAXLOG:
        return 0.0
    z = math.exp(z)
    if a < 8.0:
        p, q = _polevl(a, _ERFC_P), _p1evl(a, _ERFC_Q)
    else:
        p, q = _polevl(a, _ERFC_R), _p1evl(a, _ERFC_S)
    return (z * p) / q


def ndtr(a: float) -> float:
    """Standard normal CDF, scipy's ``ndtr`` bit for bit."""
    x = float(a) * _SQRT1_2
    z = abs(x)
    if z < _SQRT1_2:
        return 0.5 + 0.5 * _erf(x)
    y = 0.5 * _erfc(z)
    return 1.0 - y if x > 0 else y


def logsumexp(a: np.ndarray) -> float:
    """log(sum(exp(a))) over a 1-D array, scipy's ``logsumexp`` bit for bit.

    The maximum's m tied entries are taken out of the sum: with s the sum of
    exp(a - max) over the rest, divided by m when non-zero, the result is
    log1p(s) + log(m) + max.  A result that is not finite (an infinite or
    NaN maximum, or an overflow) is log(sum(exp(a))) instead, as in scipy.
    Scalars stay one-element arrays so numpy runs scipy's array loops.
    """
    a = np.asarray(a, dtype=float).ravel()
    top = a.max(keepdims=True)
    tied = a == top
    m = np.sum(tied, keepdims=True, dtype=float)
    with np.errstate(invalid="ignore"):
        s = np.exp(np.where(tied, -np.inf, a) - top).sum(keepdims=True)
        s = np.where(s == 0, s, s / m)
        with np.errstate(divide="ignore"):
            out = np.log1p(s) + np.log(m) + top
    if not np.isfinite(out[0]):
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            out = np.log(np.exp(a).sum(keepdims=True))
    return out[0]
