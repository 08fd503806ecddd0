"""``gammaln``, the one special function the package ports from scipy 1.17.

It repeats the cephes ``lgam`` routine scipy evaluates, step for step, on
Python floats with ``math``'s libm ``exp`` and ``log``, as the compiled
routine does, so it returns scipy's bits and the Student normalizer keeps
them.  Porting it keeps scipy, whose import costs more than building a model,
off every command's path.
"""

from __future__ import annotations

import math


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
