"""Smooth radial cutoff used to split point data from the regular background.

The cutoff equals 1 on [0, 1], 0 on [2, inf) and interpolates with the
standard exp(-1/s) partition on the transition band.  Its antiderivative is
needed for the velocity part of the d'Alembert reduction; the band piece has
no closed form and is tabulated once to ~1e-13 accuracy.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np
from numpy.polynomial.legendre import leggauss
from scipy.interpolate import CubicSpline

R_INNER = 1.0
R_OUTER = 2.0

# int_0^inf chi = 1 + 1/2, from the band symmetry chi(r) + chi(3 - r) = 1
CHI_INTEGRAL_FULL = 1.5


def _g(s: float) -> float:
    return math.exp(-1.0 / s) if s > 0.0 else 0.0


def _g1(s: float) -> float:
    return math.exp(-1.0 / s) / (s * s) if s > 0.0 else 0.0


def _g2(s: float) -> float:
    if s <= 0.0:
        return 0.0
    return math.exp(-1.0 / s) * (1.0 - 2.0 * s) / s**4


def chi(r: float) -> float:
    """Cutoff value; exactly 1 for r <= 1 and exactly 0 for r >= 2."""
    if r <= R_INNER:
        return 1.0
    if r >= R_OUTER:
        return 0.0
    a = _g(R_OUTER - r)
    b = _g(r - R_INNER)
    return a / (a + b)


def chi_prime(r: float) -> float:
    if r <= R_INNER or r >= R_OUTER:
        return 0.0
    a = _g(R_OUTER - r)
    b = _g(r - R_INNER)
    ap = -_g1(R_OUTER - r)
    bp = _g1(r - R_INNER)
    return (ap * b - a * bp) / (a + b) ** 2


def chi_second(r: float) -> float:
    if r <= R_INNER or r >= R_OUTER:
        return 0.0
    a = _g(R_OUTER - r)
    b = _g(r - R_INNER)
    ap = -_g1(R_OUTER - r)
    bp = _g1(r - R_INNER)
    app = _g2(R_OUTER - r)
    bpp = _g2(r - R_INNER)
    s = a + b
    return ((app * b - a * bpp) * s - 2.0 * (ap * b - a * bp) * (ap + bp)) / s**3


@lru_cache(maxsize=1)
def _band_antiderivative() -> CubicSpline:
    # cumulative int_1^x chi on the band, composite Gauss-Legendre per cell
    knots = np.linspace(R_INNER, R_OUTER, 1025)
    gx, gw = leggauss(16)
    cum = np.empty_like(knots)
    cum[0] = 0.0
    for i in range(len(knots) - 1):
        a, b = knots[i], knots[i + 1]
        mid = 0.5 * (a + b) + 0.5 * (b - a) * gx
        cum[i + 1] = cum[i] + 0.5 * (b - a) * float(
            np.dot(gw, [chi(x) for x in mid])
        )
    return CubicSpline(knots, cum)


def chi_arr(r: np.ndarray) -> np.ndarray:
    """Vectorized cutoff, matching chi() bit for bit on the plateaus."""
    r = np.asarray(r, dtype=float)
    out = np.where(r <= R_INNER, 1.0, 0.0)
    band = (r > R_INNER) & (r < R_OUTER)
    if np.any(band):
        rb = r[band]
        a = np.exp(-1.0 / (R_OUTER - rb))
        b = np.exp(-1.0 / (rb - R_INNER))
        out[band] = a / (a + b)
    return out


def chi_prime_arr(r: np.ndarray) -> np.ndarray:
    r = np.asarray(r, dtype=float)
    out = np.zeros_like(r)
    band = (r > R_INNER) & (r < R_OUTER)
    if np.any(band):
        rb = r[band]
        sa = R_OUTER - rb
        sb = rb - R_INNER
        a = np.exp(-1.0 / sa)
        b = np.exp(-1.0 / sb)
        ap = -a / (sa * sa)
        bp = b / (sb * sb)
        out[band] = (ap * b - a * bp) / (a + b) ** 2
    return out


def chi_integral(a: np.ndarray) -> np.ndarray:
    """Antiderivative int_0^a chi(s) ds, exact off the transition band."""
    a = np.asarray(a, dtype=float)
    out = np.where(a >= R_OUTER, CHI_INTEGRAL_FULL, a)
    band = (a > R_INNER) & (a < R_OUTER)
    if np.any(band):
        out[band] = 1.0 + _band_antiderivative()(a[band])
    return out
