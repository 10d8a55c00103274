"""Smooth radial cutoff used to split point data from the regular background.

The cutoff equals 1 on [0, 1], 0 on [2, inf) and interpolates with the
standard exp(-1/s) partition on the transition band.  Its antiderivative is
needed for the velocity part of the d'Alembert reduction; the band piece has
no closed form.  It is tabulated once as a quintic Hermite interpolant per
cell of 1,024, from 16-point Gauss-Legendre prefix sums and the exact
derivatives chi and chi' at the knots, to about 1e-15.

chi_jet gives (chi, chi', chi'') at one number, for the scalar origin trace
the ODE reads at every stage; chi_jet_arr gives (chi, chi') on arrays from
the same pair of exps, for the field and the audits.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np
from numpy.polynomial.legendre import leggauss

from .nonlinearity import _horner

R_INNER = 1.0
R_OUTER = 2.0
BAND_CELLS = 1024  # cells of the tabulated band antiderivative

# int_0^inf chi = 1 + 1/2, from the band symmetry chi(r) + chi(3 - r) = 1
CHI_INTEGRAL_FULL = 1.5


def chi_jet(r: float) -> tuple[float, float, float]:
    """(chi, chi', chi'') at a number r from one pair of exps; chi is exactly 1 for
    r <= 1 and exactly 0 for r >= 2, where its derivatives are 0.

    chi = a / (a + b) with a = g(2 - r), b = g(r - 1) and g(s) = exp(-1/s),
    g'(s) = g / s^2, g''(s) = g (1 - 2 s) / s^4.
    """
    if r <= R_INNER:
        return 1.0, 0.0, 0.0
    if r >= R_OUTER:
        return 0.0, 0.0, 0.0
    sa, sb = R_OUTER - r, r - R_INNER
    a, b = math.exp(-1.0 / sa), math.exp(-1.0 / sb)
    ap, bp = -(a / (sa * sa)), b / (sb * sb)
    app, bpp = a * (1.0 - 2.0 * sa) / sa**4, b * (1.0 - 2.0 * sb) / sb**4
    s = a + b
    d1 = ap * b - a * bp
    return a / s, d1 / s**2, ((app * b - a * bpp) * s - 2.0 * d1 * (ap + bp)) / s**3


@lru_cache(maxsize=1)
def _band_antiderivative() -> np.ndarray:
    """Quintic Hermite coefficients of I(a) = int_1^a chi per band cell, highest degree
    first, in x = (a - knot) / h: I from Gauss-Legendre prefix sums, I' = chi, I'' = chi'."""
    h = (R_OUTER - R_INNER) / BAND_CELLS
    knots = np.linspace(R_INNER, R_OUTER, BAND_CELLS + 1)
    gx, gw = leggauss(16)
    # one Gauss column at a time: on all 16,384 nodes at once the jet's band
    # temporaries would raise a run's peak RSS by about 0.8 MiB
    at_nodes = np.column_stack([chi_jet_arr(knots[:-1] + 0.5 * h * (1.0 + x))[0] for x in gx])
    value = np.concatenate(([0.0], np.cumsum(0.5 * h * (at_nodes @ gw))))
    chi, chi_prime = chi_jet_arr(knots)
    d1, d2 = h * chi, h * h * chi_prime
    # what the Taylor part p(0) + p'(0) x + p''(0) x^2 / 2 misses in p, p', p'' at x = 1
    miss = np.array([np.diff(value) - d1[:-1] - 0.5 * d2[:-1], np.diff(d1) - d2[:-1], np.diff(d2)])
    top = np.array([[6.0, -3.0, 0.5], [-15.0, 7.0, -1.0], [10.0, -4.0, 0.5]]) @ miss
    return np.vstack((top, 0.5 * d2[:-1], d1[:-1], value[:-1]))


def chi_jet_arr(r: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(chi, chi') on an array from one pair of exps per band point, matching
    chi_jet bit for bit on the plateaus."""
    r = np.asarray(r, dtype=float)
    value, d1 = np.where(r <= R_INNER, 1.0, 0.0), np.zeros_like(r)
    band = (r > R_INNER) & (r < R_OUTER)
    if np.any(band):
        sa, sb = R_OUTER - r[band], r[band] - R_INNER
        a, b = np.exp(-1.0 / sa), np.exp(-1.0 / sb)
        s = a + b
        value[band] = a / s
        ap, bp = -a / (sa * sa), b / (sb * sb)
        d1[band] = (ap * b - a * bp) / s**2
    return value, d1


def chi_integral(a: np.ndarray) -> np.ndarray:
    """Antiderivative int_0^a chi(s) ds, exact off the transition band."""
    a = np.asarray(a, dtype=float)
    out = np.where(a >= R_OUTER, CHI_INTEGRAL_FULL, a)
    band = (a > R_INNER) & (a < R_OUTER)
    if np.any(band):
        x = (a[band] - R_INNER) * BAND_CELLS
        i = np.minimum(x.astype(int), BAND_CELLS - 1)
        out[band] = 1.0 + _horner(_band_antiderivative()[:, i], x - i)
    return out
