"""Deterministic composite adaptive Simpson quadrature over kink-split panels.

Integrands produced by the field evaluators are piecewise smooth with kinks
on a known, finite set of radii (light cones and support edges).  Every
integral in this package is computed panel by panel between consecutive
kinks; inside a panel a breadth-first adaptive Simpson refines intervals in
batch, calling the integrand on arrays of points.  Every panel end, r = 0
included, is sampled a sliver inside the panel so endpoint values are
one-sided and no integrand is ever asked for a limit at a kink or at the
origin; the quadrature domain itself is never shrunk.
Pieces are accumulated with math.fsum in interval order, so results are
bit-reproducible.
"""

from __future__ import annotations

import math
from typing import Callable, Iterable, Sequence

import numpy as np

MAX_DEPTH = 36


class QuadratureError(RuntimeError):
    """Adaptive refinement failed to reach the requested tolerance."""


def integrate_panel(
    f: Callable[[np.ndarray], np.ndarray],
    a: float,
    b: float,
    tol: float,
    fa: np.ndarray | None = None,
    fb: np.ndarray | None = None,
) -> np.ndarray:
    """Adaptive Simpson of a vectorized integrand over one smooth panel.

    f maps an array of m points to shape (m,) or (m, k) values.  fa/fb allow
    one-sided endpoint samples when a or b lies on a kink of f; f is sampled
    at a and b only for the ones not given.
    """
    if b <= a:
        raise ValueError(f"empty panel [{a}, {b}]")
    if fa is None or fb is None:
        ends = np.asarray(f(np.array([a, b])), dtype=float)
        fa = ends[0] if fa is None else fa
        fb = ends[1] if fb is None else fb
    fa = np.atleast_1d(np.asarray(fa, dtype=float))
    fb = np.atleast_1d(np.asarray(fb, dtype=float))
    k = fa.shape[0]

    mid = np.array([0.5 * (a + b)])
    fm = np.asarray(f(mid), dtype=float).reshape(1, k)[0]
    whole = (b - a) / 6.0 * (fa + 4.0 * fm + fb)

    # active intervals: (a, b, fa, fm, fb, simpson, tol, depth)
    active = [(a, b, fa, fm, fb, whole, tol, 0)]
    accepted: list[tuple[float, np.ndarray]] = []
    tol_floor = 1e-5 * tol

    while active:
        m = len(active)
        lm = np.empty(2 * m)
        for i, (ia, ib, _, _, _, _, _, _) in enumerate(active):
            im = 0.5 * (ia + ib)
            lm[2 * i] = 0.5 * (ia + im)
            lm[2 * i + 1] = 0.5 * (im + ib)
        fv = np.asarray(f(lm), dtype=float).reshape(2 * m, k)
        nxt = []
        for i, (ia, ib, ifa, ifm, ifb, iS, itol, idep) in enumerate(active):
            im = 0.5 * (ia + ib)
            flm = fv[2 * i]
            frm = fv[2 * i + 1]
            left = (im - ia) / 6.0 * (ifa + 4.0 * flm + ifm)
            right = (ib - im) / 6.0 * (ifm + 4.0 * frm + ifb)
            err = left + right - iS
            err_max = float(np.max(np.abs(err)))
            if err_max <= max(15.0 * itol, tol_floor) or idep >= MAX_DEPTH:
                if idep >= MAX_DEPTH and err_max > 1e3 * tol_floor:
                    raise QuadratureError(
                        f"adaptive Simpson stalled on [{ia}, {ib}] (err {err_max:.3e})"
                    )
                accepted.append((ia, left + right + err / 15.0))
            else:
                nxt.append((ia, im, ifa, flm, ifm, left, 0.5 * itol, idep + 1))
                nxt.append((im, ib, ifm, frm, ifb, right, 0.5 * itol, idep + 1))
        active = nxt

    accepted.sort(key=lambda piece: piece[0])
    out = np.array([math.fsum(p[1][j] for p in accepted) for j in range(k)])
    return out if k > 1 else out.reshape(())


def integrate_panels(
    f: Callable[[np.ndarray], np.ndarray],
    breakpoints: Sequence[float],
    tol: float,
) -> np.ndarray:
    """Integrate f over [breakpoints[0], breakpoints[-1]], split at interior points.

    Interior junctions mark kinks or jumps of f, and either end of the whole
    range may sit on one too (a light cone at the ball radius, or at r = 0 for
    t = 0); every panel end is therefore sampled a sliver (1e-13 or a few
    ulps) inside the panel so it is one-sided, while the integration domain
    keeps its exact measure.
    """
    pts = list(breakpoints)
    if len(pts) < 2:
        raise ValueError("need at least two breakpoints")
    n = len(pts) - 1
    results = []
    for i in range(n):
        a, b = pts[i], pts[i + 1]
        a_in = a + max(1e-13, 4.0 * math.ulp(abs(a)))
        b_in = b - max(1e-13, 4.0 * math.ulp(abs(b)))
        fa = fb = None
        if a_in < b_in:
            fa, fb = np.asarray(f(np.array([a_in, b_in])), dtype=float)
        results.append(integrate_panel(f, a, b, tol / n, fa=fa, fb=fb))
    stacked = np.stack([np.atleast_1d(r) for r in results])
    total = np.array([math.fsum(stacked[:, j]) for j in range(stacked.shape[1])])
    return total.reshape(np.shape(results[0]))


def split_points(candidates: Iterable[float], lo: float, hi: float) -> list[float]:
    """Sorted panel breakpoints: lo, hi and every candidate strictly between them."""
    inner = sorted({c for c in candidates if lo < c < hi})
    merged = [lo]
    for c in inner:
        if c - merged[-1] > 1e-12:
            merged.append(c)
    if hi - merged[-1] > 1e-12:
        merged.append(hi)
    else:
        merged[-1] = hi
    return merged
