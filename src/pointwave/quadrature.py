"""Deterministic composite adaptive Simpson quadrature over kink-split panels.

Integrands produced by the field evaluators are piecewise smooth with kinks
on a known, finite set of radii (light cones and support edges).  Every
integral in this package is split into panels between consecutive kinks, and
one breadth-first adaptive Simpson refines all panels together: each level
makes one integrand call, on the quarter points of every active interval of
every panel.  An interval is accepted when its error estimate is at most
max(15 tol_i, 1e-5 tol_panel), tol_i halving on each split, or at MAX_DEPTH.
Every panel end, r = 0 included, is sampled a sliver inside the panel so
endpoint values are one-sided and no integrand is ever asked for a limit at
a kink or at the origin; the quadrature domain itself is never shrunk.  Each
panel is the math.fsum of its accepted pieces and the total the fsum of the
panels; fsum rounds exactly, so results are bit-reproducible in any order.
"""

from __future__ import annotations

import math
from typing import Callable, Iterable, Sequence

import numpy as np

MAX_DEPTH = 36


class QuadratureError(RuntimeError):
    """Adaptive refinement failed to reach the requested tolerance."""


def _sample(f: Callable[[np.ndarray], np.ndarray], x: np.ndarray, k: int = -1) -> np.ndarray:
    """f at the points x as shape (len(x), k); NaN or inf would be split forever."""
    fx = np.asarray(f(x), dtype=float).reshape(len(x), k)
    if not np.isfinite(fx).all():
        raise QuadratureError("integrand is not finite on the panel")
    return fx


def _pairs(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """x[0], y[0], x[1], y[1], ... along the first axis."""
    return np.stack([x, y], axis=1).reshape(-1, *x.shape[1:])


def integrate_panel(
    f: Callable[[np.ndarray], np.ndarray],
    a: np.ndarray,
    b: np.ndarray,
    tol: np.ndarray,
    f3: np.ndarray,
) -> np.ndarray:
    """Adaptive Simpson of a vectorized integrand over n smooth panels at once.

    f maps an array of m points to shape (m,) or (m, k) values.  a, b and tol
    have shape (n,): panel i is [a[i], b[i]] with tolerance tol[i].  f3 has
    shape (n, 3, k): f at each panel's start, midpoint and end, the ends
    one-sided where they are kinks.  Returns shape (n, k), the integral of
    each panel, with one call of f per refinement level.
    """
    n, _, k = f3.shape
    floor, pid = 1e-5 * tol, np.arange(n)
    whole = ((b - a) / 6.0)[:, None] * (f3[:, 0] + 4.0 * f3[:, 1] + f3[:, 2])
    ids, pieces = [], []
    for depth in range(MAX_DEPTH + 1):
        c = 0.5 * (a + b)
        # f at a, (a + c) / 2, c, (c + b) / 2 and b of every active interval
        f5 = np.empty((len(a), 5, k))
        f5[:, ::2] = f3
        f5[:, 1::2] = _sample(f, _pairs(0.5 * (a + c), 0.5 * (c + b)), k).reshape(-1, 2, k)
        left = ((c - a) / 6.0)[:, None] * (f5[:, 0] + 4.0 * f5[:, 1] + f5[:, 2])
        right = ((b - c) / 6.0)[:, None] * (f5[:, 2] + 4.0 * f5[:, 3] + f5[:, 4])
        err = left + right - whole
        err_max = np.abs(err).max(axis=1)
        stalled = np.flatnonzero((depth == MAX_DEPTH) & (err_max > 1e3 * floor[pid]))
        if stalled.size:
            i = stalled[0]
            msg = f"adaptive Simpson stalled on [{a[i]}, {b[i]}] (err {err_max[i]:.3e})"
            raise QuadratureError(msg)
        done = (err_max <= np.maximum(15.0 * tol, floor[pid])) | (depth == MAX_DEPTH)
        ids.append(pid[done])
        pieces.append((left + right + err / 15.0)[done])
        split = ~done
        if not split.any():
            break
        a, c, b = a[split], c[split], b[split]
        a, b, f3 = _pairs(a, c), _pairs(c, b), _pairs(f5[split, :3], f5[split, 2:])
        whole = _pairs(left[split], right[split])
        tol, pid = np.repeat(0.5 * tol[split], 2), np.repeat(pid[split], 2)

    ids, pieces = np.concatenate(ids), np.concatenate(pieces)
    return np.array([[math.fsum(col) for col in pieces[ids == i].T.tolist()] for i in range(n)])


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
    keeps its exact measure.  A panel too short for its slivers is sampled at
    its ends.  Each of the n panels gets tolerance tol / n.
    """
    pts = np.asarray(breakpoints, dtype=float)
    if pts.size < 2:
        raise ValueError("need at least two breakpoints")
    a, b = pts[:-1], pts[1:]
    if np.any(b <= a):
        raise ValueError(f"empty panel in {pts}")
    inset = np.maximum(1e-13, 4.0 * np.spacing(np.abs(pts)))
    a_in, b_in = a + inset[:-1], b - inset[1:]
    sliver = a_in < b_in
    # ends and midpoints of every panel in one call, in ascending order
    x3 = np.stack([np.where(sliver, a_in, a), 0.5 * (a + b), np.where(sliver, b_in, b)], axis=1)
    f3 = _sample(f, x3.ravel()).reshape(len(a), 3, -1)
    out = integrate_panel(f, a, b, np.full(len(a), tol / len(a)), f3)
    total = np.array([math.fsum(col) for col in out.T.tolist()])
    return total if len(total) > 1 else total.reshape(())


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
