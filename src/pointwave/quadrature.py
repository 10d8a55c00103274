"""One adaptive Gauss-Legendre panel quadrature for every radial integral.

The integrands here are smooth between known points (data kinks, light cones,
the cones r = t - t_i of the history nodes) and mostly polynomial between
them.  integrate_panel refines n panels together, level by level: each active
panel gets the 8-point rule, and its difference from the 6-point rule is the
error estimate, so a polynomial of degree <= 11 is accepted whole and exact.
A panel passes when the estimate is within its share of tol max(1, S), in
proportion to its length, with S the size of the integrals at the first
level; the others are halved.  A level is evaluated in blocks of PANEL_BLOCK
panels, which bounds the integrand's temporaries.  Gauss nodes are interior,
so no panel end, r = 0 included, is ever sampled.  A non-finite integrand
raises QuadratureError, and so does a stall: more than MAX_ACTIVE failing
panels (a tol below round-off) or a panel still failing after MAX_LEVEL
halvings (a jump inside it).
"""

from __future__ import annotations

from typing import Callable, Iterable, Sequence

import numpy as np

Integrand = Callable[[np.ndarray], np.ndarray]

# panels per integrand call: zeta_at's quintic temporaries (about twenty
# arrays) on 3,584 points peak near 0.6 MiB (tracemalloc)
PANEL_BLOCK = 256
# about 20 times the widest level of the shipped audits at tol 1e-14 (1,527)
MAX_ACTIVE = 1 << 15
MAX_LEVEL = 40

_X8, _W8 = np.polynomial.legendre.leggauss(8)
_X6, _W6 = np.polynomial.legendre.leggauss(6)
# both rules' nodes on [-1, 1]; row 0 weighs the 8-point value, row 1 its
# difference from the 6-point value
_X = np.concatenate([_X8, _X6])
_W = np.stack([np.append(_W8, np.zeros(6)), np.append(_W8, -_W6)])


class QuadratureError(RuntimeError):
    """Adaptive refinement failed to reach the requested tolerance."""


def _sample(f: Integrand, x: np.ndarray) -> np.ndarray:
    """f at the points x as shape (len(x), k); NaN or inf would be split forever."""
    fx = np.asarray(f(x), dtype=float).reshape(len(x), -1)
    if not np.isfinite(fx).all():
        raise QuadratureError("integrand is not finite on the panel")
    return fx


def _gauss(f: Integrand, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """8-point values and their differences from the 6-point ones, shape (m, 2, k)."""
    mid, half = 0.5 * (a + b), 0.5 * (b - a)
    out = []
    for i in range(0, len(a), PANEL_BLOCK):
        block = slice(i, i + PANEL_BLOCK)
        x = mid[block, None] + half[block, None] * _X
        fx = _sample(f, x.ravel()).reshape(*x.shape, -1)
        out.append((_W @ fx) * half[block, None, None])
    return np.concatenate(out)


def integrate_panel(f: Integrand, a: np.ndarray, b: np.ndarray, tol: float) -> np.ndarray:
    """Adaptive Gauss-Legendre integrals of a vectorized f over n panels at once.

    f maps an array of m points to shape (m,) or (m, k) values; panel i is
    [a[i], b[i]].  tol bounds the error of the sum over all panels relative
    to max(1, S), S the sum of |8-point value| over the panels and components
    of the first level, so large data never asks for round-off and small data
    keeps an absolute bound.  The bound is shared by panel length, so every
    partial sum is within it too.  Returns shape (n, k), the integral of
    each panel.
    """
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    n, length = len(a), float(np.sum(b - a))
    pid, ids, values = np.arange(n), [], []
    for level in range(MAX_LEVEL + 1):
        est = _gauss(f, a, b)
        if level == 0:
            density = tol * max(1.0, np.abs(est[:, 0]).sum()) / length
        done = np.abs(est[:, 1]).max(axis=1) <= density * (b - a)
        ids.append(pid[done])
        values.append(est[done, 0])
        if done.all():
            break
        a, b, pid = a[~done], b[~done], pid[~done]
        if level == MAX_LEVEL or 2 * len(a) > MAX_ACTIVE:
            raise QuadratureError(
                f"quadrature stalled at tol {tol:.3g}: {len(a)} panels in "
                f"[{a[0]}, {b[-1]}] above their share after {level + 1} levels"
            )
        c = 0.5 * (a + b)
        a, b, pid = np.stack([a, c], 1).ravel(), np.stack([c, b], 1).ravel(), np.repeat(pid, 2)
    out = np.zeros((n, values[0].shape[1]))
    np.add.at(out, np.concatenate(ids), np.concatenate(values))
    return out


def integrate_panels(f: Integrand, breakpoints: Sequence[float], tol: float) -> np.ndarray:
    """Integrate f over [breakpoints[0], breakpoints[-1]] to within tol max(1, size).

    The interior breakpoints mark kinks or jumps of f.  A number for a
    scalar f, else an array of its k components.
    """
    pts = np.asarray(breakpoints, dtype=float)
    if pts.size < 2:
        raise ValueError("need at least two breakpoints")
    if np.any(pts[1:] <= pts[:-1]):
        raise ValueError(f"empty panel in {pts}")
    total = integrate_panel(f, pts[:-1], pts[1:], tol).sum(axis=0)
    return total if len(total) > 1 else total.reshape(())


def split_points(candidates: Iterable[float], lo: float, hi: float) -> np.ndarray:
    """Sorted panel breakpoints: lo, hi and every candidate strictly between them."""
    c = np.sort(np.fromiter(candidates, dtype=float))
    c = c[(lo < c) & (c < hi)]
    return np.concatenate([[lo], c[np.diff(c, prepend=lo) > 0], [hi]])
