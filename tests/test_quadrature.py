import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from pointwave.quadrature import (
    MAX_ACTIVE,
    PANEL_BLOCK,
    QuadratureError,
    integrate_panel,
    integrate_panels,
)

POINTS_PER_PANEL = 14  # the 8-point rule and the 6-point estimate


def smooth(x):
    return np.exp(np.sin(3.0 * x)) / (1.0 + x * x)


def pair(x):
    return np.stack([np.cos(5.0 * x), x * x * np.exp(-x)], axis=-1)


def kink(x):
    return np.abs(x - 0.7) * np.cos(x)


def test_result_shapes():
    assert np.shape(integrate_panels(smooth, [0.0, 1.0], 1e-10)) == ()
    assert np.shape(integrate_panels(pair, [0.0, 1.0], 1e-10)) == (2,)
    assert np.shape(integrate_panel(pair, np.arange(3.0), np.arange(1.0, 4.0), 1e-10)) == (3, 2)


@pytest.mark.parametrize(
    "f, lo, hi, exact",
    [
        (np.sin, 0.0, math.pi, 2.0),
        (np.exp, 0.0, 1.0, math.e - 1.0),
        (np.exp, -2.0, 3.0, math.exp(3) - math.exp(-2)),
    ],
    ids=["sin", "exp", "exp_wide"],
)
def test_closed_forms(f, lo, hi, exact):
    tol = 1e-12
    assert abs(float(integrate_panels(f, [lo, hi], tol)) - exact) <= tol


@pytest.mark.parametrize(
    "f, pts",
    [
        (smooth, [0.0, 0.4, 1.3, 2.0]),
        (lambda x: pair(x)[:, 0], [0.0, 1.0, 2.5]),
        (lambda x: pair(x)[:, 1], [0.0, 1.0, 2.5]),
        (kink, [0.0, 0.7, 2.0]),
    ],
    ids=["smooth", "cos", "x2exp", "kink_at_breakpoint"],
)
def test_matches_scipy_quad(f, pts):
    tol = 1e-12
    refs = [
        quad(lambda x: float(f(np.array([x]))[0]), a, b, epsabs=1e-13, epsrel=0.0, limit=200)
        for a, b in zip(pts[:-1], pts[1:])
    ]
    want, err = math.fsum(v for v, _ in refs), math.fsum(e for _, e in refs)
    assert abs(float(integrate_panels(f, pts, tol)) - want) <= tol + err


def test_partial_sums_within_tol():
    # the share of tol follows panel length, so every prefix of the per-panel
    # integrals is within tol as well, however many panels there are
    edges = np.cumsum(np.r_[0.0, np.linspace(1e-3, 2e-2, 1000)])
    pieces = integrate_panel(np.cos, edges[:-1], edges[1:], 1e-12)[:, 0]
    assert np.max(np.abs(np.cumsum(pieces) - np.sin(edges[1:]))) <= 1e-12


def test_tol_is_relative_to_large_integrals():
    # past size 1, tol bounds the error relative to the first level's size: a
    # power-of-two scale multiplies every estimate exactly, so the refinement
    # is the same and the result is scaled exactly, where an absolute 1e-13
    # would be far below round-off
    runs = []
    for c in (2.0, 2.0**60):
        points = []

        def f(x, c=c, points=points):
            points.append(x.size)
            return c * smooth(x)

        runs.append((float(integrate_panels(f, [0.0, 1.0, 2.0], 1e-13)), sum(points)))
    (small, n_small), (big, n_big) = runs
    assert small > 1.0
    assert n_big == n_small
    assert big == small * 2.0**59


def test_calls_are_blocks_of_panels():
    sizes = []

    def counted(x):
        sizes.append(x.size)
        return np.cos(x)

    n = 2 * PANEL_BLOCK + 3
    integrate_panel(counted, np.arange(n, dtype=float), np.arange(1.0, n + 1), 1e-6)
    assert max(sizes) == PANEL_BLOCK * POINTS_PER_PANEL
    assert len(sizes) >= math.ceil(n / PANEL_BLOCK)


@st.composite
def piecewise_polynomials(draw):
    n = draw(st.integers(1, 5))
    widths = draw(st.lists(st.floats(0.05, 2.0), min_size=n, max_size=n))
    edges = np.concatenate([[draw(st.floats(-3.0, 3.0))], widths]).cumsum()
    # Chebyshev coefficients on each piece keep the evaluation well conditioned
    coef = st.lists(st.integers(-40, 40).map(lambda c: c / 8.0), min_size=1, max_size=12)
    polys = [np.polynomial.Chebyshev(draw(coef), domain=edges[i : i + 2]) for i in range(n)]
    return edges, polys


@settings(max_examples=60, deadline=None)
@given(piecewise_polynomials())
def test_piecewise_polynomial_is_exact_without_split(case):
    # the 6-point rule is exact to degree 11, so the estimate is round-off,
    # every panel is accepted whole and the 8-point value is exact; the scale
    # covers the values and the rounding of the points, |x| |p'| ulps
    edges, polys = case
    points = []

    def f(x):
        points.append(x.size)
        piece = np.clip(np.searchsorted(edges, x, side="right") - 1, 0, len(polys) - 1)
        return np.choose(piece, [p(x) for p in polys])

    exact, scale = [], []
    for a, b, p in zip(edges[:-1], edges[1:], polys):
        P = p.integ()
        exact.append(P(b) - P(a))
        x = np.linspace(a, b, 201)
        scale.append((b - a) * np.max(np.abs(p(x)) + np.abs(x * p.deriv()(x))))
    got = float(integrate_panels(f, list(edges), 1e-10))
    assert sum(points) == POINTS_PER_PANEL * len(polys)
    assert abs(got - math.fsum(exact)) <= 1e-14 * math.fsum(scale)


def test_jump_inside_a_panel_stalls():
    with pytest.raises(QuadratureError, match="stalled"):
        integrate_panels(lambda x: np.where(x < 1.0 / 3.0, 0.0, 1.0), [0.0, 1.0], 1e-12)


@pytest.mark.parametrize("tol", [1e-20, 1e-40, 1e-300])
def test_unreachable_tolerance_stalls_with_bounded_work(tol):
    # below round-off every panel fails its share at every level; the active
    # panel count is capped, so the error comes after a few bounded levels
    points = []

    def f(x):
        points.append(x.size)
        return smooth(x)

    with pytest.raises(QuadratureError, match=f"stalled at tol {tol:.3g}"):
        integrate_panels(f, [0.0, 1.0, 2.0], tol)
    assert max(points) <= PANEL_BLOCK * POINTS_PER_PANEL
    assert sum(points) <= 2 * MAX_ACTIVE * POINTS_PER_PANEL


def test_non_finite_integrand_refused():
    # NaN or inf would never pass the accept test: every level would split them
    for bad in (np.nan, np.inf):
        with pytest.raises(QuadratureError, match="not finite"):
            integrate_panels(lambda x: np.where(x > 0.5, bad, x), [0.0, 1.0], 1e-12)


@pytest.mark.parametrize(
    "pts",
    [[], [1.0], [0.0, 1.0, 1.0, 2.0], [1.0, 0.0]],
    ids=["none", "one", "repeated", "reversed"],
)
def test_degenerate_breakpoints(pts):
    with pytest.raises(ValueError):
        integrate_panels(np.sin, pts, 1e-12)
