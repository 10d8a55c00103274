import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pointwave.quadrature import QuadratureError, integrate_panels


def smooth(x):
    return np.exp(np.sin(3.0 * x)) / (1.0 + x * x)


def pair(x):
    return np.stack([np.cos(5.0 * x), x * x * np.exp(-x)], axis=-1)


def kink(x):
    return np.abs(x - 0.7) * np.cos(x)


# an integrand that jumps at a panel end
def jump(x):
    return np.where(x < 1.0, np.sin(x), 2.0 + x)


@pytest.mark.parametrize(
    "f, pts, tol",
    [
        (smooth, [0.0, 0.4, 1.3, 2.0], 1e-12),
        (pair, [0.0, 1.0, 2.5], 1e-12),
        (kink, [0.0, 0.7, 2.0], 1e-12),
        # the middle panel is too short for its slivers; its ends are sampled exactly
        (jump, [0.0, 1.0, 1.0 + 1e-13, 3.0], 1e-11),
    ],
    ids=["smooth_k1", "k2", "kink_at_breakpoint", "short_panel"],
)
def test_bit_identical_to_scalar_simpson(f, pts, tol, scalar_quadrature):
    got = np.atleast_1d(integrate_panels(f, pts, tol)).tolist()
    want = scalar_quadrature(f, pts, tol)
    assert [x.hex() for x in got] == [x.hex() for x in want]


def test_result_shapes():
    assert np.shape(integrate_panels(smooth, [0.0, 1.0], 1e-10)) == ()
    assert np.shape(integrate_panels(pair, [0.0, 1.0], 1e-10)) == (2,)


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


@st.composite
def piecewise_cubics(draw):
    n = draw(st.integers(1, 5))
    widths = draw(st.lists(st.floats(0.05, 2.0), min_size=n, max_size=n))
    edges = np.concatenate([[draw(st.floats(-3.0, 3.0))], widths]).cumsum()
    # Chebyshev coefficients on each piece keep the evaluation well conditioned
    coef = st.lists(st.integers(-40, 40).map(lambda c: c / 8.0), min_size=4, max_size=4)
    polys = [np.polynomial.Chebyshev(draw(coef), domain=edges[i : i + 2]) for i in range(n)]
    return edges, polys


@settings(max_examples=60, deadline=None)
@given(piecewise_cubics())
def test_piecewise_cubic_is_exact(case):
    # Simpson is exact for cubics; what remains is rounding and the one-sided
    # end samples, taken 1e-13 inside each panel here (|x| < 128), which move
    # a panel accepted whole by 7/90 h (p'(a) - p'(b)) 1e-13 to first order
    edges, polys = case

    def f(x):
        piece = np.clip(np.searchsorted(edges, x, side="right") - 1, 0, len(polys) - 1)
        return np.choose(piece, [p(x) for p in polys])

    exact, mass, sliver = [], [], []
    for a, b, p in zip(edges[:-1], edges[1:], polys):
        P, dp = p.integ(), p.deriv()
        exact.append(P(b) - P(a))
        cuts = [a, *sorted(r.real for r in p.roots() if abs(r.imag) < 1e-12 and a < r.real < b), b]
        mass.extend(abs(P(y) - P(x)) for x, y in zip(cuts[:-1], cuts[1:]))
        sliver.append((b - a) * (abs(dp(a)) + abs(dp(b))) * 1e-13 / 12.0)
    got = float(integrate_panels(f, list(edges), 1e-10))
    assert abs(got - math.fsum(exact)) <= 1e-14 * math.fsum(mass) + math.fsum(sliver)


def test_jump_inside_a_panel_stalls():
    with pytest.raises(QuadratureError, match="stalled"):
        integrate_panels(lambda x: np.where(x < 1.0 / 3.0, 0.0, 1.0), [0.0, 1.0], 1e-12)


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
