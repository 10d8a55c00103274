import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from pointwave.nonlinearity import (
    CURVATURE_FLOOR,
    EnergyLevelError,
    EvaluationDomainError,
    NonConfiningError,
    _real_roots,
    build_truncation,
    cubic,
    from_coefficients,
    lambda_bound,
    linear,
    make_nonlinearity,
    quintic,
)


def exact_U(nl, z: float) -> Fraction:
    """U at z in rational arithmetic, from the coefficients the package evaluates."""
    acc = Fraction(0)
    for c in nl._u:
        acc = acc * Fraction(z) + Fraction(c)
    return acc


def test_eval_examples():
    assert cubic().eval(0.5) == (-0.109375, -0.375)
    assert cubic().eval(1.0) == (-0.25, 0.0)
    assert linear().eval(2.0) == (2.0, 2.0)


def test_eval_rejects_nonfinite():
    with pytest.raises(EvaluationDomainError):
        cubic().eval(1e200)
    with pytest.raises(EvaluationDomainError):
        cubic().eval(float("nan"))


@settings(max_examples=100, deadline=None)
@given(st.floats(min_value=-2.5, max_value=2.5))
def test_force_is_potential_derivative(z):
    h = 1e-5
    for nl in (cubic(), quintic(), from_coefficients([0.25, -1.0, 0.0, 2.0])):
        fd = (nl.U(z + h) - nl.U(z - h)) / (2 * h)
        assert nl.F(z) == pytest.approx(fd, rel=1e-7, abs=1e-8)


def test_catalog_lookup():
    assert make_nonlinearity("cubic").descriptor == "cubic"
    assert make_nonlinearity("poly", [0.0, -1.0, 0.0, 1.0]).F(2.0) == pytest.approx(6.0)
    with pytest.raises(ValueError):
        make_nonlinearity("septic")


def test_check_confining():
    # decided from the coefficients: F of odd degree with a positive lead
    assert cubic().confining and linear().confining and quintic().confining
    assert from_coefficients([0.0, 1.0, 0.0, 0.0]).confining  # zero leads dropped: F = z
    assert not from_coefficients([0.0, -2.0]).confining  # U = -z^2
    assert not from_coefficients([0.0, 0.0, 1.0]).confining  # U = z^3 / 3
    assert not from_coefficients([0.0]).confining


def test_lambda_bound_examples():
    assert lambda_bound(cubic(), 0.0) == pytest.approx(math.sqrt(2.0), abs=1e-9)
    assert lambda_bound(cubic(), 0.25) == pytest.approx(
        math.sqrt(1.0 + math.sqrt(2.0)), abs=1e-9
    )
    assert lambda_bound(linear(), 2.0) == pytest.approx(2.0, abs=1e-9)


def test_lambda_bound_monotone_in_energy():
    nl = cubic()
    levels = np.linspace(-0.24, 3.0, 12)
    bounds = [lambda_bound(nl, h) for h in levels]
    assert all(b >= a - 1e-12 for a, b in zip(bounds, bounds[1:]))


def test_lambda_bound_errors():
    with pytest.raises(EnergyLevelError):
        lambda_bound(cubic(), -1.0)  # below min U = -1/4
    with pytest.raises(NonConfiningError):
        lambda_bound(from_coefficients([0.0, -2.0]), 1.0)  # U = -z^2
    # the level U(1) = -1/4 of the cubic's minimum is attained: one multiple root each side
    assert lambda_bound(cubic(), -0.25) == 1.0


def test_truncation_identity_inside_window():
    lam = math.sqrt(2.0)
    tr = build_truncation(cubic(), lam)
    for z in np.linspace(-lam, lam, 101):
        assert tr.F(z) == cubic().F(z)
    assert tr.F(1.0) == 0.0


def test_truncation_linear_continuation():
    lam = math.sqrt(2.0)
    tr = build_truncation(cubic(), lam)
    # beyond the window the force is linear with the junction slope 3*2 - 1 = 5
    slope = cubic().F_prime(lam)
    assert slope == pytest.approx(5.0, rel=1e-15)
    assert tr.F(10.0) == pytest.approx(cubic().F(lam) + slope * (10.0 - lam), rel=1e-14)
    assert tr.F(10.0) - tr.F(9.0) == pytest.approx(slope, rel=1e-12)
    assert tr.F_prime(10.0) == slope


def test_truncation_is_lipschitz():
    tr = build_truncation(cubic(), 1.3)
    rng = np.random.default_rng(7)
    a = rng.uniform(-6, 6, 10_000)
    b = rng.uniform(-6, 6, 10_000)
    for x, y in zip(a, b):
        if x != y:
            slope = abs(tr.F(x) - tr.F(y)) / abs(x - y)
            assert slope <= tr.lipschitz_constant * (1 + 1e-12)


def test_truncation_continuous_at_junction():
    tr = build_truncation(cubic(), 1.3)
    for s in (1.0, -1.0):
        inner = tr.F(s * 1.3)
        outer = tr.F(s * (1.3 + 1e-12))
        assert outer == pytest.approx(inner, abs=1e-10)


def test_truncated_potential_exceeds_energy_level():
    # U(+-Lambda) >= H0 and F~ is continuous at +-Lambda with slope at least the
    # floor past it, so F~ points outward there and U~ = int F~ keeps above H0
    nl = cubic()
    H0 = 0.3
    lam = lambda_bound(nl, H0)
    tr = build_truncation(nl, lam)
    assert nl.U(lam) >= H0 and nl.U(-lam) >= H0
    for s in (1.0, -1.0):
        assert tr.F(s * np.nextafter(lam, math.inf)) == pytest.approx(nl.F(s * lam), abs=1e-12)
        assert s * tr.F(s * lam) > 0.0
    for z in np.linspace(lam + 1e-6, lam + 10, 200):
        assert tr.F_prime(z) >= CURVATURE_FLOOR and tr.F_prime(-z) >= CURVATURE_FLOOR
        assert tr.F(z) - tr.F(lam) >= CURVATURE_FLOOR * (z - lam)
        assert tr.F(-lam) - tr.F(-z) >= CURVATURE_FLOOR * (z - lam)


def test_truncation_floor_keeps_growth():
    # F' = 3 z^2 is 0.75 at the junction +-0.5, below the floor: the
    # continuation takes the floor as its slope and still grows
    flatish = from_coefficients([0.0, 0.0, 0.0, 1.0])  # F = z^3, inflection at 0
    tr = build_truncation(flatish, 0.5)
    assert tr.F_prime(5.0) == tr.F_prime(-5.0) == CURVATURE_FLOOR
    assert tr.F(5.0) - tr.F(0.5) == pytest.approx(4.5 * CURVATURE_FLOOR, rel=1e-15)
    assert tr.F(-0.5) - tr.F(-5.0) == pytest.approx(4.5 * CURVATURE_FLOOR, rel=1e-15)


def test_real_roots_simple_and_multiple():
    # (z - 1)^2 (z + 2) = z^3 - 3 z + 2: the double root once, from F'
    assert _real_roots((1.0, 0.0, -3.0, 2.0)) == [-2.0, 1.0]
    # z^2 + 1 has none; z^3 - 2 has the cube root of 2 to adjacent floats
    assert _real_roots((1.0, 0.0, 1.0)) == []
    (r,) = _real_roots((1.0, 0.0, 0.0, -2.0))
    assert abs(r - 2.0 ** (1.0 / 3.0)) <= math.ulp(r)
    # quintic F'' = 20 z^3: a triple root at 0
    assert _real_roots((20.0, 0.0, 0.0, 0.0)) == [0.0]


def test_min_slope_is_exact():
    # F = z (z - 1)^2: F' = 3 z^2 - 4 z + 1 has its minimum -1/3 at z = 2/3,
    # between grid samples; a 2001-point sample gave -0.333332
    tr = build_truncation(make_nonlinearity("poly", [0.0, 1.0, -2.0, 1.0]), 3.0)
    assert tr.min_slope == pytest.approx(-1.0 / 3.0, abs=1e-15)
    assert tr.lipschitz_constant == 40.0  # F'(-3)


def test_rest_point_follows_the_flow():
    nl = make_nonlinearity("poly", [0.0, 1.0, -2.0, 1.0])  # F = z (z - 1)^2
    # from 2 the flow falls onto the tangent root 1, where F - c does not change sign
    assert nl.rest_point(2.0, 0.0, 5.0) == 1.0
    assert nl.rest_point(0.5, 0.0, 5.0) == 0.0
    assert nl.rest_point(-1.0, 0.0, 5.0) == 0.0
    assert nl.rest_point(1.0, 0.0, 5.0) == 1.0
    # c = 0.1 < F(1/3) = 4/27, the local maximum: from 0.5 the flow falls to
    # the middle root of F - c; c = 0.2 > 4/27: it rises past 1
    q = nl.rest_point(0.5, 0.1, 5.0)
    assert 0.0 < q < 1.0 / 3.0 and abs(nl.F(q) - 0.1) <= 1e-15
    q = nl.rest_point(0.5, 0.2, 5.0)
    assert q > 1.0 and abs(nl.F(q) - 0.2) <= 1e-15
    assert math.isnan(nl.rest_point(0.5, 0.2, 1.0))  # outside the bound


@settings(max_examples=200, deadline=None)
@given(
    st.sampled_from([1, 3, 5]),
    st.lists(st.floats(-4.0, 4.0), min_size=5, max_size=5),
    st.floats(0.0625, 4.0),
    st.floats(-3.0, 3.0),
)
def test_lambda_bound_is_the_exact_outer_root(degree, lower, lead, z0):
    # random confining F (odd degree <= 5, positive lead), level H0 = U(z0)
    nl = from_coefficients(lower[:degree] + [lead])
    # a level at a critical value of U makes the sign change degenerate (a
    # multiple root, counted where U - H0 is within rounding of 0)
    assume(abs(nl.F(z0)) > 1e-9)
    H0 = nl.U(z0)
    lam = lambda_bound(nl, H0)
    assert exact_U(nl, lam) >= Fraction(H0)
    assert exact_U(nl, -lam) >= Fraction(H0)
    for z in lam * (1.0 + np.geomspace(1e-12, 10.0, 25)):
        assert exact_U(nl, z) > Fraction(H0)
        assert exact_U(nl, -z) > Fraction(H0)
    # the side that attains Lambda crosses the level just inside it
    inner = lam * (1.0 - 1e-12)
    assert min(exact_U(nl, inner), exact_U(nl, -inner)) <= Fraction(H0)
