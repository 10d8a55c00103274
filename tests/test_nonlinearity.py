import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from pointwave.nonlinearity import (
    EnergyLevelError,
    EvaluationDomainError,
    NonConfiningError,
    Nonlinearity,
    build_truncation,
    check_confining,
    cubic,
    from_coefficients,
    lambda_bound,
    linear,
    make_nonlinearity,
    quintic,
)


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
    assert check_confining(cubic())
    assert check_confining(linear())
    inverted = Nonlinearity(U=lambda z: -z * z, F=lambda z: -2 * z, F_prime=lambda z: -2.0)
    assert not check_confining(inverted)


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
    inverted = Nonlinearity(U=lambda z: -z * z, F=lambda z: -2 * z, F_prime=lambda z: -2.0)
    with pytest.raises(NonConfiningError):
        lambda_bound(inverted, 1.0)


def test_truncation_identity_inside_window():
    lam = math.sqrt(2.0)
    tr = build_truncation(cubic(), lam)
    for z in np.linspace(-lam, lam, 101):
        assert tr.F(z) == cubic().F(z)
        assert tr.U(z) == cubic().U(z)
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
    nl = cubic()
    H0 = 0.3
    lam = lambda_bound(nl, H0)
    tr = build_truncation(nl, lam)
    for z in np.linspace(lam + 1e-6, lam + 10, 200):
        assert tr.U(z) > H0
        assert tr.U(-z) > H0


def test_truncation_floor_keeps_growth():
    # force with zero curvature at the junction still gets a growing continuation
    flatish = from_coefficients([0.0, 0.0, 0.0, 1.0])  # F = z^3, inflection at 0
    tr = build_truncation(flatish, 1.0, curvature_floor=1.0)
    assert tr.U(5.0) > tr.U(1.0)
    assert tr.F_prime(5.0) >= 1.0
