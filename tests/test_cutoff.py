import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.integrate import quad

from pointwave.cutoff import (
    CHI_INTEGRAL_FULL,
    chi,
    chi_arr,
    chi_integral,
    chi_prime,
    chi_prime_arr,
    chi_second,
)


def test_plateaus_exact():
    assert chi(0.0) == 1.0
    assert chi(0.5) == 1.0
    assert chi(1.0) == 1.0
    assert chi(2.0) == 0.0
    assert chi(2.5) == 0.0
    assert chi_prime(0.5) == 0.0
    assert chi_prime(3.0) == 0.0


def test_midpoint():
    assert chi(1.5) == pytest.approx(0.5, abs=1e-15)


@settings(max_examples=200, deadline=None)
@given(st.floats(min_value=1.0001, max_value=1.9999))
def test_band_symmetry(r):
    assert chi(r) + chi(3.0 - r) == pytest.approx(1.0, abs=1e-14)


def test_monotone_nonincreasing():
    grid = np.linspace(0.0, 2.5, 501)
    vals = [chi(r) for r in grid]
    assert all(b <= a + 1e-15 for a, b in zip(vals, vals[1:]))


@pytest.mark.parametrize("r", [1.1, 1.3, 1.5, 1.7, 1.9])
def test_derivatives_match_finite_differences(r):
    h = 1e-6
    fd1 = (chi(r + h) - chi(r - h)) / (2 * h)
    assert chi_prime(r) == pytest.approx(fd1, rel=1e-7, abs=1e-9)
    fd2 = (chi_prime(r + h) - chi_prime(r - h)) / (2 * h)
    assert chi_second(r) == pytest.approx(fd2, rel=1e-6, abs=1e-7)


def test_integral_plateau_values():
    assert chi_integral(0.7) == 0.7
    assert chi_integral(1.0) == 1.0
    assert chi_integral(2.0) == CHI_INTEGRAL_FULL
    assert chi_integral(17.0) == CHI_INTEGRAL_FULL
    # band symmetry forces int_1^2 chi = 1/2 exactly
    assert CHI_INTEGRAL_FULL == 1.5


@pytest.mark.parametrize("a", [1.2, 1.5, 1.83])
def test_integral_matches_quad(a):
    ref, _ = quad(chi, 0.0, a, epsabs=1e-13, limit=200)
    assert chi_integral(a) == pytest.approx(ref, abs=5e-12)


def test_vectorized_paths_agree():
    r = np.linspace(0.0, 2.6, 373)
    assert np.allclose(chi_arr(r), [chi(x) for x in r], rtol=0, atol=1e-15)
    assert np.allclose(chi_prime_arr(r), [chi_prime(x) for x in r], rtol=0, atol=1e-15)
