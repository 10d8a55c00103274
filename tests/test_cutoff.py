import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.integrate import quad

from pointwave.cutoff import CHI_INTEGRAL_FULL, chi_arr, chi_integral, chi_jet, chi_prime_arr


def chi(r):
    return chi_jet(r)[0]


def test_plateaus_exact():
    for r in (0.0, 0.5, 1.0):
        assert chi_jet(r) == (1.0, 0.0, 0.0)
    for r in (2.0, 2.5, 3.0):
        assert chi_jet(r) == (0.0, 0.0, 0.0)


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
    (_, d1, d2), lo, hi = chi_jet(r), chi_jet(r - h), chi_jet(r + h)
    assert d1 == pytest.approx((hi[0] - lo[0]) / (2 * h), rel=1e-7, abs=1e-9)
    assert d2 == pytest.approx((hi[1] - lo[1]) / (2 * h), rel=1e-6, abs=1e-7)


def test_integral_plateau_values():
    assert chi_integral(0.7) == 0.7
    assert chi_integral(1.0) == 1.0
    assert chi_integral(2.0) == CHI_INTEGRAL_FULL
    assert chi_integral(17.0) == CHI_INTEGRAL_FULL
    # band symmetry forces int_1^2 chi = 1/2 exactly
    assert CHI_INTEGRAL_FULL == 1.5


@pytest.mark.parametrize("a", [1.2, 1.5, 1.83])
def test_integral_matches_quad(a):
    ref, _ = quad(chi, 1.0, a, epsabs=1e-14, epsrel=0.0, limit=200)
    assert chi_integral(a) == pytest.approx(1.0 + ref, abs=1e-15)


def test_band_integral_matches_quad_to_round_off():
    # cell ends, the band's ends at 1e-9 and random points, against an adaptive reference
    rng = np.random.default_rng(7)
    a = np.concatenate((np.linspace(1.0, 2.0, 201)[1:-1], [1.0 + 1e-9, 2.0 - 1e-9], rng.uniform(1.0, 2.0, 100)))
    ref = [1.0 + quad(chi, 1.0, x, epsabs=1e-14, epsrel=0.0, limit=200)[0] for x in a]
    assert np.max(np.abs(chi_integral(a) - ref)) <= 1e-15


def test_integral_continuous_at_band_ends():
    assert abs(chi_integral(2.0 - 1e-12) - CHI_INTEGRAL_FULL) <= 1e-15
    assert abs(chi_integral(np.nextafter(2.0, 0.0)) - CHI_INTEGRAL_FULL) <= 1e-15
    assert abs(chi_integral(1.0 + 1e-12) - (1.0 + 1e-12)) <= 1e-15


def test_vectorized_paths_agree():
    r = np.linspace(0.0, 2.6, 373)
    value, d1, _ = np.array([chi_jet(x) for x in r.tolist()]).T
    assert np.allclose(chi_arr(r), value, rtol=0, atol=1e-15)
    assert np.allclose(chi_prime_arr(r), d1, rtol=0, atol=1e-15)
