import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.integrate import quad

import pointwave as pw
from pointwave.cutoff import chi, chi_prime, chi_second
from pointwave.initial_data import (
    FOUR_PI,
    CallableBump,
    CompatibilityError,
    PolynomialBump,
    RadialProfile,
    SplineBump,
    UnsupportedNormError,
    ZERO_PROFILE,
)


@pytest.fixture
def nl():
    return pw.cubic()


class TestPolynomialBump:
    bump = PolynomialBump(amplitude=-0.375, support_radius=1.0)

    def test_support(self):
        assert self.bump.value(0.0) == -0.375
        assert self.bump.value(1.0) == 0.0
        assert self.bump.value(2.3) == 0.0
        assert self.bump.d1(0.0) == 0.0

    @settings(max_examples=60, deadline=None)
    @given(st.floats(min_value=0.01, max_value=0.95))
    def test_derivatives(self, r):
        h = 1e-6
        fd1 = (self.bump.value(r + h) - self.bump.value(r - h)) / (2 * h)
        assert self.bump.d1(r) == pytest.approx(fd1, rel=1e-6, abs=1e-9)
        fd2 = (self.bump.d1(r + h) - self.bump.d1(r - h)) / (2 * h)
        assert self.bump.d2(r) == pytest.approx(fd2, rel=1e-6, abs=1e-8)

    @pytest.mark.parametrize("a", [0.3, 0.8, 1.0, 2.0])
    def test_integral(self, a):
        ref, _ = quad(lambda s: s * self.bump.value(s), 0.0, min(a, 1.0), epsabs=1e-14)
        assert self.bump.integral_r(a) == pytest.approx(ref, abs=1e-13)

    def test_vector_paths(self):
        r = np.linspace(0.0, 1.5, 97)
        assert np.allclose(self.bump.value_arr(r), [self.bump.value(x) for x in r], atol=1e-16)
        assert np.allclose(self.bump.d1_arr(r), [self.bump.d1(x) for x in r], atol=1e-16)


class TestSplineBump:
    def make(self):
        r = np.linspace(0.0, 1.0, 21)
        v = (1.0 - r**2) ** 3 * 0.5
        v[-1] = 0.0
        return SplineBump.from_points(r, v)

    def test_roundtrip_file(self, tmp_path):
        r = np.linspace(0.0, 1.0, 21)
        v = (1.0 - r**2) ** 3 * 0.5
        v[-1] = 0.0
        path = tmp_path / "profile.txt"
        np.savetxt(path, np.column_stack([r, v]))
        bump = SplineBump.from_file(path)
        assert bump.value(0.0) == pytest.approx(0.5, abs=1e-12)
        assert bump.value(1.2) == 0.0

    def test_validation(self):
        with pytest.raises(ValueError):
            SplineBump.from_points([0.0, 0.5, 0.5, 1.0], [1, 1, 1, 0])  # not increasing
        with pytest.raises(ValueError):
            SplineBump.from_points([0.1, 0.5, 0.8, 1.0], [1, 1, 1, 0])  # misses r=0
        with pytest.raises(ValueError):
            SplineBump.from_points([0.0, 0.5, 0.8, 1.0], [1, 1, 1, 0.3])  # nonzero edge

    def test_flat_at_origin(self):
        assert self.make().d1(0.0) == pytest.approx(0.0, abs=1e-13)

    def test_integral_matches_quad(self):
        # one array call: inside the first piece, on a knot, mid-piece, at and past the edge
        bump = self.make()
        a = np.array([0.0, 0.03, 0.5, 0.77, 1.0, 1.4])
        ref = [
            quad(lambda s: s * bump.value(s), 0.0, min(x, 1.0), epsabs=1e-13, limit=200)[0]
            for x in a
        ]
        assert bump.integral_r(a) == pytest.approx(ref, abs=1e-10)
        assert bump.integral_r(0.77) == pytest.approx(ref[3], abs=1e-10)


def test_callable_bump_numeric_integral():
    bump = CallableBump(
        value_fn=lambda r: chi(r),
        d1_fn=lambda r: chi_prime(r),
        d2_fn=lambda r: chi_second(r),
        support_radius=2.0,
    )
    ref, _ = quad(lambda s: s * chi(s), 0.0, 1.7, epsabs=1e-13, limit=200)
    assert bump.integral_r(1.7) == pytest.approx(ref, abs=1e-11)


def test_radial_profile_tail_vanishes_inside():
    prof = RadialProfile(bump=ZERO_PROFILE.bump, tail=2.0)
    assert prof.value(0.5) == 0.0
    assert prof.value_at_origin == 0.0
    # beyond the band the tail is exactly the Coulomb kernel
    assert prof.value(3.0) == pytest.approx(2.0 / (FOUR_PI * 3.0), rel=1e-15)


def test_make_initial_state_compatibility(nl):
    good = pw.make_initial_state(
        RadialProfile(bump=PolynomialBump(nl.F(0.5), 1.0)),
        ZERO_PROFILE,
        0.5,
        0.0,
        nl,
    )
    assert good.support_radius == 2.0

    # F(1) = 0, so empty regular data is compatible with zeta0 = 1
    ok = pw.make_initial_state(ZERO_PROFILE, ZERO_PROFILE, 1.0, 0.0, nl)
    assert ok.zeta0 == 1.0

    with pytest.raises(CompatibilityError):
        pw.make_initial_state(ZERO_PROFILE, ZERO_PROFILE, 0.5, 0.0, nl)


def test_stationary_data_is_pure_coulomb(nl):
    state = pw.stationary_data(1.0, nl)
    for r in (0.01, 0.3, 1.0, 1.5, 2.7, 10.0):
        assert state.psi0(r) == pytest.approx(1.0 / (FOUR_PI * r), rel=1e-14)
        assert state.pi0(r) == 0.0

    zero = pw.stationary_data(0.0, nl)
    assert zero.psi0(0.5) == 0.0

    with pytest.raises(ValueError):
        pw.stationary_data(0.5, nl)


def test_total_data_assembly(nl):
    bump = PolynomialBump(nl.F(0.3), 1.0)
    state = pw.make_initial_state(
        RadialProfile(bump=bump), RadialProfile(bump=PolynomialBump(0.2, 0.7)), 0.3, 0.1, nl
    )
    for r in (0.2, 0.9, 1.4, 1.9):
        expected = 0.3 * chi(r) / (FOUR_PI * r) + bump.value(r)
        assert state.psi0(r) == pytest.approx(expected, rel=1e-15)
    # compact support: everything dies past max(2, rho)
    for r in (2.05, 3.0, 8.0):
        assert state.psi0(r) == 0.0
        assert state.pi0(r) == 0.0


def _tail_gradient_energy():
    """Independent oracle: |grad w|^2 with w = (1 - chi) G, by scipy quadrature."""

    def wp(r):
        g = 1.0 / (FOUR_PI * r)
        g1 = -1.0 / (FOUR_PI * r * r)
        return -chi_prime(r) * g + (1.0 - chi(r)) * g1

    grad2, _ = quad(lambda r: FOUR_PI * r * r * wp(r) ** 2, 1.0, 2.0, epsabs=1e-13, limit=400)
    return grad2 + 1.0 / (8.0 * math.pi)


def _tail_laplacian_energy():
    def wp(r):
        g = 1.0 / (FOUR_PI * r)
        g1 = -1.0 / (FOUR_PI * r * r)
        return -chi_prime(r) * g + (1.0 - chi(r)) * g1

    def lapw(r):
        g = 1.0 / (FOUR_PI * r)
        g1 = -1.0 / (FOUR_PI * r * r)
        g2 = 2.0 / (FOUR_PI * r**3)
        h = 1e-5
        cs = (chi_prime(r + h) - chi_prime(r - h)) / (2 * h)  # FD, independent path
        w2 = -cs * g - 2.0 * chi_prime(r) * g1 + (1.0 - chi(r)) * g2
        return w2 + 2.0 * wp(r) / r

    lap2, _ = quad(lambda r: FOUR_PI * r * r * lapw(r) ** 2, 1.0, 2.0, epsabs=1e-12, limit=400)
    return lap2


def test_phase_norm_zero_state(nl):
    state = pw.make_initial_state(ZERO_PROFILE, ZERO_PROFILE, 0.0, 0.0, nl)
    assert pw.phase_norm(state) == 0.0


def test_phase_norm_point_position(nl):
    # zeta0 = 1 contributes 1 + the tail-term seminorms (gradient + laplacian)
    state = pw.make_initial_state(ZERO_PROFILE, ZERO_PROFILE, 1.0, 0.0, nl)
    expected = 1.0 + _tail_gradient_energy() + _tail_laplacian_energy()
    assert pw.phase_norm(state) == pytest.approx(expected, rel=1e-7)


def test_phase_norm_point_velocity(nl):
    state = pw.make_initial_state(ZERO_PROFILE, ZERO_PROFILE, 1.0, 3.0, nl)
    base = pw.phase_norm(pw.make_initial_state(ZERO_PROFILE, ZERO_PROFILE, 1.0, 0.0, nl))
    expected = base + 9.0 + 9.0 * _tail_gradient_energy()
    assert pw.phase_norm(state) == pytest.approx(expected, rel=1e-9)


@settings(max_examples=20, deadline=None)
@given(st.floats(min_value=0.1, max_value=3.0))
def test_phase_norm_quadratic_scaling(c):
    nl = pw.linear()
    base_bump = PolynomialBump(amplitude=0.0, support_radius=1.0)
    pi_bump = PolynomialBump(amplitude=0.7, support_radius=1.3)
    one = pw.make_initial_state(
        RadialProfile(bump=base_bump), RadialProfile(bump=pi_bump), 0.0, 0.0, nl
    )
    scaled = pw.make_initial_state(
        RadialProfile(bump=base_bump),
        RadialProfile(bump=PolynomialBump(amplitude=0.7 * c, support_radius=1.3)),
        0.0,
        0.0,
        nl,
    )
    assert pw.phase_norm(scaled) == pytest.approx(c * c * pw.phase_norm(one), rel=1e-9)


def test_phase_norm_rejects_tails(nl):
    state = pw.stationary_data(1.0, nl)
    with pytest.raises(UnsupportedNormError):
        pw.phase_norm(state)
