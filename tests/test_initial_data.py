import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.integrate import quad

import pointwave as pw
from pointwave.cutoff import chi_jet
from pointwave.initial_data import (
    FOUR_PI,
    CallableBump,
    CompatibilityError,
    PolynomialBump,
    RadialProfile,
    SplineBump,
    ZERO_PROFILE,
)


@pytest.fixture
def nl():
    return pw.cubic()


class TestPolynomialBump:
    bump = PolynomialBump(amplitude=-0.375, support_radius=1.0)

    def test_support(self):
        assert self.bump.jet(0.0)[:2] == (-0.375, 0.0)
        assert self.bump.jet(1.0) == (0.0, 0.0, 0.0)
        assert self.bump.jet(2.3) == (0.0, 0.0, 0.0)

    @settings(max_examples=60, deadline=None)
    @given(st.floats(min_value=0.01, max_value=0.95))
    def test_derivatives(self, r):
        h = 1e-6
        (_, d1, d2), lo, hi = self.bump.jet(r), self.bump.jet(r - h), self.bump.jet(r + h)
        assert d1 == pytest.approx((hi[0] - lo[0]) / (2 * h), rel=1e-6, abs=1e-9)
        assert d2 == pytest.approx((hi[1] - lo[1]) / (2 * h), rel=1e-6, abs=1e-8)

    @pytest.mark.parametrize("a", [0.3, 0.8, 1.0, 2.0])
    def test_integral(self, a):
        ref, _ = quad(lambda s: s * self.bump.jet(s)[0], 0.0, min(a, 1.0), epsabs=1e-14)
        assert self.bump.integral_r(a) == pytest.approx(ref, abs=1e-13)

    def test_vector_paths(self):
        r = np.linspace(0.0, 1.5, 97)
        value, d1, _ = np.array([self.bump.jet(x) for x in r.tolist()]).T
        assert np.allclose(self.bump.value_arr(r), value, atol=1e-16)
        assert np.allclose(self.bump.d1_arr(r), d1, atol=1e-16)


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
        assert bump.jet(0.0)[0] == pytest.approx(0.5, abs=1e-12)
        assert bump.jet(1.2) == (0.0, 0.0, 0.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            SplineBump.from_points([0.0, 0.5, 0.5, 1.0], [1, 1, 1, 0])  # not increasing
        with pytest.raises(ValueError):
            SplineBump.from_points([0.1, 0.5, 0.8, 1.0], [1, 1, 1, 0])  # misses r=0
        with pytest.raises(ValueError):
            SplineBump.from_points([0.0, 0.5, 0.8, 1.0], [1, 1, 1, 0.3])  # nonzero edge

    def test_flat_at_origin(self):
        assert self.make().jet(0.0)[1] == pytest.approx(0.0, abs=1e-13)

    @pytest.mark.parametrize("knots", ["uniform", "random"])
    def test_matches_scipy_clamped_spline(self, knots):
        from scipy.interpolate import CubicSpline

        if knots == "uniform":
            r = np.linspace(0.0, 1.3, 9)
        else:
            r = np.concatenate(([0.0], np.sort(np.random.default_rng(3).uniform(0.0, 2.0, 48)), [2.0]))
        v = np.cos(3.0 * r) + 0.1 * r * r
        v[-1] = 0.0
        bump = SplineBump.from_points(r, v)
        ref = CubicSpline(r, v, bc_type=((1, 0.0), (1, 0.0)))
        x = np.linspace(0.0, r[-1], 1001)[:-1]
        jets = np.array([bump.jet(s) for s in x.tolist()]).T
        for got, nu in ((bump.value_arr(x), 0), (bump.d1_arr(x), 1), *zip(jets, range(3))):
            want = ref(x, nu)
            assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))

    def test_integral_matches_quad(self):
        # one array call: inside the first piece, on a knot, mid-piece, at and past the edge
        bump = self.make()
        a = np.array([0.0, 0.03, 0.5, 0.77, 1.0, 1.4])
        ref = [
            quad(lambda s: s * bump.jet(s)[0], 0.0, min(x, 1.0), epsabs=1e-13, limit=200)[0]
            for x in a
        ]
        assert bump.integral_r(a) == pytest.approx(ref, abs=1e-10)
        assert bump.integral_r(0.77) == pytest.approx(ref[3], abs=1e-10)


def test_callable_bump_numeric_integral():
    bump = CallableBump(jet_fn=chi_jet, support_radius=2.0)
    ref, _ = quad(lambda s: s * chi_jet(s)[0], 0.0, 1.7, epsabs=1e-13, limit=200)
    assert bump.integral_r(1.7) == pytest.approx(ref, abs=1e-11)


def test_radial_profile_tail_vanishes_inside():
    prof = RadialProfile(bump=ZERO_PROFILE.bump, tail=2.0)
    inside, beyond = prof.value_arr(np.array([0.5, 3.0]))
    assert inside == 0.0
    assert prof.value_at_origin == 0.0
    # beyond the band the tail is exactly the Coulomb kernel
    assert beyond == pytest.approx(2.0 / (FOUR_PI * 3.0), rel=1e-15)


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
    # r psi0 = q / 4pi and r pi0 = 0 at every radius, the origin included
    r = np.array([0.0, 0.01, 0.3, 1.0, 1.5, 2.7, 10.0])
    u0, v0 = pw.stationary_data(1.0, nl).reduced_data(r)
    assert u0 == pytest.approx(np.full_like(r, 1.0 / FOUR_PI), rel=1e-14)
    assert np.all(v0 == 0.0)

    u0, _ = pw.stationary_data(0.0, nl).reduced_data(0.5)
    assert u0 == 0.0

    with pytest.raises(ValueError):
        pw.stationary_data(0.5, nl)


def test_total_data_assembly(nl):
    bump = PolynomialBump(nl.F(0.3), 1.0)
    state = pw.make_initial_state(
        RadialProfile(bump=bump), RadialProfile(bump=PolynomialBump(0.2, 0.7)), 0.3, 0.1, nl
    )
    for r in (0.2, 0.9, 1.4, 1.9):
        expected = 0.3 * chi_jet(r)[0] / (FOUR_PI * r) + bump.jet(r)[0]
        assert state.reduced_data(r)[0] / r == pytest.approx(expected, rel=1e-15)
    # compact support: everything dies past max(2, rho)
    u0, v0 = state.reduced_data(np.array([2.05, 3.0, 8.0]))
    assert np.all(u0 == 0.0)
    assert np.all(v0 == 0.0)
