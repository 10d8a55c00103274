import math

import numpy as np
import pytest

import pointwave as pw
from pointwave.field_assembly import (
    HistoryHorizonError,
    distance_to_stationary,
    energy,
    green,
    psi_total,
    regular_trace,
    u_singular,
)
from pointwave.free_wave import lambda_at
from pointwave.initial_data import FOUR_PI
from pointwave.runner import amplitude_bound
from pointwave.zeta_dynamics import ZetaHistory, zeta_at


def linear_history(T=3.0):
    """Synthetic trajectory zeta(s) = s with exact derivatives."""
    ts = np.linspace(0.0, T, 31)
    return ZetaHistory(times=ts, values=ts.copy(), derivs=np.ones_like(ts), Lambda_used=10.0)


def test_green_values():
    assert green(1.0) == pytest.approx(1.0 / FOUR_PI, rel=1e-16)
    assert green(0.5) == pytest.approx(1.0 / (2.0 * math.pi), rel=1e-16)
    assert green(2.0) == pytest.approx(1.0 / (8.0 * math.pi), rel=1e-16)
    with pytest.raises(ValueError):
        green(0.0)
    with pytest.raises(ValueError):
        green(-1.0)


class TestPsiSingular:
    """The retarded wave in u = r psi: u_S = theta(t - r) zeta(t - r) / 4pi."""

    def test_gate_is_exact(self):
        hist = linear_history()
        for r, t in ((1.0, 0.5), (2.0, 1.99), (0.3, 0.0)):
            assert u_singular(hist, r, t) == (0.0, 0.0)

    def test_constant_history(self):
        ts = np.linspace(0.0, 4.0, 11)
        hist = ZetaHistory(times=ts, values=np.full(11, 0.8), derivs=np.zeros(11), Lambda_used=2.0)
        us, usd = u_singular(hist, 0.5, 2.0)
        assert us == pytest.approx(0.8 / FOUR_PI, rel=1e-14)
        assert usd == 0.0
        # theta(0) = 1/2 on the cone
        assert u_singular(hist, 2.0, 2.0)[0] == pytest.approx(0.4 / FOUR_PI, rel=1e-14)

    def test_linear_history(self):
        hist = linear_history()
        us, usd = u_singular(hist, 0.5, 2.0)
        assert us == pytest.approx(1.5 / FOUR_PI, rel=1e-13)
        assert usd == pytest.approx(1.0 / FOUR_PI, rel=1e-13)

    def test_horizon_error(self):
        hist = linear_history(T=1.0)
        with pytest.raises(HistoryHorizonError):
            u_singular(hist, 0.5, 2.0)

    def test_time_derivative_consistency(self, ref_run):
        # centered difference of u_S in t matches the stored derivative at
        # second order away from the cone
        hist = ref_run["history"]
        k = 1e-4
        for r, t in ((0.7, 3.0), (1.5, 5.0)):
            up = u_singular(hist, r, t + k)[0]
            dn = u_singular(hist, r, t - k)[0]
            _, usd = u_singular(hist, r, t)
            assert (up - dn) / (2 * k) == pytest.approx(usd, rel=1e-6, abs=1e-9)


class TestPsiTotal:
    def test_zero_state(self):
        from pointwave.initial_data import ZERO_PROFILE

        state = pw.make_initial_state(ZERO_PROFILE, ZERO_PROFILE, 0.0, 0.0, pw.cubic())
        hist = ZetaHistory(
            times=np.linspace(0, 5, 6),
            values=np.zeros(6),
            derivs=np.zeros(6),
            Lambda_used=1.0,
        )
        fs = psi_total(state, hist, 0.8, 2.0)
        assert fs.psi == 0.0
        assert fs.psi_dot == 0.0

    def test_additivity(self, ref_run):
        fs = psi_total(ref_run["state"], ref_run["history"], 1.3, 4.0)
        assert fs.psi == fs.psi_f + fs.psi_S
        assert fs.psi_dot == fs.psi_f_dot + fs.psi_S_dot

    def test_stationary_is_pure_coulomb(self, stationary_run):
        state, hist = stationary_run["state"], stationary_run["history"]
        rng = np.random.default_rng(3)
        for r, t in zip(rng.uniform(0.05, 6.0, 40), rng.uniform(0.0, 10.0, 40)):
            fs = psi_total(state, hist, float(r), float(t))
            assert abs(fs.psi - green(float(r))) < 1e-12
            assert abs(fs.psi_dot) < 1e-12

    def test_regular_part_decomposition(self, ref_run):
        hist = ref_run["history"]
        fs = psi_total(ref_run["state"], hist, 0.9, 2.5)
        z, _ = zeta_at(hist, 2.5)
        assert fs.psi_reg == pytest.approx(fs.psi - z * green(0.9), rel=1e-14)

    @pytest.mark.parametrize("t", [1.0, 2.5])
    def test_continuous_on_cone(self, ref_run, t):
        # the free part's mean on its jump cone plus theta(0) = 1/2 of the
        # retarded wave is the continuous field
        state, hist = ref_run["state"], ref_run["history"]
        on = psi_total(state, hist, t, t)
        sides = psi_total(state, hist, np.array([t - 1e-9, t + 1e-9]), t)
        assert abs(on.psi - np.mean(sides.psi)) < 1e-8
        assert abs(on.psi_dot - np.mean(sides.psi_dot)) < 1e-8


class TestRegularTrace:
    def test_stationary(self, stationary_run):
        val = regular_trace(stationary_run["state"], stationary_run["history"], 3.0)
        assert abs(val) < 1e-8

    def test_boundary_identity(self, ref_run):
        state, hist = ref_run["state"], ref_run["history"]
        for t in (0.51, 1.24, 2.77, 5.03, 9.41):
            z, zd = zeta_at(hist, t)
            tr = regular_trace(state, hist, t)
            assert abs(tr - state.nl.F(z)) < 1e-6
            assert abs(tr - (lambda_at(state, t) - zd / FOUR_PI)) < 1e-12


class TestEnergy:
    def test_stationary_energy_is_potential(self, stationary_run):
        state, hist = stationary_run["state"], stationary_run["history"]
        for t in (0.0, 2.0, 7.5):
            rep = energy(state, hist, t)
            assert rep.total == pytest.approx(-0.25, abs=1e-12)
            assert rep.kinetic == pytest.approx(0.0, abs=1e-14)

    def test_zero_state(self):
        from pointwave.initial_data import ZERO_PROFILE

        state = pw.make_initial_state(ZERO_PROFILE, ZERO_PROFILE, 0.0, 0.0, pw.cubic())
        rep = energy(state, None, 0.0)
        assert rep.total == 0.0

    def test_conservation_short_run(self, ref_run):
        state, hist, H0 = ref_run["state"], ref_run["history"], ref_run["H0"]
        for t in (1.0, 3.0, 5.0):
            rep = energy(state, hist, t)
            assert abs(rep.total - H0) / abs(H0) < 1e-8

    def test_report_invariants(self, ref_run):
        rep = energy(ref_run["state"], ref_run["history"], 2.0)
        assert rep.total == rep.kinetic + rep.gradient + rep.potential

    def test_independent_of_quadrature_radius(self):
        # u is the constant tail_phi / 4pi outside the cone of the support, so
        # a larger ball adds nothing, Coulomb tail and zeta(t) != tail_phi included
        nl = pw.cubic()
        phi = pw.RadialProfile(bump=pw.PolynomialBump(nl.F(0.5), 1.0), tail=0.7)
        pi = pw.RadialProfile(bump=pw.PolynomialBump(0.2, 0.8))
        state = pw.make_initial_state(phi, pi, 0.5, 0.3, nl)
        H0 = energy(state, None, 0.0).total
        trunc = pw.build_truncation(nl, amplitude_bound(nl, H0))
        hist = pw.integrate(state, trunc, pw.ODEConfig(t_final=8.0))
        # quad_tol an order below the bound, so the panel count's share of the
        # tolerance does not enter
        for t in (0.0, 1.0, 4.0, 8.0):
            R = t + state.support_radius
            assert zeta_at(hist, t)[0] != 0.7
            tight = energy(state, hist, t, R_quad=R, quad_tol=1e-13).total
            wide = energy(state, hist, t, R_quad=R + 5.0, quad_tol=1e-13).total
            assert abs(wide - tight) < 1e-12
            assert abs(tight - H0) < 1e-8

    def test_radius_too_small(self, ref_run):
        with pytest.raises(ValueError):
            energy(ref_run["state"], ref_run["history"], 5.0, R_quad=3.0)

    def test_velocity_tail_rejected(self):
        from pointwave.initial_data import InitialState, RadialProfile, ZERO_PROFILE

        state = InitialState(
            phi_c=ZERO_PROFILE,
            pi_c=RadialProfile(tail=1.0),
            zeta0=1.0,
            zeta_dot0=1.0,
            nl=pw.cubic(),
        )
        with pytest.raises(ValueError):
            energy(state, None, 0.0)


class TestDistance:
    def test_stationary_distance_zero(self, stationary_run):
        d_pos, d_vel = distance_to_stationary(
            stationary_run["state"], stationary_run["history"], 5.0, 1.0, 2.0
        )
        assert d_pos < 1e-10
        assert d_vel < 1e-10

    def test_wrong_target_closed_form(self, stationary_run):
        # field is exactly G, so distance to qG is |1-q| |G| on the ball
        R = 2.0
        for q in (0.0, 0.4, -1.0):
            d_pos, _ = distance_to_stationary(
                stationary_run["state"], stationary_run["history"], 5.0, q, R
            )
            assert d_pos == pytest.approx(
                abs(1.0 - q) * math.sqrt(R / FOUR_PI), rel=1e-10
            )

    def test_attraction_trend(self, ref_run):
        state, hist = ref_run["state"], ref_run["history"]
        d2 = distance_to_stationary(state, hist, 2.0, 1.0, 2.0)[0]
        d10 = distance_to_stationary(state, hist, 10.0, 1.0, 2.0)[0]
        assert d10 < d2
