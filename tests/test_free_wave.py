import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import pointwave as pw
from scipy.integrate import quad

from pointwave.cutoff import chi_integral, chi_jet, chi_jet_arr
from pointwave.free_wave import (
    OnConeWarning,
    dispersive_batch,
    dispersive_eval,
    dispersive_value,
    lambda_at,
    psi_G_eval,
    reduction,
)
from pointwave.initial_data import (
    FOUR_PI,
    InitialState,
    PolynomialBump,
    RadialProfile,
    ZERO_PROFILE,
    bare_singular_data,
)


def coulomb_state(zeta0, zeta_dot0):
    """Exact psi0 = zeta0 G, pi0 = zeta_dot0 G via matching tails."""
    return InitialState(
        phi_c=RadialProfile(tail=zeta0),
        pi_c=RadialProfile(tail=zeta_dot0),
        zeta0=zeta0,
        zeta_dot0=zeta_dot0,
        nl=pw.cubic(),
    )


def reduced_parts(state, s):
    """The four reduced functions u0, u0', v0 and V = int v0 of the state at s,
    each written out from the array jets of the cutoff and the bumps."""
    z0, zd0, a_phi, a_pi = state.zeta0, state.zeta_dot0, state.phi_c.tail, state.pi_c.tail
    phi, pi = state.phi_c.bump, state.pi_c.bump
    a = np.abs(s)
    chi, chi_prime = chi_jet_arr(a)
    (p, p1), v = phi.jet_arr(a), pi.jet_arr(a)[0]
    u0 = np.sign(s) * (a_phi + (z0 - a_phi) * chi) / FOUR_PI + s * p
    u0_prime = (z0 - a_phi) * chi_prime / FOUR_PI + p + a * p1
    v0 = np.sign(s) * (a_pi + (zd0 - a_pi) * chi) / FOUR_PI + s * v
    V = (a_pi * a + (zd0 - a_pi) * chi_integral(a)) / FOUR_PI + pi.integral_r(a)
    return u0, u0_prime, v0, V


def four_term(state, r, t):
    """(u_f, d_t u_f, d_r u_f) by d'Alembert's formula in the four reduced functions."""
    u0_p, d_p, v0_p, V_p = reduced_parts(state, r + t)
    u0_m, d_m, v0_m, V_m = reduced_parts(state, r - t)
    return (
        0.5 * (u0_p + u0_m + V_p - V_m),
        0.5 * (d_p - d_m + v0_p + v0_m),
        0.5 * (d_p + d_m + v0_p - v0_m),
    )


def characteristic_state(which, ref_state):
    return {"ref": ref_state, "tails": tail_state(), "spline": _lambda_prime_state("spline")}[which]


class TestOddReduction:
    @settings(max_examples=80, deadline=None)
    @given(st.floats(min_value=0.01, max_value=4.0))
    def test_parity(self, s):
        # position data alone: W = u0 is odd and D = u0' even;
        # velocity data alone: W = V is even and D = v0 odd
        pos = reduction(bare_singular_data(0.7, 0.0))
        assert pos.W(-s) == -pos.W(s)
        assert pos.D(-s) == pos.D(s)
        vel = reduction(bare_singular_data(0.0, -0.4))
        assert vel.W(-s) == vel.W(s)
        assert vel.D(-s) == -vel.D(s)

    def test_constant_beyond_support(self):
        red = reduction(bare_singular_data(0.7, -0.4))
        assert red.D(2.5) == red.D(-9.0) == 0.0
        assert red.W(2.5) == red.W(7.0)

        tail = reduction(coulomb_state(0.7, 0.0))
        assert tail.W(3.0) == pytest.approx(0.7 / FOUR_PI, rel=1e-15)
        assert tail.W(30.0) == pytest.approx(0.7 / FOUR_PI, rel=1e-15)
        assert tail.D(3.0) == 0.0

    @pytest.mark.parametrize("which", ["ref", "tails", "spline"])
    def test_W_is_the_antiderivative_of_D(self, ref_state, which):
        state = characteristic_state(which, ref_state)
        red = reduction(state)
        # on one side of s = 0, where u0 and v0 jump
        for a, b in ((0.1, 0.9), (0.3, 2.7), (-2.4, -0.2), (-3.5, -1.1)):
            kinks = [x for k in red.kinks for x in (k, -k) if a < x < b]
            ref, _ = quad(lambda s: float(red.D(s)), a, b, points=kinks or None, epsabs=1e-15)
            assert float(red.W(b) - red.W(a)) == pytest.approx(ref, abs=1e-13)


class TestCharacteristicForm:
    """u_f = [W(r + t) - W(t - r)] / 2 and its derivatives from D against the
    four-term d'Alembert formula, and D as the origin trace and the ledger's profile."""

    @pytest.mark.parametrize("which", ["ref", "tails", "spline"])
    def test_matches_four_term_dalembert(self, ref_state, which):
        state = characteristic_state(which, ref_state)
        # includes r = 0, the cone r = t and the kink cones
        r, t = np.meshgrid(np.linspace(0.0, 6.0, 121), np.linspace(0.0, 5.0, 101))
        got = (dispersive_value(state, r, t), *dispersive_batch(state, r, t))
        for g, w in zip(got, four_term(state, r, t)):
            assert np.max(np.abs(g - w)) <= 4.0 * np.spacing(np.max(np.abs(w)))

    @pytest.mark.parametrize("which", ["ref", "tails", "spline"])
    def test_outgoing_profile_bit_for_bit(self, ref_state, which):
        # the ledger's incoming D and outgoing E(s) = -D(-s) are u0' + v0 and v0 - u0'
        state = characteristic_state(which, ref_state)
        s = np.linspace(0.0, 4.0, 401)
        _, u0_prime, v0, _ = reduced_parts(state, s)
        red = reduction(state)
        assert np.array_equal(red.D(s), u0_prime + v0)
        assert np.array_equal(-red.D(-s), v0 - u0_prime)

    @pytest.mark.parametrize("which", ["ref", "tails", "spline"])
    def test_origin_trace_is_D(self, ref_state, which):
        state = characteristic_state(which, ref_state)
        red = reduction(state)
        ts = np.linspace(0.0, red.support_time, 1001)[1:-1]
        lam = np.array([lambda_at(state, t)[0] for t in ts.tolist()])
        assert np.max(np.abs(red.D(ts) - lam)) <= 4.0 * np.spacing(np.max(np.abs(lam)))

    def test_D_at_zero_is_not_the_trace(self, ref_state):
        # sign(0) = 0 gives v0(0) = 0, the mean of its one-sided limits, so D(0)
        # misses the velocity jump zeta_dot0 / 4pi that lambda(0+) has
        red = reduction(ref_state)
        gap = lambda_at(ref_state, 0.0)[0] - float(red.D(0.0))
        assert gap == pytest.approx(ref_state.zeta_dot0 / FOUR_PI, rel=1e-14)
        assert gap == pytest.approx(0.0239, abs=1e-4)
        assert float(red.D(1e-12)) == pytest.approx(lambda_at(ref_state, 0.0)[0], abs=1e-11)


class TestDispersiveEval:
    def test_zero_state(self):
        zero = bare_singular_data(0.0, 0.0)
        for r, t in ((0.3, 0.0), (1.0, 2.0), (4.0, 1.5)):
            assert dispersive_eval(zero, r, t) == (0.0, 0.0)

    def test_position_jump_cancels_inside_cone(self):
        # data 2 chi G at rest: field vanishes where the cutoff is still 1
        state = bare_singular_data(2.0, 0.0)
        psi, _ = dispersive_eval(state, 0.2, 0.5)
        assert psi == pytest.approx(0.0, abs=1e-16)

    def test_velocity_jump_gives_quarter_pi(self):
        state = bare_singular_data(0.0, 1.0)
        psi, _ = dispersive_eval(state, 0.2, 0.5)
        assert psi == pytest.approx(1.0 / FOUR_PI, rel=1e-14)

    def test_coulomb_data_matches_retarded_formula(self):
        z0, zd0 = 0.7, -0.4
        state = coulomb_state(z0, zd0)
        for r, t in ((0.5, 0.2), (2.0, 1.0), (0.3, 1.7), (1.0, 4.0)):
            psi, _ = dispersive_eval(state, r, t)
            static = (z0 + t * zd0) / (FOUR_PI * r)
            retarded = (z0 + (t - r) * zd0) / (FOUR_PI * r) if t >= r else 0.0
            assert psi == pytest.approx(static - retarded, abs=1e-15)

    def test_superposition(self, ref_state):
        other = bare_singular_data(-0.3, 0.8)
        combined = InitialState(
            phi_c=ref_state.phi_c,
            pi_c=ref_state.pi_c,
            zeta0=ref_state.zeta0 + other.zeta0,
            zeta_dot0=ref_state.zeta_dot0 + other.zeta_dot0,
            nl=ref_state.nl,
        )
        for r, t in ((0.4, 0.9), (1.7, 2.3), (3.0, 0.4)):
            pa = dispersive_eval(ref_state, r, t)
            pb = dispersive_eval(other, r, t)
            pc = dispersive_eval(combined, r, t)
            assert pc[0] == pytest.approx(pa[0] + pb[0], abs=1e-12)
            assert pc[1] == pytest.approx(pa[1] + pb[1], abs=1e-12)

    def test_wave_equation_residual(self, ref_state):
        # the reduced profile u = r psi solves u_tt = u_rr; with closed-form
        # evaluation the finite-difference residual is pure roundoff
        def u(r, t):
            return r * dispersive_eval(ref_state, r, t)[0]

        h = 1e-3
        for r, t in ((0.4, 0.25), (1.3, 0.6), (2.2, 1.1), (0.8, 3.3)):
            utt = (u(r, t + h) - 2 * u(r, t) + u(r, t - h)) / h**2
            urr = (u(r + h, t) - 2 * u(r, t) + u(r - h, t)) / h**2
            assert abs(utt - urr) < 1e-8

    def test_expired_support(self, ref_state):
        # with data support 2, the free field leaves B_2 entirely by t = 4
        r = np.linspace(0.0, 2.0, 101)
        assert np.all(dispersive_value(ref_state, r, 8.0) == 0.0)
        assert all(np.all(d == 0.0) for d in dispersive_batch(ref_state, r, 8.0))

    def test_on_cone_warns_and_averages(self):
        state = bare_singular_data(1.0, 0.0)
        with pytest.warns(OnConeWarning):
            psi, _ = dispersive_eval(state, 0.5, 0.5)
        # one-sided limits at the jump average to u0(0)/2r contributions
        below = dispersive_eval(state, 0.5, 0.5 - 1e-9)[0]
        above = dispersive_eval(state, 0.5, 0.5 + 1e-9)[0]
        assert psi == pytest.approx(0.5 * (below + above), abs=1e-8)


def tail_state():
    """Coulomb tails in both components plus position and velocity bumps."""
    return InitialState(
        phi_c=RadialProfile(bump=PolynomialBump(-0.375, 1.3), tail=0.7),
        pi_c=RadialProfile(bump=PolynomialBump(0.2, 0.8), tail=-0.4),
        zeta0=0.5,
        zeta_dot0=0.3,
        nl=pw.cubic(),
    )


class TestRadialDerivative:
    """d_r u_f of dispersive_batch, the one radial-derivative formula (u_f = r psi_f
    is dispersive_value's)."""

    @pytest.mark.parametrize("which", ["ref", "tails"])
    def test_initial_data(self, ref_state, which):
        state = ref_state if which == "ref" else tail_state()
        r = np.linspace(0.05, 4.0, 157)
        u, (u_t, u_r) = dispersive_value(state, r, 0.0), dispersive_batch(state, r, 0.0)
        u0, v0 = state.reduced_data(r)
        z0, alpha, bump = state.zeta0, state.phi_c.tail, state.phi_c.bump
        for i, x in enumerate(r):
            x = float(x)
            # r psi0 = zeta0 chi / 4pi + r bump + alpha (1 - chi) / 4pi, the last the tail
            p, p1, _ = bump.jet(x)
            du0 = (z0 - alpha) * chi_jet(x)[1] / FOUR_PI + p + x * p1
            assert u[i] == pytest.approx(u0[i], rel=1e-13, abs=1e-15)
            assert u_t[i] == pytest.approx(v0[i], rel=1e-13, abs=1e-15)
            assert u_r[i] == pytest.approx(du0, rel=1e-12, abs=1e-13)

    @pytest.mark.parametrize("which", ["ref", "tails"])
    def test_centred_difference(self, ref_state, which):
        state = ref_state if which == "ref" else tail_state()
        t, h = 1.7, 1e-5
        r = np.linspace(0.05, 6.0, 211)
        kinks = np.array(sorted(reduction(state).kink_radii(t, 0.0, 7.0)))
        r = r[np.min(np.abs(r[:, None] - kinks[None, :]), axis=1) > 1e-3]
        _, u_r = dispersive_batch(state, r, t)
        fd = (dispersive_value(state, r + h, t) - dispersive_value(state, r - h, t)) / (2 * h)
        assert np.max(np.abs(u_r - fd)) < 1e-8


class TestLambdaTrace:
    def test_initial_value(self, ref_state):
        expected = ref_state.nl.F(0.5) + 0.3 / FOUR_PI
        assert lambda_at(ref_state, 0.0)[0] == pytest.approx(expected, abs=1e-14)
        assert lambda_at(ref_state, 1e-9)[0] == pytest.approx(expected, abs=1e-8)

    def test_domain_error(self, ref_state):
        # the origin belongs to lambda_at; the field evaluators refuse it and say so
        with pytest.raises(ValueError, match="lambda_at gives the origin trace"):
            dispersive_eval(ref_state, 0.0, 1.0)
        with pytest.raises(ValueError, match="requires t >= 0"):
            dispersive_eval(ref_state, 1.0, -1.0)

    def test_support_expiry_is_exact_zero(self, ref_state):
        for t in (2.0001, 2.5, 7.0, 40.0):
            assert lambda_at(ref_state, t) == (0.0, 0.0)

    def test_plateau_no_cutoff_contribution(self):
        # compatible state with zeta0 = 1 and no bump: chi'(0.5) = 0 kills lambda
        state = pw.make_initial_state(ZERO_PROFILE, ZERO_PROFILE, 1.0, 0.0, pw.cubic())
        assert lambda_at(state, 0.5) == (0.0, 0.0)

    def test_stationary_trace_vanishes_identically(self):
        state = pw.stationary_data(1.0, pw.cubic())
        for t in np.linspace(0.05, 5.0, 57):
            assert lambda_at(state, float(t)) == (0.0, 0.0)

    def test_engineered_silent_source(self, silent_state):
        # the data cancel the trace identically; exercises the assembled closed form
        state = silent_state
        worst = max(abs(lambda_at(state, float(t))[0]) for t in np.linspace(1e-6, 3.0, 301))
        assert worst < 1e-14

    def test_trace_consistency_with_field_limit(self, ref_state):
        radii = (1e-2, 1e-3, 1e-4)
        vander = np.vander(np.array(radii), 3, increasing=True)
        for t in (0.4, 0.9, 1.6, 2.5):
            vals = [dispersive_eval(ref_state, r, t)[0] for r in radii]
            extrapolated = float(np.linalg.solve(vander, np.array(vals))[0])
            assert extrapolated == pytest.approx(lambda_at(ref_state, t)[0], abs=1e-8)

    def test_continuity_under_refinement(self, ref_state):
        def max_jump(n):
            ts = np.linspace(0.05, 4.0, n)
            vals = np.array([lambda_at(ref_state, float(t))[0] for t in ts])
            return float(np.max(np.abs(np.diff(vals))))

        assert max_jump(4000) < 0.5 * max_jump(1000)


def _lambda_prime_state(which):
    nl = pw.cubic()
    if which == "polynomial":
        phi, pi = PolynomialBump(nl.F(0.5), 1.0), PolynomialBump(0.2, 1.5)
        return pw.make_initial_state(RadialProfile(bump=phi), RadialProfile(bump=pi), 0.5, 0.3, nl)
    if which == "spline":
        phi = pw.SplineBump.from_points(
            [0.0, 0.4, 0.9, 1.3, 2.6], [nl.F(0.5), 0.1, -0.05, 0.02, 0.0]
        )
        pi = pw.SplineBump.from_points([0.0, 0.7, 1.6, 2.2, 3.1], [0.3, -0.2, 0.1, 0.05, 0.0])
        return pw.make_initial_state(RadialProfile(bump=phi), RadialProfile(bump=pi), 0.5, 0.3, nl)
    phi = RadialProfile(bump=PolynomialBump(nl.F(0.5), 1.0), tail=0.7)
    return pw.make_initial_state(phi, RadialProfile(bump=PolynomialBump(0.2, 0.8)), 0.5, 0.3, nl)


class TestLambdaPrime:
    @pytest.mark.parametrize("which", ["polynomial", "spline", "tail_phi"])
    def test_matches_centred_difference(self, which):
        state = _lambda_prime_state(which)
        red = reduction(state)
        ts = np.linspace(0.01, red.support_time - 0.01, 389)
        # off the kinks, where the spline's second derivative jumps
        ts = ts[np.min(np.abs(ts[:, None] - np.array(red.kinks)), axis=1) > 1e-3]
        h = 1e-5
        for t in ts.tolist():
            diff = (lambda_at(state, t + h)[0] - lambda_at(state, t - h)[0]) / (2.0 * h)
            assert lambda_at(state, t)[1] == pytest.approx(diff, abs=1e-7)

    @pytest.mark.parametrize("which", ["polynomial", "spline", "tail_phi"])
    def test_zero_from_support_time(self, which):
        state = _lambda_prime_state(which)
        t_s = reduction(state).support_time
        for t in (t_s, t_s + 1e-9, t_s + 0.5, 50.0):
            assert lambda_at(state, t)[1] == 0.0


class TestCutoffSingularPart:
    def test_sharp_support(self):
        state = bare_singular_data(1.3, -0.6)
        for r in (0.1, 0.7, 2.0, 3.5):
            for extra in (0.0, 0.8, 5.0):
                assert psi_G_eval(state, r, r + 2.0 + extra) == 0.0

    def test_initial_condition(self):
        state = bare_singular_data(1.3, 0.0)
        for r in (0.3, 0.9, 1.5, 1.9):
            assert psi_G_eval(state, r, 0.0) == pytest.approx(
                1.3 * chi_jet(r)[0] / (FOUR_PI * r), rel=1e-14
            )

    def test_outside_influence(self):
        state = bare_singular_data(1.0, 0.0)
        assert psi_G_eval(state, 3.0, 0.5) == 0.0
