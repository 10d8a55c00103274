import math
from pathlib import Path

import numpy as np
import pytest

import pointwave as pw
import pointwave.field_assembly as field_assembly
import pointwave.runner as runner
from pointwave.field_assembly import (
    HistoryHorizonError,
    distance_to_stationary,
    energy,
    energy_ledger,
    green,
    psi_total,
    regular_trace,
    u_singular,
)
from pointwave.free_wave import lambda_at
from pointwave.initial_data import FOUR_PI
from pointwave.quadrature import MAX_DEPTH
from pointwave.runner import amplitude_bound, build_state, run_scenario
from pointwave.scenario import load_config
from pointwave.zeta_dynamics import ZetaHistory, zeta_at

SCENARIO_DIR = Path(__file__).resolve().parent.parent / "scenarios"


def linear_history(T=3.0):
    """Synthetic trajectory zeta(s) = s with exact derivatives."""
    ts = np.linspace(0.0, T, 31)
    return ZetaHistory(
        times=ts,
        values=ts.copy(),
        derivs=np.ones_like(ts),
        second=np.zeros_like(ts),
        Lambda_used=10.0,
    )


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
        hist = ZetaHistory(
            times=ts,
            values=np.full(11, 0.8),
            derivs=np.zeros(11),
            second=np.zeros(11),
            Lambda_used=2.0,
        )
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
            second=np.zeros(6),
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

    def test_independent_of_quadrature_radius_at_default_tol(self):
        # the same state at the default quad_tol: the C2 history leaves no
        # node-cone kinks in the retarded region, so the all-zero panel of the
        # wider ball moves H by round-off only (6.2e-13 with a C1 history)
        nl = pw.cubic()
        phi = pw.RadialProfile(bump=pw.PolynomialBump(nl.F(0.5), 1.0), tail=0.7)
        pi = pw.RadialProfile(bump=pw.PolynomialBump(0.2, 0.8))
        state = pw.make_initial_state(phi, pi, 0.5, 0.3, nl)
        H0 = energy(state, None, 0.0).total
        trunc = pw.build_truncation(nl, amplitude_bound(nl, H0))
        hist = pw.integrate(state, trunc, pw.ODEConfig(t_final=8.0))
        for t in (0.0, 1.0, 4.0, 8.0):
            R = t + state.support_radius
            tight = energy(state, hist, t, R_quad=R).total
            wide = energy(state, hist, t, R_quad=R + 5.0).total
            assert abs(wide - tight) <= 1e-13

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


def _shipped_run(path: Path) -> dict:
    """The pipeline's state and history for a shipped config, without the audits."""
    s = load_config(path)
    nl, state = build_state(s)
    H0 = energy(state, None, 0.0, s.quad_radius, s.quad_tol).total
    cfg = pw.ODEConfig(rel_tol=s.rel_tol, abs_tol=s.abs_tol, max_step=s.max_step, t_final=s.t_final)
    history = pw.integrate(state, pw.build_truncation(nl, amplitude_bound(nl, H0)), cfg)
    return {"s": s, "state": state, "history": history, "H0": H0}


@pytest.fixture(scope="module", params=sorted(p.stem for p in SCENARIO_DIR.glob("*.cfg")))
def shipped_run(request):
    return _shipped_run(SCENARIO_DIR / f"{request.param}.cfg")


@pytest.fixture(scope="module")
def reference_config_run():
    return _shipped_run(SCENARIO_DIR / "reference.cfg")


def _extra_state(which: str) -> pw.InitialState:
    nl = pw.cubic()
    bump = pw.PolynomialBump(nl.F(0.5), 1.0)
    if which == "velocity_bump":
        phi, pi = pw.RadialProfile(bump=bump), pw.RadialProfile(bump=pw.PolynomialBump(0.2, 1.5))
    elif which == "tail_phi":
        # the state of test_independent_of_quadrature_radius
        phi = pw.RadialProfile(bump=bump, tail=0.7)
        pi = pw.RadialProfile(bump=pw.PolynomialBump(0.2, 0.8))
    else:
        # knots inside and outside the cutoff band, support past it
        spline = pw.SplineBump.from_points(
            [0.0, 0.4, 0.9, 1.3, 2.6], [nl.F(0.5), 0.1, -0.05, 0.02, 0.0]
        )
        phi, pi = pw.RadialProfile(bump=spline), pw.RadialProfile()
    return pw.make_initial_state(phi, pi, 0.5, 0.3, nl)


class TestEnergyLedger:
    """H from the characteristic identity against the independent radial audit."""

    def test_gate_on_shipped_configs(self, shipped_run):
        s, state, hist, H0 = (shipped_run[k] for k in ("s", "state", "history", "H0"))
        times = sorted({*(t for t in s.energy_times if 0.0 < t <= s.t_final), s.t_final})
        ledger = energy_ledger(state, hist, [0.0, *times])
        audit = [energy(state, hist, t, s.quad_radius, quad_tol=1e-13).total for t in times]
        assert abs(ledger.total[0] - energy(state, hist, 0.0, s.quad_radius, 1e-13).total) <= 1e-14
        assert np.max(np.abs(ledger.total[1:] - audit)) <= 1e-12 * max(1.0, abs(H0))

    @pytest.mark.parametrize("which", ["velocity_bump", "tail_phi", "spline_phi"])
    def test_gate_on_kinked_data(self, which):
        # rows inside the data support exercise the kink panels and their subdivision
        state = _extra_state(which)
        H0 = energy(state, None, 0.0, quad_tol=1e-13).total
        trunc = pw.build_truncation(state.nl, amplitude_bound(state.nl, H0))
        hist = pw.integrate(state, trunc, pw.ODEConfig(t_final=4.0))
        ts = np.array([0.0, 0.37, 1.5, 2.6, 4.0])
        ledger = energy_ledger(state, hist, ts)
        audit = np.array([H0] + [energy(state, hist, t, quad_tol=1e-13).total for t in ts[1:]])
        assert abs(ledger.total[0] - H0) <= 1e-14
        assert np.max(np.abs(ledger.total - audit)) <= 1e-12 * max(1.0, abs(H0))

    def test_sparse_history_nodes(self, ref_state):
        # four nodes, none inside the cutoff band [1, 2]: the panels there come
        # from the data alone.  Both sides are the energy of the field this
        # history assembles, conserved or not.
        ts = np.array([0.0, 0.7, 2.3, 3.0])
        hist = ZetaHistory(
            times=ts,
            values=0.5 + 0.3 * np.sin(ts),
            derivs=0.3 * np.cos(ts),
            second=-0.3 * np.sin(ts),
            Lambda_used=10.0,
        )
        rows = np.array([0.5, 1.5, 2.0, 2.9])
        ledger = energy_ledger(ref_state, hist, rows)
        audit = [energy(ref_state, hist, t, quad_tol=1e-13).total for t in rows]
        assert np.max(np.abs(ledger.total - audit)) <= 1e-12

    def test_radiation_mechanism(self, reference_config_run):
        # after the source expires the incoming part is gone and the potential
        # U(zeta) is radiated: the re-emitted part grows by int zeta'^2 / 4pi
        state, hist = reference_config_run["state"], reference_config_run["history"]
        t_s = hist.source_expiry
        assert t_s == 2.0
        ts = np.array([t_s, 3.0, 5.0, 10.0, 20.0, hist.horizon])
        ledger = energy_ledger(state, hist, ts)
        assert np.all(ledger.incoming == 0.0)
        # zeta(t_s) is within 1e-3 of q = 1: U(zeta(t_s)) - U(q) = 1e-7, far above the bound below
        assert ledger.reemitted[-1] - ledger.reemitted[0] > 1e-8
        x, w = np.polynomial.legendre.leggauss(5)  # exact for the degree-8 zeta'^2
        for i in range(len(ts) - 1):
            for j in range(i + 1, len(ts)):
                t1, t2 = ts[i], ts[j]
                inner = hist.times[(hist.times > t1) & (hist.times < t2)]
                edges = np.concatenate(([t1], inner, [t2]))
                mid, half = 0.5 * (edges[1:] + edges[:-1]), 0.5 * np.diff(edges)
                zd = zeta_at(hist, mid[:, None] + half[:, None] * x)[1]
                radiated = float(np.sum(half * (zd**2 @ w))) / FOUR_PI
                assert abs(ledger.reemitted[j] - ledger.reemitted[i] - radiated) <= 1e-12
                assert abs(ledger.potential[i] - ledger.potential[j] - radiated) <= 1e-12

    def test_parts_add_up(self, ref_run):
        ledger = energy_ledger(ref_run["state"], ref_run["history"], np.linspace(0.0, 12.0, 7))
        assert np.array_equal(
            ledger.total, ledger.incoming + ledger.outgoing + ledger.reemitted + ledger.potential
        )
        assert ledger.reemitted[0] == 0.0
        assert np.all(ledger.outgoing == ledger.outgoing[0])

    def test_beyond_horizon(self, ref_run):
        with pytest.raises(HistoryHorizonError):
            energy_ledger(ref_run["state"], ref_run["history"], [1.0, 12.5])

    def test_velocity_tail_rejected(self):
        from pointwave.initial_data import InitialState, RadialProfile, ZERO_PROFILE

        state = InitialState(
            phi_c=ZERO_PROFILE,
            pi_c=RadialProfile(tail=1.0),
            zeta0=1.0,
            zeta_dot0=1.0,
            nl=pw.cubic(),
        )
        with pytest.raises(ValueError, match="velocity tail"):
            energy_ledger(state, linear_history(), [0.0, 1.0])


def test_energy_audit_calls_the_integrand_once_per_level(
    reference_config_run, monkeypatch, scalar_quadrature
):
    # every panel refines in the same integrand calls: the call count is bounded
    # by the depth, not the panel count, and the points are the scalar oracle's
    state, hist = reference_config_run["state"], reference_config_run["history"]
    assemble, calls = field_assembly._assemble, []

    def counted(state, history, r, t):
        calls.append(np.size(r))
        return assemble(state, history, r, t)

    monkeypatch.setattr(field_assembly, "_assemble", counted)
    H = energy(state, hist, 20.0)
    engine_calls, engine_points = len(calls), sum(calls)
    calls.clear()
    panels = []

    def scalar(f, breakpoints, tol):
        panels.append(len(breakpoints) - 1)
        return scalar_quadrature(f, breakpoints, tol)

    monkeypatch.setattr(field_assembly, "integrate_panels", scalar)
    H_scalar = energy(state, hist, 20.0)
    assert engine_calls <= MAX_DEPTH + 2 < len(calls)
    assert panels[0] > 1
    assert engine_points == sum(calls)
    assert H == H_scalar


def test_artifact_path_audits_only(tmp_path, monkeypatch):
    # zeta.csv's H comes from the ledger; energy() runs only at H0 and the audits
    s = load_config(SCENARIO_DIR / "reference.cfg")
    calls = []

    def counted(*args, **kwargs):
        calls.append(args[2])
        return energy(*args, **kwargs)

    monkeypatch.setattr(runner, "energy", counted)
    res = run_scenario(s, tmp_path / "a")
    audits = {t for t in s.energy_times if 0.0 < t <= s.t_final} | {s.t_final}
    assert len(calls) == 1 + len(audits) == 6
    text = (tmp_path / "a" / "zeta.csv").read_text(encoding="utf-8")
    rows = np.array([[float(v) for v in line.split(",")] for line in text.splitlines()[1:]])
    ledger = energy_ledger(res.state, res.history, np.linspace(0.0, s.t_final, s.csv_rows))
    assert np.array_equal(rows[:, 0], ledger.t)
    assert np.array_equal(rows[:, 5], ledger.total)
    run_scenario(s, tmp_path / "b")
    assert (tmp_path / "b" / "zeta.csv").read_bytes() == text.encode("utf-8")


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
