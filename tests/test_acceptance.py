"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run visibly with:  pytest -s tests/test_acceptance.py
"""

import math
import time
from pathlib import Path

import numpy as np
import pytest

import pointwave as pw
from pointwave import fd_oracle
from pointwave.field_assembly import distance_to_stationary, energy, psi_total, regular_trace
from pointwave.free_wave import lambda_at, psi_G_eval
from pointwave.initial_data import FOUR_PI, bare_singular_data
from pointwave.runner import amplitude_bound, run_scenario
from pointwave.scenario import load_config
from pointwave.zeta_dynamics import zeta_at

SCENARIO_DIR = Path(__file__).resolve().parent.parent / "scenarios"


def _report(num: int, name: str, ok: bool, detail: str = ""):
    print(f"\n[criterion {num:02d}] {'PASS' if ok else 'FAIL'} {name}  {detail}")
    assert ok, f"criterion {num} ({name}): {detail}"


def make_reference_state(mirror: bool = False):
    nl = pw.cubic()
    sgn = -1.0 if mirror else 1.0
    bump = pw.PolynomialBump(amplitude=nl.F(sgn * 0.5), support_radius=1.0)
    return pw.make_initial_state(
        pw.RadialProfile(bump=bump), pw.RadialProfile(), sgn * 0.5, sgn * 0.3, nl
    )


def run_reference(t_final: float, rel_tol: float = 1e-11, mirror: bool = False):
    state = make_reference_state(mirror)
    H0 = energy(state, None, 0.0).total
    trunc = pw.build_truncation(state.nl, amplitude_bound(state.nl, H0))
    cfg = pw.ODEConfig(rel_tol=rel_tol, abs_tol=rel_tol * 1e-2, t_final=t_final)
    history = pw.integrate(state, trunc, cfg)
    return state, trunc, history, H0


@pytest.fixture(scope="module")
def reference50():
    return run_reference(50.0)


def test_criterion_01_stationary_persistence():
    t0 = time.perf_counter()
    nl = pw.cubic()
    worst_zeta = 0.0
    worst_field = 0.0
    rng = np.random.default_rng(11)
    for q in (-1.0, 0.0, 1.0):
        state = pw.stationary_data(q, nl)
        H0 = energy(state, None, 0.0).total
        trunc = pw.build_truncation(nl, amplitude_bound(nl, H0))
        history = pw.integrate(state, trunc, pw.ODEConfig(t_final=50.0))
        for s in np.linspace(0.0, 50.0, 501):
            worst_zeta = max(worst_zeta, abs(zeta_at(history, float(s))[0] - q))
        for r, t in zip(rng.uniform(0.05, 8.0, 100), rng.uniform(0.0, 50.0, 100)):
            fs = psi_total(state, history, float(r), float(t))
            worst_field = max(worst_field, abs(fs.psi - q / (FOUR_PI * float(r))))
    elapsed = time.perf_counter() - t0
    ok = worst_zeta <= 1e-10 and worst_field <= 1e-12 and elapsed < 5.0
    _report(
        1,
        "stationary persistence",
        ok,
        f"max|zeta-q|={worst_zeta:.2e} max|psi-qG|={worst_field:.2e} "
        f"runtime={elapsed:.1f}s",
    )


def test_criterion_02_energy_conservation(reference50):
    # the audit quadrature runs at 1e-13 so its own noise sits well below the
    # tolerance-controlled dense-output error being measured
    t0 = time.perf_counter()
    state, trunc, history, H0 = reference50
    H0 = energy(state, None, 0.0, quad_tol=1e-13).total
    times = (1.0, 5.0, 10.0, 20.0)
    drift = max(
        abs(energy(state, history, t, quad_tol=1e-13).total - H0) for t in times
    ) / abs(H0)

    # 10x tighter ODE tolerance must not worsen conservation
    state_t, _, history_t, _ = run_reference(20.0, rel_tol=1e-12)
    H0_t = energy(state_t, None, 0.0, quad_tol=1e-13).total
    drift_t = max(
        abs(energy(state_t, history_t, t, quad_tol=1e-13).total - H0_t) for t in times
    ) / abs(H0_t)
    elapsed = time.perf_counter() - t0
    ok = drift <= 1e-6 and drift_t < drift and elapsed < 30.0
    _report(
        2,
        "energy conservation",
        ok,
        f"drift={drift:.2e} drift(tol/10)={drift_t:.2e} runtime={elapsed:.1f}s",
    )


def test_criterion_03_strong_huygens():
    t0 = time.perf_counter()
    state = make_reference_state()
    worst = 0.0
    for r in np.linspace(0.05, 5.0, 50):
        for off in np.linspace(0.0, 8.0, 50):
            worst = max(worst, abs(psi_G_eval(state, float(r), float(r) + 2.0 + float(off))))

    # independent check: free evolution of the cutoff-singular data on the grid
    worst_fd = {}
    for h in (1.0 / 128, 1.0 / 256):
        probe = bare_singular_data(0.5, 0.3)
        run = fd_oracle.run(probe, None, T=8.0, h=h, R=10.0, snapshot_times=(5.0, 8.0))
        w = 0.0
        for t, u in run.snapshots.items():
            mask = (run.grid.r >= 0.2) & (run.grid.r <= t - 2.0)
            w = max(w, float(np.max(np.abs(u[mask] / run.grid.r[mask]))))
        worst_fd[h] = w
    elapsed = time.perf_counter() - t0
    ok = (
        worst <= 1e-13
        and all(w <= h * h for h, w in worst_fd.items())
        and elapsed < 10.0
    )
    _report(
        3,
        "strong Huygens support",
        ok,
        f"closed-form max={worst:.2e} fd max={max(worst_fd.values()):.2e} "
        f"runtime={elapsed:.1f}s",
    )


def test_criterion_04_trace_support():
    state = make_reference_state()
    jets = [lambda_at(state, float(t)) for t in np.linspace(2.0001, 50.0, 200)]
    worst = max(abs(lam) for lam, _ in jets)
    worst_prime = max(abs(dlam) for _, dlam in jets)
    ok = worst <= 1e-12 and worst_prime == 0.0
    detail = f"max|lambda|={worst:.2e} max|lambda'|={worst_prime:.2e} for t > 2"
    _report(4, "trace support expiry", ok, detail)


def test_criterion_05_global_attraction(reference50):
    t0 = time.perf_counter()
    state, trunc, history, H0 = reference50
    res = pw.detect_limit(history, state.nl)
    z50, _ = zeta_at(history, 50.0)
    d = {t: distance_to_stationary(state, history, t, 1.0, 2.0)[0] for t in (2.0, 10.0, 50.0)}

    state_m, _, history_m, _ = run_reference(50.0, mirror=True)
    res_m = pw.detect_limit(history_m, state_m.nl)
    elapsed = time.perf_counter() - t0
    ok = (
        res.converged
        and res.q_plus == pytest.approx(1.0, abs=1e-6)
        and abs(state.nl.F(z50)) <= 1e-8
        and d[10.0] < d[2.0]
        and d[50.0] <= d[10.0]
        and d[50.0] <= 1e-11
        and res_m.converged
        and res_m.q_plus == pytest.approx(-1.0, abs=1e-6)
        and elapsed < 60.0
    )
    _report(
        5,
        "global attraction",
        ok,
        f"q+={res.q_plus} |F(z(50))|={abs(state.nl.F(z50)):.2e} "
        f"d_pos={d[2.0]:.2e}>{d[10.0]:.2e}>={d[50.0]:.2e} mirrored q+={res_m.q_plus} "
        f"runtime={elapsed:.1f}s",
    )


def test_criterion_06_a_priori_bound():
    margins = {}
    flags = {}
    for cfg_path in sorted(SCENARIO_DIR.glob("*.cfg")):
        scenario = load_config(cfg_path)
        result = run_scenario(scenario, out_dir=None)
        margins[scenario.name] = result.report.lambda_margin
        flags[scenario.name] = result.history.truncation_activated
    ok = all(m > 0.0 for m in margins.values()) and not any(flags.values())
    detail = " ".join(f"{k}={v:.2e}" for k, v in margins.items())
    _report(6, "a priori amplitude bound", ok, detail)


def test_criterion_07_boundary_identity(reference50):
    state, trunc, history, H0 = reference50
    worst_f = 0.0
    worst_lam = 0.0
    for t in np.linspace(0.137, 10.0, 50):
        t = float(t)
        z, zd = zeta_at(history, t)
        tr = regular_trace(state, history, t)
        worst_f = max(worst_f, abs(tr - state.nl.F(z)))
        worst_lam = max(worst_lam, abs(tr - (lambda_at(state, t)[0] - zd / FOUR_PI)))
    ok = worst_f <= 1e-6 and worst_lam <= 1e-6
    _report(
        7,
        "origin boundary identity",
        ok,
        f"max|trace-F|={worst_f:.2e} max|trace-(lam-zdot/4pi)|={worst_lam:.2e}",
    )


def test_criterion_08_reduced_equation_closed_form(silent_state):
    trunc = pw.build_truncation(silent_state.nl, 2.0)
    history = pw.integrate(silent_state, trunc, pw.ODEConfig(t_final=1.0))
    worst = 0.0
    for s in np.linspace(0.0, 1.0, 401):
        z, _ = zeta_at(history, float(s))
        worst = max(worst, abs(z - math.exp(-FOUR_PI * float(s))))
    ok = worst <= 1e-8
    _report(8, "reduced equation closed form", ok, f"max|zeta-exp(-4 pi t)|={worst:.2e}")


def test_criterion_09_oracle_agreement(reference50):
    t0 = time.perf_counter()
    state, trunc, history, H0 = reference50
    rels = {}
    rels_x = {}
    for fac in (1, 2):
        h = 8.0 / (4096 * fac)
        run = fd_oracle.run(state, trunc, T=10.0, h=h, R=8.0, snapshot_times=(10.0,))
        rels[fac], rels_x[fac] = fd_oracle.compare(state, history, run, 10.0, 8.0)
    ratio = rels_x[2] / rels_x[1]
    elapsed = time.perf_counter() - t0
    ok = rels[1] <= 1e-3 and 0.2 <= ratio <= 0.35 and elapsed < 120.0
    _report(
        9,
        "FD oracle agreement",
        ok,
        f"rel_l2={rels[1]:.2e} cone-excluded ratio={ratio:.3f} runtime={elapsed:.1f}s",
    )


def test_criterion_10_lyapunov_decay(reference50):
    state, trunc, history, H0 = reference50
    U = state.nl.U
    mask = history.times >= 2.0  # source support has expired
    u_vals = np.array([U(z) for z in history.values[mask]])
    worst_rise = float(np.max(np.diff(u_vals))) if len(u_vals) > 1 else 0.0
    ok = worst_rise <= 1e-12
    _report(10, "source-free potential descent", ok, f"max step rise={worst_rise:.2e}")
