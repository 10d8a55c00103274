import ast
import math
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import pointwave as pw
from pointwave import fd_oracle
from pointwave.fd_oracle import OracleError, huygens_probe_state, interior_energy
from pointwave.free_wave import lambda_at
from pointwave.initial_data import (
    FOUR_PI,
    CallableBump,
    InitialState,
    RadialProfile,
    ZERO_PROFILE,
)
from pointwave.zeta_dynamics import zeta_at


def silent_linear_state(z0=1.0):
    """Linear force, trace-free data: the amplitude decays as exp(-4 pi t)."""
    from pointwave.cutoff import chi, chi_prime

    phi = RadialProfile(
        bump=CallableBump(
            value_fn=lambda r: z0 * chi(r),
            d1_fn=lambda r: z0 * chi_prime(r),
            d2_fn=lambda r: 0.0,
            support_radius=2.0,
        )
    )
    pi = RadialProfile(
        bump=CallableBump(
            value_fn=lambda r: -z0 * chi_prime(r) * (1.0 + 1.0 / (FOUR_PI * r))
            if r > 0.0
            else 0.0,
            d1_fn=lambda r: 0.0,
            d2_fn=lambda r: 0.0,
            support_radius=2.0,
        )
    )
    return pw.make_initial_state(phi, pi, z0, -FOUR_PI * z0, pw.linear())


class TestInit:
    def test_stationary_profile(self):
        state = pw.stationary_data(1.0, pw.cubic())
        trunc = pw.build_truncation(pw.cubic(), 1.5)
        _, u0, u1 = fd_oracle.init_grid(state, trunc, h=0.05, R=6.0)
        assert np.allclose(u0, 1.0 / FOUR_PI, atol=1e-15)
        assert np.allclose(u1, 1.0 / FOUR_PI, atol=1e-12)

    def test_zero_state(self):
        state = pw.make_initial_state(ZERO_PROFILE, ZERO_PROFILE, 0.0, 0.0, pw.cubic())
        trunc = pw.build_truncation(pw.cubic(), 1.0)
        _, u0, u1 = fd_oracle.init_grid(state, trunc, h=0.05, R=6.0)
        assert np.all(u0 == 0.0)
        assert np.all(u1 == 0.0)

    def test_bump_sampling(self, ref_state):
        trunc = pw.build_truncation(pw.cubic(), 1.6)
        grid, u0, _ = fd_oracle.init_grid(ref_state, trunc, h=0.01, R=8.0)
        assert u0[0] == pytest.approx(0.5 / FOUR_PI, rel=1e-15)
        for j in (1, 57, 313):
            r = grid.r[j]
            assert u0[j] == pytest.approx(r * ref_state.psi0(r), rel=1e-14)

    def test_grid_too_small(self, ref_state):
        trunc = pw.build_truncation(pw.cubic(), 1.6)
        with pytest.raises(OracleError):
            fd_oracle.init_grid(ref_state, trunc, h=0.05, R=1.5)


def test_stationary_trace_constant():
    state = pw.stationary_data(1.0, pw.cubic())
    trunc = pw.build_truncation(pw.cubic(), 1.5)
    run = fd_oracle.run(state, trunc, T=5.0, h=0.025, R=6.0)
    assert float(np.max(np.abs(run.trace - 1.0))) < 1e-12


def _leapfrog(state, trunc, T, h, R):
    """Reference: the full-array leapfrog march; returns every level u^n."""
    _, up, uc = fd_oracle.init_grid(state, trunc, h, R)
    levels = [up, uc]
    for _ in range(2, int(round(T / h)) + 1):
        un = np.empty_like(uc)
        un[1:-1], un[-1] = uc[2:] + uc[:-2] - up[1:-1], uc[-2]
        un[0] = 0.0 if trunc is None else fd_oracle._robin_solve(trunc, un[1], un[2], h, uc[0])
        up, uc = uc, un
        levels.append(uc)
    return np.array(levels)


@pytest.mark.parametrize("case", ["interacting", "free"])
def test_run_matches_full_array_leapfrog(ref_state, case):
    # the recurrence is the leapfrog's arithmetic reordered: rounding apart,
    # it must reproduce every node, before, at and after the first cone
    # reaches R = 6
    if case == "interacting":
        state, trunc = ref_state, pw.build_truncation(pw.cubic(), 1.6)
    else:
        state, trunc = huygens_probe_state(1.0, 0.5), None
    h, times = 1.0 / 64, (0.0, 1.0 / 64, 2.0 / 64, 1.0, 3.0, 6.0, 9.0)
    run = fd_oracle.run(state, trunc, T=9.0, h=h, R=6.0, snapshot_times=times)
    levels = _leapfrog(state, trunc, 9.0, h, 6.0)
    assert float(np.max(np.abs(run.trace - FOUR_PI * levels[:, 0]))) <= 1e-13
    for t in times:
        assert float(np.max(np.abs(run.snapshots[t] - levels[int(round(t / h))]))) <= 1e-13


def test_outflow_transparency():
    # the probe's free evolution vanishes for t >= r + 2, so at T = 14 nothing
    # may be left in r <= 10: a reflection at R would leave energy behind
    h = 1.0 / 64
    run = fd_oracle.run(
        huygens_probe_state(1.0, 0.5), None, T=14.0, h=h, R=10.0,
        snapshot_times=(0.0, h, 14.0 - h, 14.0),
    )
    snap = run.snapshots
    e0 = interior_energy(run.grid, snap[0.0], snap[h], 10.0)
    assert e0 > 0.0
    assert interior_energy(run.grid, snap[14.0 - h], snap[14.0], 10.0) < 1e-10 * e0


@pytest.mark.parametrize("ts", [2.0, -0.5])
def test_snapshot_time_outside_run_refused(ts):
    state = huygens_probe_state(1.0, 0.5)
    with pytest.raises(OracleError, match=f"snapshot time {ts} is outside"):
        fd_oracle.run(state, None, T=1.0, h=1.0 / 32, R=4.0, snapshot_times=(ts,))


def test_second_order_convergence(ref_run):
    # exact transport leaves only the Taylor start and the one-sided boundary
    # solve, both second order: every halving of h divides the field and the
    # trace errors by 4
    state, trunc, hist = ref_run["state"], ref_run["trunc"], ref_run["history"]
    errs = []
    for k in range(4):
        h = 8.0 / 4096 / 2**k
        run = fd_oracle.run(state, trunc, T=10.0, h=h, R=8.0, snapshot_times=(10.0,))
        rel, rel_x = fd_oracle.compare(state, hist, run, 10.0, 8.0)
        trace_err = float(np.max(np.abs(run.trace - zeta_at(hist, run.times)[0])))
        errs.append((rel, rel_x, trace_err))
    ratios = np.array(errs[1:]) / np.array(errs[:-1])
    assert np.all((ratios[:, :2] >= 0.2) & (ratios[:, :2] <= 0.3)), ratios
    assert np.all((ratios[:, 2] >= 0.23) & (ratios[:, 2] <= 0.27)), ratios


SEMI_ANALYTIC = {"field_assembly", "free_wave", "zeta_dynamics"}


def test_march_is_independent_of_the_semi_analytic_solver():
    # only compare may reach the solver the oracle is meant to check
    tree = ast.parse(Path(fd_oracle.__file__).read_text(encoding="utf-8"))
    banned = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            module = (node.module or "").rsplit(".", 1)[-1]
            for alias in node.names:
                if module in SEMI_ANALYTIC or alias.name in SEMI_ANALYTIC:
                    banned.add(alias.asname or alias.name)
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.rsplit(".", 1)[-1] in SEMI_ANALYTIC:
                    banned.add(alias.asname or alias.name.split(".")[0])
    assert {"psi_total", "reduction"} <= banned
    functions = {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}
    for name in ("init_grid", "run", "_robin_solve"):
        used = {n.id for n in ast.walk(functions[name]) if isinstance(n, ast.Name)} & banned
        assert not used, f"{name} refers to {sorted(used)}"


def test_linear_force_trace_convergence():
    state = silent_linear_state()
    trunc = pw.build_truncation(pw.linear(), 2.0)
    T = 1.0
    errs = []
    first_step_errs = []
    for h in (1.0 / 256, 1.0 / 512, 1.0 / 1024):
        run = fd_oracle.run(state, trunc, T=T, h=h, R=4.0)
        exact = np.exp(-FOUR_PI * run.times)
        err = math.sqrt(
            np.trapezoid((run.trace - exact) ** 2, run.times)
            / np.trapezoid(exact**2, run.times)
        )
        errs.append(err)
        first_step_errs.append(abs(run.trace[1] - exact[1]))
    # global L2 error: second order (ratio ~ 1/4)
    assert errs[1] / errs[0] < 0.45
    assert errs[2] / errs[1] < 0.45
    # near t = 0 at least first order
    assert first_step_errs[1] / first_step_errs[0] < 0.7


def test_huygens_probe_free_mode():
    for h in (1.0 / 128, 1.0 / 256):
        state = huygens_probe_state(1.0, 0.5)
        run = fd_oracle.run(state, None, T=8.0, h=h, R=10.0, snapshot_times=(4.0, 6.0, 8.0))
        worst = 0.0
        for t, u in run.snapshots.items():
            mask = (run.grid.r >= 0.2) & (run.grid.r <= t - 2.0)
            if mask.any():
                worst = max(worst, float(np.max(np.abs(u[mask] / run.grid.r[mask]))))
        assert worst <= h * h


def test_discrete_trace_satisfies_reduced_equation(ref_state):
    trunc = pw.build_truncation(pw.cubic(), 1.6)
    residuals = []
    for h in (1.0 / 256, 1.0 / 512):
        run = fd_oracle.run(ref_state, trunc, T=3.0, h=h, R=6.0)
        tr, ts = run.trace, run.times
        worst = 0.0
        for n in range(len(ts) // 3, 2 * len(ts) // 3):
            dz = (tr[n + 1] - tr[n - 1]) / (2.0 * h)
            res = dz / FOUR_PI + ref_state.nl.F(tr[n]) - lambda_at(ref_state, ts[n])
            worst = max(worst, abs(res))
        residuals.append(worst)
    assert residuals[1] / residuals[0] < 0.7  # order >= 1
    assert residuals[0] < 1e-2


def test_compare_stationary_machine_exact(stationary_run):
    state, trunc, hist = (
        stationary_run["state"],
        stationary_run["trunc"],
        stationary_run["history"],
    )
    run = fd_oracle.run(state, trunc, T=4.0, h=0.02, R=6.0, snapshot_times=(4.0,))
    rel, rel_x = fd_oracle.compare(state, hist, run, 4.0, 5.0)
    assert rel < 1e-12
    assert rel_x < 1e-12


def test_newton_failure_reports():
    # F = z^3 - 1e6 z has min F' = F'(0) = -1e6, far below -3/(8 pi h) = -0.477
    # at h = 0.25: the boundary equation has several roots, so the oracle must
    # refuse the grid and name the step that would make the root unique
    wild = pw.from_coefficients([0.0, -1e6, 0.0, 1.0])
    state = InitialState(
        phi_c=ZERO_PROFILE, pi_c=ZERO_PROFILE, zeta0=1.0, zeta_dot0=0.8, nl=wild
    )
    trunc = pw.build_truncation(wild, 2.0)
    with pytest.raises(OracleError, match=r"h < 1\.19\de-07"):
        fd_oracle.run(state, trunc, T=2.0, h=0.25, R=8.0)


def test_boundary_solve_bracket_stops_newton_cycling():
    # F = 1e3 atan(z) is monotone (min F' = 0.4 on the window [-50, 50]), but
    # plain Newton from a saturated guess overshoots without end; the slope
    # bracket brings it back to the unique root u0 = 0.  No polynomial
    # saturates, so the force is a stub with the attributes _robin_solve reads
    trunc = SimpleNamespace(
        F=lambda z: 1e3 * math.atan(z),
        F_prime=lambda z: 1e3 / (1.0 + z * z),
        min_slope=1e3 / (1.0 + 50.0**2),
    )
    assert trunc.min_slope > 0.0
    for guess in (0.3, 1.0, 3.0):
        assert fd_oracle._robin_solve(trunc, 0.0, 0.0, 1.0, guess) == pytest.approx(0.0, abs=1e-15)
