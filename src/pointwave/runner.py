"""Scenario pipeline: build state, bound the amplitude, integrate, audit, write.

The amplitude bound fed to the force truncation is computed from the initial
energy plus a tiny positive pad (1e-6 relative); for exact rest states the
sublevel set of U at the bare energy degenerates to isolated points and the
bound would sit exactly on the trajectory, so the pad keeps the truncation
window strictly larger than the a priori range without weakening the bound
check in any meaningful way.

Outputs per scenario: zeta.csv (t, zeta, zeta_dot, lambda, F, H),
field_t*.csv snapshots, report.json.  All data files are bit-reproducible
for a fixed config; wall-clock time appears only in the report metadata.
"""

from __future__ import annotations

import json
import math
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import fd_oracle
from .field_assembly import energy, psi_total
from .free_wave import lambda_at, psi_G_eval
from .initial_data import (
    FOUR_PI,
    InitialState,
    PolynomialBump,
    RadialProfile,
    SplineBump,
    ZERO_BUMP,
    make_initial_state,
    stationary_data,
)
from .nonlinearity import (
    Nonlinearity,
    TruncatedNonlinearity,
    build_truncation,
    lambda_bound,
    make_nonlinearity,
)
from .scenario import Scenario
from .zeta_dynamics import ODEConfig, ZetaHistory, integrate, zeta_at

ENERGY_PAD_REL = 1e-6


@dataclass(frozen=True)
class ScenarioReport:
    scenario: str
    q_plus: float | None
    converged: bool
    F_residual: float
    energy_drift_rel: float
    huygens_max_abs: float
    lambda_margin: float
    oracle_rel_l2: float | None
    oracle_rel_l2_cone_excluded: float | None
    wall_seconds: float

    def to_json_dict(self) -> dict:
        return {
            "scenario": self.scenario,
            "q_plus": self.q_plus,
            "converged": self.converged,
            "F_residual": self.F_residual,
            "energy_drift_rel": self.energy_drift_rel,
            "huygens_max_abs": self.huygens_max_abs,
            "lambda_margin": self.lambda_margin,
            "oracle_rel_l2": self.oracle_rel_l2,
            "oracle_rel_l2_cone_excluded": self.oracle_rel_l2_cone_excluded,
            "wall_seconds": self.wall_seconds,
        }


@dataclass(eq=False)
class RunResult:
    report: ScenarioReport
    ok: bool
    state: InitialState
    trunc: TruncatedNonlinearity
    history: ZetaHistory
    H0: float
    energies: dict[float, float]
    failures: tuple[str, ...]


def build_state(s: Scenario, base_dir: str | Path | None = None) -> tuple[Nonlinearity, InitialState]:
    """Nonlinearity and validated initial state for a scenario."""
    nl = make_nonlinearity(s.nonlinearity_kind, s.coefficients)
    if s.data_kind == "stationary":
        return nl, stationary_data(s.q, nl)
    if s.data_kind == "spline":
        phi_bump = (
            SplineBump.from_file(Path(base_dir or ".", s.phi_file)) if s.phi_file else ZERO_BUMP
        )
        pi_bump = (
            SplineBump.from_file(Path(base_dir or ".", s.pi_file)) if s.pi_file else ZERO_BUMP
        )
    else:
        amplitude = s.amplitude if s.amplitude is not None else nl.eval(s.zeta0)[1]
        phi_bump = PolynomialBump(amplitude=amplitude, support_radius=s.rho)
        pi_bump = PolynomialBump(amplitude=s.pi_amplitude, support_radius=s.pi_rho)
    state = make_initial_state(
        phi_c=RadialProfile(bump=phi_bump, tail=s.tail_phi),
        pi_c=RadialProfile(bump=pi_bump, tail=s.tail_pi),
        zeta0=s.zeta0,
        zeta_dot0=s.zeta_dot0,
        nl=nl,
    )
    return nl, state


def amplitude_bound(nl: Nonlinearity, H0: float) -> float:
    """Padded amplitude bound used by the pipeline (see module docstring)."""
    return lambda_bound(nl, H0 + ENERGY_PAD_REL * max(1.0, abs(H0)))


def huygens_forbidden_max(state: InitialState, n: int = 50) -> float:
    """Max |psi_G| on an n x n grid of the sharp-support (forbidden) region."""
    r, off = np.meshgrid(np.linspace(0.1, 4.0, n), np.linspace(0.0, 6.0, n), indexing="ij")
    return float(np.max(np.abs(psi_G_eval(state, r, r + 2.0 + off))))


def _fmt(x: float) -> str:
    return f"{x:.16e}"


def _write_zeta_csv(path: Path, s: Scenario, state: InitialState, history: ZetaHistory) -> None:
    rows = ["t,zeta,zeta_dot,lambda,F,H"]
    h_tol = max(s.quad_tol, 1e-9)
    for t in np.linspace(0.0, s.t_final, s.csv_rows):
        t = float(t)
        z, zd = zeta_at(history, t)
        lam = lambda_at(state, t)
        f_val = state.nl.F(z)
        h_val = energy(state, history, t, s.quad_radius, h_tol).total
        rows.append(",".join(_fmt(v) for v in (t, z, zd, lam, f_val, h_val)))
    path.write_text("\n".join(rows) + "\n", encoding="utf-8")


def _write_snapshot_csv(
    path: Path, s: Scenario, state: InitialState, history: ZetaHistory, t: float
) -> None:
    r_max = s.snapshot_r_max if s.snapshot_r_max is not None else t + state.support_radius + 1.0
    radii = np.linspace(r_max / s.snapshot_points, r_max, s.snapshot_points)
    fs = psi_total(state, history, radii, t)
    rows = ["r,psi,psi_dot,psi_f,psi_S,psi_reg"] + [
        ",".join(_fmt(v) for v in row)
        for row in zip(fs.r, fs.psi, fs.psi_dot, fs.psi_f, fs.psi_S, fs.psi_reg)
    ]
    path.write_text("\n".join(rows) + "\n", encoding="utf-8")


def run_scenario(
    s: Scenario, out_dir: str | Path | None = None, base_dir: str | Path | None = None
) -> RunResult:
    """Execute the pipeline and (optionally) write the scenario artifacts."""
    t_start = time.perf_counter()
    from .zeta_dynamics import detect_limit

    nl, state = build_state(s, base_dir)
    H0 = energy(state, None, 0.0, s.quad_radius, s.quad_tol).total
    Lambda = amplitude_bound(nl, H0)
    trunc = build_truncation(nl, Lambda)
    cfg = ODEConfig(
        rel_tol=s.rel_tol, abs_tol=s.abs_tol, max_step=s.max_step, t_final=s.t_final
    )
    history = integrate(state, trunc, cfg)

    limit = detect_limit(history, nl)
    energies = {0.0: H0}
    for t in sorted({*(t for t in s.energy_times if 0.0 < t <= s.t_final), s.t_final}):
        energies[t] = energy(state, history, t, s.quad_radius, s.quad_tol).total
    denom = abs(H0) if abs(H0) > 1e-9 else 1.0
    drift = max(abs(h - H0) for h in energies.values()) / denom

    huygens_max = huygens_forbidden_max(state)
    margin = Lambda - history.max_abs()

    failures = []
    oracle_rel = None
    oracle_rel_x = None
    if s.oracle_enabled:
        t_or = s.oracle_time if s.oracle_time is not None else min(10.0, s.t_final)
        h_or = s.oracle_h if s.oracle_h is not None else s.oracle_R / 4096.0
        try:
            orun = fd_oracle.run(
                state, trunc, T=t_or, h=h_or, R=s.oracle_R, snapshot_times=(t_or,)
            )
            oracle_rel, oracle_rel_x = fd_oracle.compare(state, history, orun, t_or, s.oracle_R)
        except fd_oracle.OracleError as exc:
            failures.append(f"oracle failed: {exc}")

    if s.check_require_convergence and not limit.converged:
        failures.append(
            f"amplitude did not settle: no certified limit for T = {history.horizon:g}, "
            f"t_s = {history.source_expiry:g}{' (oscillating)' if limit.oscillating else ''}"
        )
    if drift > s.check_energy_drift:
        failures.append(f"energy drift {drift:.3e} > {s.check_energy_drift:.3e}")
    if not margin > 0.0:
        failures.append(f"amplitude bound margin {margin:.3e} is not positive")
    if history.truncation_activated:
        failures.append("truncated force region was entered")
    if huygens_max > s.check_huygens_max:
        failures.append(f"sharp support violated: max |psi_G| = {huygens_max:.3e}")
    if oracle_rel is not None and oracle_rel > s.check_oracle_rel_l2:
        failures.append(f"oracle discrepancy {oracle_rel:.3e} > {s.check_oracle_rel_l2:.3e}")

    report = ScenarioReport(
        scenario=s.name,
        q_plus=limit.q_plus if math.isfinite(limit.q_plus) else None,
        converged=limit.converged,
        F_residual=limit.residual,
        energy_drift_rel=drift,
        huygens_max_abs=huygens_max,
        lambda_margin=margin,
        oracle_rel_l2=oracle_rel,
        oracle_rel_l2_cone_excluded=oracle_rel_x,
        wall_seconds=time.perf_counter() - t_start,
    )

    if out_dir is not None:
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        _write_zeta_csv(out / "zeta.csv", s, state, history)
        for t in s.snapshot_times:
            if 0.0 < t <= s.t_final:
                _write_snapshot_csv(out / f"field_t{t:g}.csv", s, state, history, float(t))
        (out / "report.json").write_text(
            json.dumps(report.to_json_dict(), indent=2, sort_keys=True) + "\n",
            encoding="utf-8",
        )

    return RunResult(
        report=report,
        ok=not failures,
        state=state,
        trunc=trunc,
        history=history,
        H0=H0,
        energies=energies,
        failures=tuple(failures),
    )
