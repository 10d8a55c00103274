"""Per-layer metrics from the records of one traced workload pass.

Each metric is a total over the workload's scenarios.  Names are
`<module>.<metric>` after the `pointwave` module the layer lives in.
"""

from __future__ import annotations

from collections import defaultdict

from tracer import self_times

# (name, unit) in report order; every workload reports all of them
METRICS = (
    ("zeta_dynamics.integrate_s", "s"),
    ("zeta_dynamics.steps_accepted", "count"),
    ("zeta_dynamics.steps_attempted", "count"),
    ("zeta_dynamics.accept_ratio", "ratio"),
    ("zeta_dynamics.steps_after_ts", "count"),
    ("zeta_dynamics.detect_limit_s", "s"),
    ("free_wave.lambda_at.calls", "count"),
    ("free_wave.lambda_at_s", "s"),
    ("free_wave.dispersive_batch.calls", "count"),
    ("free_wave.dispersive_batch_s", "s"),
    ("free_wave.dispersive_eval.calls", "count"),
    ("quadrature.panels", "count"),
    ("quadrature.points", "count"),
    ("quadrature.points_per_energy", "count"),
    ("field_assembly.energy.calls", "count"),
    ("field_assembly.energy.h0_s", "s"),
    ("field_assembly.energy.audit_s", "s"),
    ("field_assembly.energy.artifacts_s", "s"),
    ("field_assembly.psi_total.calls", "count"),
    ("field_assembly.psi_total_s", "s"),
    ("fd_oracle.run_s", "s"),
    ("fd_oracle.node_updates", "count"),
    ("fd_oracle.node_updates_per_s", "1/s"),
    ("fd_oracle.compare_s", "s"),
    ("fd_oracle.compare_nodes", "count"),
    ("runner.run_scenario_s", "s"),
    ("runner.huygens_s", "s"),
    ("runner.artifacts_s", "s"),
    ("runner.artifact_bytes", "bytes"),
    ("cli.workers", "count"),
    ("cli.pool_efficiency", "ratio"),
    ("scenario.load_config_s", "s"),
    ("initial_data.build_state_s", "s"),
    ("nonlinearity.amplitude_bound_s", "s"),
    ("nonlinearity.build_truncation_s", "s"),
    ("trace.wall_s", "s"),
    ("trace.untraced_wall_s", "s"),
    ("trace.overhead_s", "s"),
)
UNITS = dict(METRICS)

# disjoint stages of run_scenario, in pipeline order (artifacts_s includes
# energy.artifacts_s)
STAGES = (
    "initial_data.build_state_s",
    "field_assembly.energy.h0_s",
    "nonlinearity.amplitude_bound_s",
    "nonlinearity.build_truncation_s",
    "zeta_dynamics.integrate_s",
    "zeta_dynamics.detect_limit_s",
    "field_assembly.energy.audit_s",
    "runner.huygens_s",
    "fd_oracle.run_s",
    "fd_oracle.compare_s",
    "runner.artifacts_s",
)

# the stages that make up a scenario's audit, before any artifact is written
_AUDIT_STAGES = {
    "initial_data.build_state",
    "nonlinearity.amplitude_bound",
    "nonlinearity.build_truncation",
    "zeta_dynamics.integrate",
    "zeta_dynamics.detect_limit",
    "runner.huygens_forbidden_max",
    "fd_oracle.run",
    "fd_oracle.compare",
}


def _dur(span: dict) -> float:
    return span["end"] - span["start"]


def energy_stages(children: list[dict]) -> dict[int, str]:
    """Stage of each energy span among the children of one run_scenario span.

    h0: before `integrate`; audit: after `detect_limit` and before
    `huygens_forbidden_max`; artifacts: after it.
    """
    first = {}
    for s in sorted(children, key=lambda s: s["start"]):
        first.setdefault(s["name"], s)
    integrate = first.get("zeta_dynamics.integrate")
    huygens = first.get("runner.huygens_forbidden_max")
    out = {}
    for s in children:
        if s["name"] != "field_assembly.energy":
            continue
        if integrate is None or s["start"] < integrate["start"]:
            out[s["id"]] = "h0"
        elif huygens is None or s["start"] < huygens["start"]:
            out[s["id"]] = "audit"
        else:
            out[s["id"]] = "artifacts"
    return out


def layer_metrics(trace: dict, wall_s: float, untraced_wall_s: float, workers: int,
                  artifact_bytes: int) -> dict[str, float]:
    spans = trace["spans"]
    by_name: dict[str, list[dict]] = defaultdict(list)
    children: dict[int, list[dict]] = defaultdict(list)
    for s in spans:
        by_name[s["name"]].append(s)
        children[s["parent"]].append(s)
    hot_calls: dict[str, int] = defaultdict(int)
    hot_secs: dict[str, float] = defaultdict(float)
    calls_in: dict[tuple[str, int], int] = defaultdict(int)
    for name, sid, calls, secs in trace["hot"]:
        hot_calls[name] += calls
        hot_secs[name] += secs
        calls_in[(name, sid)] += calls
    points = sum(n for name, _sid, n in trace["counts"] if name == "quadrature.points")

    def total(name: str) -> float:
        return sum(_dur(s) for s in by_name[name])

    def span_count(name: str, key: str) -> int:
        return sum(s.get("counts", {}).get(key, 0) for s in by_name[name])

    integrates = by_name["zeta_dynamics.integrate"]
    accepted = span_count("zeta_dynamics.integrate", "steps_accepted")
    # one source evaluation to start, then six per attempted DP5 step (FSAL)
    attempted = sum(
        (calls_in[("free_wave.lambda_at", s["id"])] - 1) // 6 for s in integrates
    )

    energy_s = {"h0": 0.0, "audit": 0.0, "artifacts": 0.0}
    artifacts_s = 0.0
    for run in by_name["runner.run_scenario"]:
        kids = children[run["id"]]
        stages = energy_stages(kids)
        for s in kids:
            if s["id"] in stages:
                energy_s[stages[s["id"]]] += _dur(s)
        audit_ends = [
            s["end"] for s in kids
            if s["name"] in _AUDIT_STAGES or stages.get(s["id"]) in ("h0", "audit")
        ]
        artifacts_s += run["end"] - max(audit_ends, default=run["start"])

    energies = len(by_name["field_assembly.energy"])
    run_s = total("fd_oracle.run")
    node_updates = span_count("fd_oracle.run", "node_updates")
    compare_ids = {s["id"] for s in by_name["fd_oracle.compare"]}
    run_scenario_s = total("runner.run_scenario")
    return {
        "zeta_dynamics.integrate_s": total("zeta_dynamics.integrate"),
        "zeta_dynamics.steps_accepted": accepted,
        "zeta_dynamics.steps_attempted": attempted,
        "zeta_dynamics.accept_ratio": accepted / attempted if attempted else 0.0,
        "zeta_dynamics.steps_after_ts": span_count("zeta_dynamics.integrate", "steps_after_ts"),
        "zeta_dynamics.detect_limit_s": total("zeta_dynamics.detect_limit"),
        "free_wave.lambda_at.calls": hot_calls["free_wave.lambda_at"],
        "free_wave.lambda_at_s": hot_secs["free_wave.lambda_at"],
        "free_wave.dispersive_batch.calls": hot_calls["free_wave.dispersive_batch"],
        "free_wave.dispersive_batch_s": hot_secs["free_wave.dispersive_batch"],
        "free_wave.dispersive_eval.calls": hot_calls["free_wave.dispersive_eval"],
        "quadrature.panels": hot_calls["quadrature.integrate_panel"],
        "quadrature.points": points,
        "quadrature.points_per_energy": points / energies if energies else 0.0,
        "field_assembly.energy.calls": energies,
        "field_assembly.energy.h0_s": energy_s["h0"],
        "field_assembly.energy.audit_s": energy_s["audit"],
        "field_assembly.energy.artifacts_s": energy_s["artifacts"],
        "field_assembly.psi_total.calls": hot_calls["field_assembly.psi_total"],
        "field_assembly.psi_total_s": hot_secs["field_assembly.psi_total"],
        "fd_oracle.run_s": run_s,
        "fd_oracle.node_updates": node_updates,
        "fd_oracle.node_updates_per_s": node_updates / run_s if run_s else 0.0,
        "fd_oracle.compare_s": total("fd_oracle.compare"),
        "fd_oracle.compare_nodes": sum(
            calls_in[("field_assembly.psi_total", sid)] for sid in compare_ids
        ),
        "runner.run_scenario_s": run_scenario_s,
        "runner.huygens_s": total("runner.huygens_forbidden_max"),
        "runner.artifacts_s": artifacts_s,
        "runner.artifact_bytes": artifact_bytes,
        "cli.workers": workers,
        "cli.pool_efficiency": run_scenario_s / (workers * wall_s) if wall_s else 0.0,
        "scenario.load_config_s": total("scenario.load_config"),
        "initial_data.build_state_s": total("initial_data.build_state"),
        "nonlinearity.amplitude_bound_s": total("nonlinearity.amplitude_bound"),
        "nonlinearity.build_truncation_s": total("nonlinearity.build_truncation"),
        "trace.wall_s": wall_s,
        "trace.untraced_wall_s": untraced_wall_s,
        "trace.overhead_s": wall_s - untraced_wall_s,
    }


def self_time_by_name(trace: dict) -> dict[str, float]:
    """Self seconds per stage name, summed over its spans, largest first."""
    selfs = self_times(trace["spans"])
    out: dict[str, float] = defaultdict(float)
    for s in trace["spans"]:
        out[s["name"]] += selfs[s["id"]]
    return dict(sorted(out.items(), key=lambda kv: -kv[1]))


def hot_totals(trace: dict) -> dict[str, tuple[int, float]]:
    """(calls, inclusive seconds) per hot-call name, largest first."""
    out: dict[str, list] = defaultdict(lambda: [0, 0.0])
    for name, _sid, calls, secs in trace["hot"]:
        out[name][0] += calls
        out[name][1] += secs
    return {k: tuple(v) for k, v in sorted(out.items(), key=lambda kv: -kv[1][1])}
