"""Tests of the benchmark's own arithmetic, inputs and failure accounting.

    PYTHONPATH=src python3 -m pytest -q perfbench
"""

from __future__ import annotations

import json
import re
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import inputs  # noqa: E402
import layers  # noqa: E402
import run  # noqa: E402
import tracer as tracing  # noqa: E402
import workload  # noqa: E402

import pointwave.zeta_dynamics as zeta_dynamics  # noqa: E402
from pointwave import ODEConfig, PolynomialBump, RadialProfile, build_truncation  # noqa: E402
from pointwave import cubic, energy, make_initial_state  # noqa: E402
from pointwave.runner import amplitude_bound  # noqa: E402
from pointwave.scenario import load_config  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")

REFERENCE_CFG = """# reference data
name = {name}
nonlinearity.kind = cubic
data.kind = bump
data.rho = 1.0
data.zeta0 = 0.5
data.zeta_dot0 = 0.3
ode.t_final = {t_final}
"""


def _span(sid, parent, start, end, hot=0.0):
    return {"id": sid, "name": f"s{sid}", "start": start, "end": end, "parent": parent,
            "scenario": None, "hot_child_s": hot}


def test_self_time_subtracts_children_and_hot_calls():
    # 1 [0, 10] has children 2 [1, 4] and 3 [5, 9]; 3 has child 4 [6, 7]
    # and 0.5 s of hot calls; 2 has 1 s of hot calls
    spans = [
        _span(1, tracing.NO_PARENT, 0.0, 10.0),
        _span(2, 1, 1.0, 4.0, hot=1.0),
        _span(3, 1, 5.0, 9.0, hot=0.5),
        _span(4, 3, 6.0, 7.0),
    ]
    got = tracing.self_times(spans)
    assert got == pytest.approx({1: 3.0, 2: 2.0, 3: 2.5, 4: 1.0})
    assert sum(got.values()) + 1.5 == pytest.approx(10.0)


def test_stage_and_hot_wrappers_record_nesting():
    tr = tracing.Tracer()
    leaf = tr.hot_call("leaf", lambda x: x + 1)
    inner = tr.stage("inner", lambda: leaf(1) + leaf(2))
    outer = tr.stage("outer", lambda: inner() + leaf(3))
    assert outer() == 9
    names = {s["name"]: s for s in tr.spans}
    assert names["inner"]["parent"] == names["outer"]["id"]
    calls = {(n, sid): c for (n, sid), (c, _s) in tr.hot.items()}
    assert calls == {("leaf", names["inner"]["id"]): 2, ("leaf", names["outer"]["id"]): 1}
    selfs = tracing.self_times(tr.spans)
    assert all(v >= 0.0 for v in selfs.values())


def test_attempted_steps_formula_matches_short_integrate(monkeypatch):
    nl = cubic()
    state = make_initial_state(
        RadialProfile(bump=PolynomialBump(amplitude=nl.F(0.5), support_radius=1.0)),
        RadialProfile(), 0.5, 0.3, nl,
    )
    trunc = build_truncation(nl, amplitude_bound(nl, energy(state, None, 0.0).total))
    times = []
    original = zeta_dynamics.lambda_at

    def recording(st, t):
        times.append(t)
        return original(st, t)

    tr = tracing.Tracer()
    monkeypatch.setattr(zeta_dynamics, "lambda_at", tr.hot_call("free_wave.lambda_at", recording))
    integrate = tr.stage("zeta_dynamics.integrate", zeta_dynamics.integrate,
                         tracing._integrate_counts)
    history = integrate(state, trunc, ODEConfig(t_final=0.5, rel_tol=1e-6, abs_tol=1e-8))

    m = layers.layer_metrics(tr.dump(), 1.0, 1.0, 1, 0)
    # every attempted DP5 step evaluates its last two stages at the same time
    # t + dt, and no other two consecutive source calls coincide
    attempts = sum(1 for a, b in zip(times, times[1:]) if a == b)
    assert (len(times) - 1) % 6 == 0
    assert m["zeta_dynamics.steps_attempted"] == attempts
    assert m["zeta_dynamics.steps_accepted"] == len(history.times) - 1
    assert attempts >= m["zeta_dynamics.steps_accepted"] > 0
    assert m["free_wave.lambda_at.calls"] == len(times)


def test_metric_names_and_units_are_well_formed():
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    declared_e2e = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    declared_layer = {m["name"]: m["unit"] for m in bench["per_layer"]}
    assert declared_e2e == run.END_TO_END_UNITS
    assert declared_layer == layers.UNITS
    for name, unit in {**declared_e2e, **declared_layer}.items():
        assert NAME.match(name), name
        assert UNIT.match(unit), unit
    assert [w["name"] for w in bench["workloads"]] == list(run.WORKLOADS)


def test_seeded_inputs(tmp_path):
    src = tmp_path / "src"
    src.mkdir()
    (src / "a.cfg").write_text(REFERENCE_CFG.format(name="a", t_final=50.0))
    (src / "b.cfg").write_text("name = b\ndata.kind = stationary\ndata.q = 1.0\n")
    sources = sorted(src.glob("*.cfg"))
    default = inputs.generate(inputs.DEFAULT_SEED, "x", sources, tmp_path / "d")
    assert [p.read_text() for p in default] == [p.read_text() for p in sources]
    first = inputs.generate(7, "x", sources, tmp_path / "s1")
    again = inputs.generate(7, "x", sources, tmp_path / "s2")
    assert [p.read_text() for p in first] == [p.read_text() for p in again]
    scaled = load_config(first[0])
    assert scaled.zeta0 != 0.5 and abs(scaled.zeta0 / 0.5 - 1.0) <= inputs.MAX_REL_SCALE
    assert abs(scaled.zeta_dot0 / 0.3 - 1.0) <= inputs.MAX_REL_SCALE
    assert first[1].read_text() == sources[1].read_text()


def test_failing_configs_are_counted_not_raised(tmp_path):
    # T = 0.5 < t_s = 2: the amplitude cannot settle, so the verdict fails;
    # quad.radius = 2.5 < T + support raises a ValueError inside the audit
    (tmp_path / "short.cfg").write_text(REFERENCE_CFG.format(name="short", t_final=0.5))
    (tmp_path / "radius.cfg").write_text(
        REFERENCE_CFG.format(name="radius", t_final=3.0) + "quad.radius = 2.5\n"
    )
    scenarios = [load_config(p) for p in sorted(tmp_path.glob("*.cfg"))]
    outcome = workload.run_library(scenarios, tmp_path)
    assert not outcome["short"]["ok"] and outcome["short"]["report"] is not None
    assert not outcome["radius"]["ok"] and "ValueError" in outcome["radius"]["error"]
    assert run._tally([{"scenarios": outcome}]) == (2, 2)


def test_q_plus_is_checked_against_a_stored_reference_for_every_config():
    configs = sorted((HERE.parent / "scenarios").glob("*.cfg")) + [HERE / "oracle.cfg"]
    ref = checks.load_reference()
    assert {load_config(p).name for p in configs} <= set(ref["q_plus"])
    ok = {"ok": True, "report": {"q_plus": 1.0, "oracle_rel_l2": 1e-10}, "error": None}
    assert checks.check_outcomes("oracle", {"a": ok}, {"q_plus": {"a": 1.0}}) == []
    # the wrong zero of F, or no stored value at all, fails the check
    assert checks.check_outcomes("oracle", {"a": ok}, {"q_plus": {"a": -1.0}}) == [
        "a: q_plus 1.0 != reference -1.0"
    ]
    assert checks.check_outcomes("oracle", {"a": ok}, {"q_plus": {}}) == [
        "a: no reference q_plus"
    ]


def test_calibrator_reports_a_speed_and_ends():
    proc = workload.start_calibrator()
    assert workload.stop_calibrator(proc) > 0.0
    assert proc.returncode == 0
