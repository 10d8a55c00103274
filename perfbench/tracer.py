"""Timing wrappers installed on `pointwave` from outside the package.

The package's modules bind their collaborators with `from ... import`, so a
wrapper must replace the name where it is called (the call site), not where
it is defined.  Two kinds of wrapper exist:

* stage wrappers record one span per call: name, start, end, parent span,
  scenario, plus the seconds covered by hot calls made directly inside it;
* hot wrappers sit on functions called up to a million times per run (the
  ODE source term, the quadrature integrands); they only add to a
  (name, enclosing stage span) -> [calls, seconds] table, so the trace stays
  small and the per-call cost stays near a microsecond.

Records are kept in memory and handed over at the end (`dump`).  Every
workload runs its scenarios in the process that owns the tracer.
"""

from __future__ import annotations

import functools
import time
from collections import defaultdict

NO_PARENT = 0  # parent id of spans that no stage encloses


class Tracer:
    def __init__(self):
        self.spans: list[dict] = []
        self.hot: dict[tuple[str, int], list] = {}
        self.counts: dict[tuple[str, int], int] = {}
        self._stages = [NO_PARENT]
        self._hot_depth = 0
        self._cover: dict[int, float] = {}
        self._next_id = NO_PARENT
        self.scenario: str | None = None

    def _new_id(self) -> int:
        self._next_id += 1
        return self._next_id

    def count(self, name: str, n: int) -> None:
        key = (name, self._stages[-1])
        self.counts[key] = self.counts.get(key, 0) + n

    def stage(self, name, fn, hook=None):
        """Wrap fn so that each call records a span; hook(args, result) -> counts."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = self._new_id()
            parent = self._stages[-1]
            outer_scenario = self.scenario
            if name == "runner.run_scenario":
                self.scenario = args[0].name
            depth, self._hot_depth = self._hot_depth, 0
            self._stages.append(sid)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._stages.pop()
                self._hot_depth = depth
                span = {
                    "id": sid,
                    "name": name,
                    "start": start,
                    "end": end,
                    "parent": parent,
                    "scenario": self.scenario,
                    "hot_child_s": self._cover.pop(sid, 0.0),
                }
                self.scenario = outer_scenario
                self.spans.append(span)
            if hook is not None:
                span["counts"] = hook(args, result)
            return result

        return wrapper

    def hot_call(self, name, fn):
        """Wrap fn so that calls are only counted and timed per enclosing stage."""
        perf = time.perf_counter
        table = self.hot
        cover = self._cover
        stages = self._stages

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self._hot_depth += 1
            start = perf()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = perf() - start
                self._hot_depth -= 1
                sid = stages[-1]
                entry = table.get((name, sid))
                if entry is None:
                    table[(name, sid)] = [1, dt]
                else:
                    entry[0] += 1
                    entry[1] += dt
                if self._hot_depth == 0:
                    cover[sid] = cover.get(sid, 0.0) + dt

        return wrapper

    def dump(self) -> dict:
        return {
            "spans": list(self.spans),
            "hot": [[n, sid, c, s] for (n, sid), (c, s) in self.hot.items()],
            "counts": [[n, sid, c] for (n, sid), c in self.counts.items()],
        }


def self_times(spans: list[dict]) -> dict[int, float]:
    """Self time of each span: its duration minus the time its children cover.

    Children are the spans whose `parent` is the span, plus the hot calls made
    directly inside it (`hot_child_s`).  Calls run one at a time, so the
    covered time is the sum of the children's durations.
    """
    covered: dict[int, float] = defaultdict(float)
    for s in spans:
        covered[s["parent"]] += s["end"] - s["start"]
    return {
        s["id"]: (s["end"] - s["start"]) - covered[s["id"]] - s.get("hot_child_s", 0.0)
        for s in spans
    }


def _integrate_counts(args, history):
    from pointwave.free_wave import reduction

    t_s = reduction(args[0]).support_time
    return {
        "steps_accepted": len(history.times) - 1,
        "steps_after_ts": int((history.times[:-1] >= t_s).sum()),
    }


def _oracle_counts(args, orun):
    return {"node_updates": (orun.grid.N + 1) * (len(orun.times) - 1)}


def install(tracer: Tracer) -> None:
    """Install the wrappers on the call sites the pipeline uses."""
    import pointwave.cli as cli
    import pointwave.fd_oracle as fd_oracle
    import pointwave.field_assembly as field_assembly
    import pointwave.quadrature as quadrature
    import pointwave.runner as runner
    import pointwave.scenario as scenario
    import pointwave.zeta_dynamics as zeta_dynamics

    stages = [
        (cli, "run_scenario", "runner.run_scenario", None),
        (runner, "run_scenario", "runner.run_scenario", None),
        (cli, "load_config", "scenario.load_config", None),
        (scenario, "load_config", "scenario.load_config", None),
        (runner, "build_state", "initial_data.build_state", None),
        (runner, "amplitude_bound", "nonlinearity.amplitude_bound", None),
        (runner, "build_truncation", "nonlinearity.build_truncation", None),
        (runner, "energy", "field_assembly.energy", None),
        (runner, "integrate", "zeta_dynamics.integrate", _integrate_counts),
        # run_scenario imports detect_limit from the module at call time
        (zeta_dynamics, "detect_limit", "zeta_dynamics.detect_limit", None),
        (runner, "huygens_forbidden_max", "runner.huygens_forbidden_max", None),
        (fd_oracle, "run", "fd_oracle.run", _oracle_counts),
        (fd_oracle, "compare", "fd_oracle.compare", None),
    ]
    hot = [
        (zeta_dynamics, "lambda_at", "free_wave.lambda_at"),
        (runner, "lambda_at", "free_wave.lambda_at"),
        (field_assembly, "dispersive_batch", "free_wave.dispersive_batch"),
        (field_assembly, "dispersive_eval", "free_wave.dispersive_eval"),
        (runner, "psi_total", "field_assembly.psi_total"),
        (fd_oracle, "psi_total", "field_assembly.psi_total"),
        (quadrature, "integrate_panel", "quadrature.integrate_panel"),
    ]
    for module, attr, name, hook in stages:
        setattr(module, attr, tracer.stage(name, getattr(module, attr), hook))
    for module, attr, name in hot:
        setattr(module, attr, tracer.hot_call(name, getattr(module, attr)))

    panels = field_assembly.integrate_panels

    @functools.wraps(panels)
    def counted_panels(f, breakpoints, tol):
        def integrand(r):
            tracer.count("quadrature.points", r.size)
            return f(r)

        return panels(integrand, breakpoints, tol)

    field_assembly.integrate_panels = counted_panels
