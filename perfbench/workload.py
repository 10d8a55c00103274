"""One workload pass in a fresh interpreter (started by run.py).

    python3 perfbench/workload.py --workload suite|verdict|oracle
        --inputs DIR --out DIR --result FILE [--trace 0|1] [--setup-only]
        [--calibrate]

Set-up is importing `pointwave` and parsing the configs in --inputs; the
perf_counter reading at its end goes into the result, and run.py subtracts
its own reading taken just before it started this process (perf_counter is
the system-wide monotonic clock on Linux).  The pass then calls the
package's public entry points: `pointwave.cli.main` for `suite`,
`pointwave.runner.run_scenario` for `verdict` and `oracle`.  Its wall time,
CPU time and peak memory cover this process and its pool workers, if any.
With --calibrate the pass runs pinned to one CPU, next to calibrator.py,
whose speed on that CPU during the pass goes into the result as
`cal_speed`.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import re
import resource
import signal
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

# one summary line per scenario, as printed by `pointwave suite`
_SUITE_LINE = re.compile(r"^(\S+): q_plus=.* \[(PASS|FAIL)\]$")

# PW_THREADS of the suite workload.  One worker, so that the suite runs in
# this process, on the one CPU whose speed calibrator.py measures.  With two
# pool workers on a 2-CPU VM, the speed of both CPUs and the order in which
# the pool hands out the five configs enter its time as well.
SUITE_WORKERS = 1


def _usage() -> tuple[float, float, float]:
    """CPU seconds of this process and its reaped children; peak RSS in MiB
    of this process and of its largest reaped child (0 without children)."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    cpu = own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime
    return cpu, own.ru_maxrss / 1024.0, kids.ru_maxrss / 1024.0


def start_calibrator() -> subprocess.Popen:
    """calibrator.py on this process's CPU, once it is ready to measure."""
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "calibrator.py")], stdout=subprocess.PIPE, text=True
    )
    if proc.stdout.readline().strip() != "ready":
        proc.kill()
        proc.wait()
        raise RuntimeError("calibrator did not start")
    return proc


def stop_calibrator(proc: subprocess.Popen) -> float:
    """Stop the calibrator; its loop iterations per CPU second."""
    proc.send_signal(signal.SIGTERM)
    out, _ = proc.communicate()
    done, cpu = out.split()
    return int(done) / float(cpu)


def _summary(exc: Exception) -> str:
    return "".join(traceback.format_exception_only(exc)).strip()


def run_suite(inputs: Path, out: Path, names: list[str]) -> dict:
    """`pointwave suite inputs --out out`; per-scenario outcome from its summary."""
    import pointwave.cli

    os.environ["PW_THREADS"] = str(SUITE_WORKERS)
    printed = io.StringIO()
    error = None
    try:
        with contextlib.redirect_stdout(printed):
            pointwave.cli.main(["suite", str(inputs), "--out", str(out)])
    except Exception as exc:  # a crash of the whole suite fails every scenario without a line
        error = _summary(exc)
    verdicts = {}
    for line in printed.getvalue().splitlines():
        m = _SUITE_LINE.match(line)
        if m:
            verdicts[m.group(1)] = m.group(2) == "PASS"
    scenarios = {}
    for name in names:
        report_path = out / name / "report.json"
        report = (
            json.loads(report_path.read_text(encoding="utf-8"))
            if report_path.is_file() else None
        )
        scenarios[name] = {
            "ok": verdicts.get(name, False),
            "report": report,
            "error": None if name in verdicts else (error or "no summary line"),
        }
    return scenarios


def run_library(scenarios: list, inputs: Path) -> dict:
    """run_scenario(s, out_dir=None) on each scenario, one after another."""
    import pointwave.runner

    out = {}
    for s in scenarios:
        try:
            result = pointwave.runner.run_scenario(s, None, base_dir=inputs)
        except Exception as exc:  # a domain error fails this scenario, not the pass
            out[s.name] = {"ok": False, "report": None, "error": _summary(exc)}
            continue
        out[s.name] = {
            "ok": result.ok,
            "report": result.report.to_json_dict(),
            "error": "; ".join(result.failures) or None,
        }
    return out


def run_pass(workload: str, scenarios: list, inputs: Path, out: Path) -> dict:
    if workload == "suite":
        return run_suite(inputs, out, [s.name for s in scenarios])
    return run_library(scenarios, inputs)


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True, choices=("suite", "verdict", "oracle"))
    p.add_argument("--inputs", type=Path, required=True)
    p.add_argument("--out", type=Path, required=True)
    p.add_argument("--result", type=Path, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true")
    p.add_argument("--calibrate", action="store_true")
    args = p.parse_args(argv)

    # set-up: the imports the pass needs, then parsing the configs
    sys.path.insert(0, str(ROOT / "src"))
    import pointwave.cli  # noqa: F401
    import pointwave.runner  # noqa: F401
    import pointwave.scenario

    tracer = None
    if args.trace:
        import tracer as tracing  # this script's directory is on sys.path

        tracer = tracing.Tracer()
        tracing.install(tracer)
    scenarios = [pointwave.scenario.load_config(c) for c in sorted(args.inputs.glob("*.cfg"))]
    setup_done = time.perf_counter()
    result: dict = {"setup_done": setup_done}

    if not args.setup_only:
        import numpy
        import scipy

        calibrator = None
        if args.calibrate:
            os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
            calibrator = start_calibrator()
        try:
            cpu0, _, _ = _usage()
            t0 = time.perf_counter()
            outcome = run_pass(args.workload, scenarios, args.inputs, args.out)
            wall = time.perf_counter() - t0
            # before the calibrator is reaped, so that no figure includes it
            cpu1, rss_own, rss_worker = _usage()
        finally:
            if calibrator is not None:
                result["cal_speed"] = stop_calibrator(calibrator)
        result.update(
            wall_s=wall,
            cpu_s=cpu1 - cpu0,
            # rss_worker is 0 when no pool runs; pool workers run at once, so
            # this bounds the peak of all processes together from above
            peak_rss_mb=rss_own + SUITE_WORKERS * rss_worker,
            rss_own_mb=rss_own,
            rss_worker_mb=rss_worker,
            scenarios=outcome,
            versions={
                "python": sys.version.split()[0],
                "numpy": numpy.__version__,
                "scipy": scipy.__version__,
            },
        )
        if tracer is not None:
            result["trace"] = tracer.dump()
    args.result.write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
