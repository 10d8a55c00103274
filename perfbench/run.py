"""pointwave benchmark: three workloads, end-to-end metrics and a traced run.

    python3 perfbench/run.py --workload suite|verdict|oracle --seed N
        --seconds S --trace 0|1 [--save FILE]

Run from the root of a checkout.  Workloads (see BENCHMARK.json for why):

  suite    `pointwave suite` on the five shipped configs, writing every
           artifact, with PW_THREADS = 1 (see workload.SUITE_WORKERS).
  verdict  run_scenario(s, out_dir=None) on the same five configs, one after
           another in one process: the audit path without artifacts.
  oracle   run_scenario on perfbench/oracle.cfg: reference data to T = 10
           with the FD oracle on 32,769 nodes.

The seed generates the configs (see inputs.py); the program reads only the
generated copies.  Every pass runs in a fresh interpreter (workload.py).

--trace 0 repeats the pass until --seconds of passes are measured, with a
set-up-only start before each pass and more after the last until
SETUP_SAMPLES set-ups are timed.  If only one pass was timed, an untimed
second pass (see REPEAT_SUBSET) is checked against it.  It prints the
medians of

  setup_s      fresh interpreter to `pointwave` imported and configs parsed
  wall_s       the pass's wall time
  cpu_s        the pass's user + system CPU time
  wall_cal     wall_s times the speed that calibrator.py measured on the
               pass's CPU during the pass, in cal: 1 cal is the CPU time of
               ITERS_PER_CAL calibration loop iterations.  The CPU's speed
               of the moment cancels out.
  cpu_cal      cpu_s in cal, likewise
  peak_rss_mb  peak RSS of the workload process plus, if the suite runs
               pool workers, workers times the largest worker's

of which setup_s, wall_cal, cpu_cal and peak_rss_mb are the end-to-end
metrics of BENCHMARK.json.
--trace 1 runs one untraced and one traced pass, both without the
calibrator, and prints the per-layer metrics of the traced one (see
layers.py), with the tracing overhead.

Either way the outputs are checked (checks.py): every scenario passes, q_plus
and the zeta.csv columns match the stored references, reports and artifacts
are identical from pass to pass.  The last line of stdout is one JSON
object: {"correct", "attempted", "failed", "metrics"}; `attempted` and
`failed` count scenario runs.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import inputs  # noqa: E402
import layers  # noqa: E402
import workload as workload_pass  # noqa: E402

WORKLOADS = ("suite", "verdict", "oracle")
SETUP_SAMPLES = 4
# when only one pass is timed, a second pass for run-to-run identity re-runs
# only the cheapest config where the inputs have it: a full second pass would
# double the run time (--trace 1 compares two full passes)
REPEAT_SUBSET = ("stationary_q1.cfg",)
START_BY_S = 120.0  # start no further pass after this many seconds
PASS_TIMEOUT_S = 170.0
END_TO_END_UNITS = {"setup_s": "s", "wall_cal": "cal", "cpu_cal": "cal", "peak_rss_mb": "MiB"}
ITERS_PER_CAL = 1000


def _nproc() -> int:
    """nproc: the CPUs this process may run on."""
    return len(os.sched_getaffinity(0))


def _pass_workers(workload: str) -> int:
    """Processes that run scenarios at once in one pass."""
    return workload_pass.SUITE_WORKERS if workload == "suite" else 1


def _commit() -> str:
    """HEAD commit read from .git, without running git; 'unknown' outside a clone."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="utf-8").strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text(encoding="utf-8").strip()
        for line in (git / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


class Passes:
    """Starts workload.py in fresh interpreters inside one work directory."""

    def __init__(self, workload: str, work: Path):
        self.workload = workload
        self.work = work
        self.started = time.perf_counter()
        self.n = 0

    def elapsed(self) -> float:
        return time.perf_counter() - self.started

    def start(self, inputs_dir: Path, trace: int = 0, setup_only: bool = False,
              calibrate: bool = False) -> dict:
        self.n += 1
        out = self.work / f"out{self.n}"
        result_file = self.work / f"result{self.n}.json"
        cmd = [
            sys.executable, str(HERE / "workload.py"),
            "--workload", self.workload, "--inputs", str(inputs_dir),
            "--out", str(out), "--result", str(result_file),
            "--trace", str(trace),
        ] + (["--setup-only"] if setup_only else []) + (["--calibrate"] if calibrate else [])
        t0 = time.perf_counter()
        proc = subprocess.Popen(
            cmd, cwd=ROOT, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
            start_new_session=True,
        )
        try:
            _, err = proc.communicate(timeout=max(1.0, PASS_TIMEOUT_S - self.elapsed()))
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            raise RuntimeError(f"{self.workload} pass timed out") from None
        if proc.returncode != 0 or not result_file.is_file():
            raise RuntimeError(
                f"{self.workload} pass exited with {proc.returncode}: "
                + err.decode(errors="replace")[-2000:]
            )
        result = json.loads(result_file.read_text(encoding="utf-8"))
        result["setup_s"] = result["setup_done"] - t0
        result["out"] = str(out)
        return result


def _tally(passes: list[dict]) -> tuple[int, int]:
    attempted = sum(len(p["scenarios"]) for p in passes)
    failed = sum(1 for p in passes for r in p["scenarios"].values() if not r["ok"])
    return attempted, failed


def _check(workload: str, seed: int, passes: list[dict], ref: dict) -> list[str]:
    problems = []
    for p in passes:
        problems += checks.check_outcomes(workload, p["scenarios"], ref)
        if workload == "suite":
            problems += checks.check_artifacts(Path(p["out"]), list(p["scenarios"]), seed, ref)
    first = passes[0]
    for p in passes[1:]:
        common = {n: first["scenarios"][n] for n in p["scenarios"]}
        problems += checks.compare_outcomes(common, p["scenarios"])
        if workload == "suite":
            problems += checks.compare_artifacts(
                Path(first["out"]), Path(p["out"]), list(p["scenarios"])
            )
    return problems


def _quality(workload: str, passes: list[dict]) -> dict[str, tuple[float, str]]:
    """Correctness figures printed next to the metrics (not timed)."""
    attempted, failed = _tally(passes)
    reports = [r["report"] for p in passes for r in p["scenarios"].values() if r["report"]]
    out = {
        "failed_frac": (failed / attempted, "1"),
        "energy_drift_rel_max": (max((r["energy_drift_rel"] for r in reports), default=0.0), "1"),
    }
    if workload == "oracle":
        rels = [r["oracle_rel_l2"] for r in reports if r["oracle_rel_l2"] is not None]
        out["oracle_rel_l2"] = (max(rels, default=float("nan")), "1")
    return out


def timed(workload: str, seed: int, seconds: float, runner: Passes, inputs_dir: Path,
          ref: dict) -> tuple[dict, dict, list[dict], list[str]]:
    """(end-to-end metrics, raw seconds, checked passes, check failures)"""
    passes: list[dict] = []
    setups: list[float] = []
    measured = 0.0
    while True:
        # set-up-only starts go between passes, so that set-up samples spread
        # over the run instead of sharing one phase of the machine's load
        setups.append(runner.start(inputs_dir, setup_only=True)["setup_s"])
        t0 = runner.elapsed()
        passes.append(runner.start(inputs_dir, calibrate=True))
        measured += passes[-1]["wall_s"]
        if measured >= seconds or runner.elapsed() + (runner.elapsed() - t0) > START_BY_S:
            break
    checked = list(passes)
    if len(passes) == 1:
        repeat = [n for n in REPEAT_SUBSET if (inputs_dir / n).is_file()]
        subset = runner.work / "repeat_inputs" if repeat else inputs_dir
        subset.mkdir(exist_ok=True)
        for name in repeat:
            shutil.copy(inputs_dir / name, subset / name)
        checked.append(runner.start(subset))
    setups += [p["setup_s"] for p in checked]
    while len(setups) < SETUP_SAMPLES and runner.elapsed() < START_BY_S:
        setups.append(runner.start(inputs_dir, setup_only=True)["setup_s"])
    raw = {key: statistics.median(p[key] for p in passes) for key in ("wall_s", "cpu_s")}
    metrics = {
        "setup_s": statistics.median(setups),
        "wall_cal": statistics.median(p["wall_s"] * p["cal_speed"] for p in passes) / ITERS_PER_CAL,
        "cpu_cal": statistics.median(p["cpu_s"] * p["cal_speed"] for p in passes) / ITERS_PER_CAL,
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in passes),
    }
    return metrics, raw, checked, _check(workload, seed, checked, ref)


def traced(workload: str, seed: int, runner: Passes, inputs_dir: Path,
           ref: dict) -> tuple[dict, list[dict], list[str]]:
    plain = runner.start(inputs_dir)
    trace_pass = runner.start(inputs_dir, trace=1)
    checked = [plain, trace_pass]
    problems = _check(workload, seed, checked, ref)
    traced_runs = sum(1 for s in trace_pass["trace"]["spans"] if s["name"] == "runner.run_scenario")
    if traced_runs != len(trace_pass["scenarios"]):
        problems.append(f"trace holds {traced_runs} of {len(trace_pass['scenarios'])} scenario runs")
    out = Path(trace_pass["out"])
    artifact_bytes = sum(p.stat().st_size for p in out.rglob("*") if p.is_file()) \
        if out.is_dir() else 0
    workers = _pass_workers(workload)
    metrics = layers.layer_metrics(
        trace_pass["trace"], trace_pass["wall_s"], plain["wall_s"], workers, artifact_bytes
    )
    busy = workers * trace_pass["wall_s"]
    print(f"{workload}: time by stage (share of {workers} x traced wall_s)")
    print("  stages of run_scenario, in pipeline order:")
    for name in layers.STAGES:
        print(f"    {name:36s} {metrics[name]:10.4f} s  {metrics[name] / busy:7.2%}")
    print("  self time of stage spans:")
    for name, secs in layers.self_time_by_name(trace_pass["trace"]).items():
        print(f"    {name:36s} {secs:10.4f} s  {secs / busy:7.2%}")
    print("  hot calls (inclusive; nested calls are also inside their caller):")
    for name, (calls, secs) in layers.hot_totals(trace_pass["trace"]).items():
        print(f"    {name:36s} {secs:10.4f} s  {secs / busy:7.2%}  {calls} calls")
    return metrics, checked, problems


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=inputs.DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--save", type=Path, help="also write the full result as JSON here")
    args = p.parse_args(argv)

    if not (ROOT / "src" / "pointwave" / "__init__.py").is_file() or not (
        ROOT / "scenarios"
    ).is_dir():
        print(f"no pointwave sources under {ROOT}", file=sys.stderr)
        return 2

    loadavg = os.getloadavg()
    ref = checks.load_reference()
    work_root = ROOT / ".perfbench_tmp"
    work_root.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(dir=work_root))
    try:
        if args.workload == "oracle":
            sources, stream = [HERE / "oracle.cfg"], "oracle"
        else:
            sources, stream = sorted((ROOT / "scenarios").glob("*.cfg")), "scenarios"
        inputs_dir = work / "inputs"
        inputs.generate(args.seed, stream, sources, inputs_dir)
        runner = Passes(args.workload, work)
        if args.trace:
            metrics, passes, problems = traced(args.workload, args.seed, runner, inputs_dir, ref)
            units, raw = layers.UNITS, {}
        else:
            metrics, raw, passes, problems = timed(
                args.workload, args.seed, args.seconds, runner, inputs_dir, ref
            )
            units = END_TO_END_UNITS
    except RuntimeError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work_root.rmdir()  # only when no other run is using it
        except OSError:
            pass

    attempted, failed = _tally(passes)
    quality = _quality(args.workload, passes)
    env = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "nproc": _nproc(),
        "workers": _pass_workers(args.workload),
        **passes[0]["versions"],
        "commit": _commit(),
        "loadavg": loadavg,
        "passes": len(passes),
    }
    for msg in problems:
        print(f"CHECK FAILED: {msg}")
    for name, value in metrics.items():
        print(f"{args.workload}: {name} = {value:.6g} {units[name]}")
    for name, value in raw.items():
        print(f"{args.workload}: {name} = {value:.6g} s")
    for name, (value, unit) in quality.items():
        print(f"{args.workload}: {name} = {value:.6g} {unit}")
    # the two parts of peak_rss_mb, in the first pass
    rss = {key: passes[0][key] for key in ("rss_own_mb", "rss_worker_mb")}
    print(f"{args.workload}: first pass peak RSS: workload process {rss['rss_own_mb']:.6g} MiB, "
          f"largest pool worker {rss['rss_worker_mb']:.6g} MiB")
    print("env: " + json.dumps(env))
    result = {
        "correct": not problems and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    if args.save is not None:
        args.save.write_text(
            json.dumps({**result, "seconds": raw, "quality": quality, "rss": rss, "env": env},
                       indent=2) + "\n",
            encoding="utf-8",
        )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
