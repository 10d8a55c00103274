"""Command line front end.

    pointwave run <config> [--out DIR] [--oracle] [--T <t>] [--tol <x>]
    pointwave suite <dir> [--out DIR]

`run` executes one scenario config and writes zeta.csv, field_t*.csv and
report.json under DIR/<name>.  A negative --T requests backward time, which
is run as the documented time reversal (same data with the velocity part
negated).  `suite` runs every *.cfg in a directory (PW_THREADS, a
non-negative integer, caps the worker count; 0 or unset means up to 4) and
prints one row per scenario and a summary line.

A scenario that raises a domain error (a ValueError or RuntimeError) gets
the row `<name>: ERROR <Type>: <message>`, on stderr for `run`; the rest of
a suite still runs.  Exit codes: 0 every enabled check passed, 1 a check
failed, 2 a config error (or no *.cfg for `suite`), 3 a scenario raised;
`suite` exits with the largest code of its scenarios.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import replace
from pathlib import Path

from .runner import run_scenario
from .scenario import ConfigError, Scenario, load_config

EXIT_OK, EXIT_FAILED, EXIT_CONFIG, EXIT_RAISED = 0, 1, 2, 3


def _apply_overrides(s: Scenario, args) -> Scenario:
    if args.T is not None:
        if args.T == 0.0 or not math.isfinite(args.T):
            raise ConfigError("--T must be finite and nonzero")
        if args.T < 0.0:
            s = replace(s.reversed(), t_final=abs(args.T))
        else:
            s = replace(s, t_final=args.T)
    if args.tol is not None:
        if not 0.0 < args.tol < math.inf:
            raise ConfigError("--tol must be positive and finite")
        s = replace(s, rel_tol=args.tol, abs_tol=args.tol * 1e-2)
    if args.oracle:
        s = replace(s, oracle_enabled=True)
    return s


def _error_row(name: str, exc: Exception) -> str:
    return f"{name}: ERROR {type(exc).__name__}: {' '.join(str(exc).split())}"


def _run_one(config_path: Path, out_root: Path, args=None) -> tuple[int, str]:
    """Exit code and summary rows of one config; a ConfigError propagates."""
    scenario = load_config(config_path)
    if args is not None:
        scenario = _apply_overrides(scenario, args)
    try:
        result = run_scenario(scenario, out_root / scenario.name, base_dir=config_path.parent)
    except (ValueError, RuntimeError) as exc:
        return EXIT_RAISED, _error_row(scenario.name, exc)
    rows = _report_rows(scenario.name, result.report.to_json_dict(), result.ok, result.failures)
    return (EXIT_OK if result.ok else EXIT_FAILED), rows


def _suite_worker(payload: tuple[str, str]) -> tuple[int, str]:
    config_path = Path(payload[0])
    try:
        return _run_one(config_path, Path(payload[1]))
    except ConfigError as exc:
        return EXIT_CONFIG, _error_row(config_path.stem, exc)


def _report_rows(name: str, report: dict, ok: bool, failures: tuple[str, ...]) -> str:
    def fmt(v):
        if v is None:
            return "-"
        if isinstance(v, bool):
            return "yes" if v else "no"
        if isinstance(v, float):
            return f"{v:.3e}"
        return str(v)

    row = (
        f"{name}: q_plus={fmt(report['q_plus'])} converged={fmt(report['converged'])} "
        f"drift={fmt(report['energy_drift_rel'])} margin={fmt(report['lambda_margin'])} "
        f"huygens={fmt(report['huygens_max_abs'])} oracle={fmt(report['oracle_rel_l2'])} "
        f"[{'PASS' if ok else 'FAIL'}]"
    )
    return "\n".join([row, *(f"  - {msg}" for msg in failures)])


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="pointwave", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run a single scenario config")
    p_run.add_argument("config", type=Path)
    p_run.add_argument("--out", type=Path, default=Path("pointwave_out"))
    p_run.add_argument("--oracle", action="store_true", help="force-enable the FD oracle")
    p_run.add_argument("--T", type=float, default=None, help="override horizon; negative = time reversal")
    p_run.add_argument("--tol", type=float, default=None, help="override ODE relative tolerance")

    p_suite = sub.add_parser("suite", help="run every *.cfg in a directory")
    p_suite.add_argument("directory", type=Path)
    p_suite.add_argument("--out", type=Path, default=Path("pointwave_out"))

    args = parser.parse_args(argv)

    try:
        if args.command == "run":
            code, rows = _run_one(args.config, args.out, args)
            print(rows, file=sys.stderr if code == EXIT_RAISED else sys.stdout)
            return code

        configs = sorted(args.directory.glob("*.cfg"))
        if not configs:
            print(f"no *.cfg files in {args.directory}", file=sys.stderr)
            return EXIT_CONFIG
        threads = os.environ.get("PW_THREADS", "0").strip()
        if not threads.isdecimal():
            raise ConfigError(f"PW_THREADS must be a non-negative integer, got {threads!r}")
        workers = min(int(threads) or min(4, os.cpu_count() or 1), len(configs))
        payloads = [(str(c), str(args.out)) for c in configs]
        if workers > 1:
            with ProcessPoolExecutor(max_workers=workers) as pool:
                results = list(pool.map(_suite_worker, payloads))
        else:
            results = [_suite_worker(p) for p in payloads]
        for _, rows in results:
            print(rows)
        print(f"suite: {sum(code == EXIT_OK for code, _ in results)}/{len(results)} passed")
        return max(code for code, _ in results)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    raise SystemExit(main())
