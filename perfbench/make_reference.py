"""Regenerate reference.json from the program at the current commit.

    python3 perfbench/make_reference.py

Runs the suite workload once per seed in checks.REF_SEEDS and stores zeta
and H at every checks.REF_STRIDE-th row of each zeta.csv, plus q_plus of
each shipped scenario (from the default seed) and of the oracle workload's
config.  Refuses to store a run in which any scenario fails.  Only
regenerate on purpose: the stored values are what later changes are checked
against.
"""

from __future__ import annotations

import json
import shutil
import sys
import tempfile
from pathlib import Path

import checks
import inputs
from run import HERE, ROOT, Passes


def _format(ref: dict) -> str:
    """JSON with one line per (seed, scenario) entry, to keep diffs readable."""
    seeds = []
    for seed, rows in ref["zeta_h"].items():
        body = ",\n".join(f"   {json.dumps(n)}: {json.dumps(r)}" for n, r in rows.items())
        seeds.append(f"  {json.dumps(seed)}: {{\n{body}\n  }}")
    return (
        "{\n"
        f' "q_plus": {json.dumps(ref["q_plus"], sort_keys=True)},\n'
        ' "zeta_h": {\n' + ",\n".join(seeds) + "\n }\n}\n"
    )


def _run(workload: str, seed: int, sources: list[Path], work: Path) -> dict | None:
    """Scenario outcomes of one pass, or None if any scenario failed."""
    work = work / f"{workload}-{seed}"
    work.mkdir()
    inputs_dir = work / "inputs"
    inputs.generate(seed, "scenarios" if workload == "suite" else workload, sources, inputs_dir)
    result = Passes(workload, work).start(inputs_dir)
    bad = [n for n, r in result["scenarios"].items() if not r["ok"]]
    if bad:
        print(f"{workload} seed {seed}: failed scenarios {bad}", file=sys.stderr)
        return None
    return result


def main() -> int:
    ref: dict = {"q_plus": {}, "zeta_h": {}}
    shipped = sorted((ROOT / "scenarios").glob("*.cfg"))
    work_root = ROOT / ".perfbench_tmp"
    work_root.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(dir=work_root))
    try:
        for seed in checks.REF_SEEDS:
            result = _run("suite", seed, shipped, work)
            if result is None:
                return 1
            rows = {}
            for name in result["scenarios"]:
                got = checks.read_zeta_csv(Path(result["out"]) / name / "zeta.csv")
                rows[name] = {k: v[:: checks.REF_STRIDE] for k, v in got.items()}
            ref["zeta_h"][str(seed)] = rows
            if seed == inputs.DEFAULT_SEED:
                ref["q_plus"].update(
                    {n: r["report"]["q_plus"] for n, r in result["scenarios"].items()}
                )
            print(f"suite seed {seed}: stored {len(rows)} scenarios")
        result = _run("oracle", inputs.DEFAULT_SEED, [HERE / "oracle.cfg"], work)
        if result is None:
            return 1
        ref["q_plus"].update({n: r["report"]["q_plus"] for n, r in result["scenarios"].items()})
        print(f"oracle: stored q_plus of {len(result['scenarios'])} scenario")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    checks.REFERENCE.write_text(_format(ref), encoding="utf-8")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
