"""Output checks: verdicts, reference values and run-to-run identity.

Reference values live in reference.json (written by make_reference.py):
the rest state q_plus of each shipped scenario and of the oracle config,
which no seed changes, and zeta and H at every REF_STRIDE-th row of each
zeta.csv for the seeds REF_SEEDS.  The tolerances admit the changes the planned integrator and energy
work is expected to make (|d zeta| ~ 1.8e-11 without the step cap; the CSV
H column is a quadrature at tolerance 1e-9 today, which an exact energy
ledger would move by up to ~5e-9 |H0|), and nothing near the size of a
real defect.
"""

from __future__ import annotations

import csv
import json
from pathlib import Path

REFERENCE = Path(__file__).resolve().parent / "reference.json"
REF_STRIDE = 10
REF_SEEDS = range(10)
ZETA_TOL = 1e-9  # absolute, on zeta at the reference rows
H_TOL = 2e-8  # relative to max(1, |H0|), on H at the reference rows and along each run
Q_PLUS_TOL = 1e-9
ORACLE_REL_L2_MAX = 1e-8  # the oracle workload agrees to ~7e-10 today


def load_reference() -> dict:
    return json.loads(REFERENCE.read_text(encoding="utf-8"))


def read_zeta_csv(path: Path) -> dict[str, list[float]]:
    with path.open(encoding="utf-8", newline="") as fh:
        rows = list(csv.DictReader(fh))
    return {key: [float(r[key]) for r in rows] for key in ("t", "zeta", "H")}


def check_outcomes(workload: str, outcome: dict, ref: dict) -> list[str]:
    """Verdict, rest state and oracle agreement of each scenario of one pass."""
    problems = []
    for name, res in sorted(outcome.items()):
        if not res["ok"]:
            problems.append(f"{name}: failed: {res['error']}")
        report = res["report"]
        if report is None:
            continue
        q_ref = ref["q_plus"].get(name)
        q = report["q_plus"]
        if q_ref is None:
            problems.append(f"{name}: no reference q_plus")
        elif q is None or abs(q - q_ref) > Q_PLUS_TOL:
            problems.append(f"{name}: q_plus {q} != reference {q_ref}")
        if workload == "oracle":
            rel = report["oracle_rel_l2"]
            if rel is None or not rel <= ORACLE_REL_L2_MAX:
                problems.append(f"{name}: oracle_rel_l2 {rel} > {ORACLE_REL_L2_MAX}")
    return problems


def check_zeta_csv(name: str, path: Path, ref_rows: dict | None) -> list[str]:
    """H conserved along the run; zeta and H at the reference rows, if given."""
    if not path.is_file():
        return [f"{name}: no zeta.csv"]
    got = read_zeta_csv(path)
    scale = max(1.0, abs(got["H"][0]))
    problems = []
    drift = max(abs(h - got["H"][0]) for h in got["H"]) / scale
    if drift > H_TOL:
        problems.append(f"{name}: zeta.csv H drifts by {drift:.3e} > {H_TOL:.0e}")
    if ref_rows is None:
        return problems
    sub = {key: vals[::REF_STRIDE] for key, vals in got.items()}
    if sub["t"] != ref_rows["t"]:
        return problems + [f"{name}: zeta.csv times differ from the reference rows"]
    dz = max(abs(a - b) for a, b in zip(sub["zeta"], ref_rows["zeta"]))
    dh = max(abs(a - b) for a, b in zip(sub["H"], ref_rows["H"])) / scale
    if dz > ZETA_TOL:
        problems.append(f"{name}: zeta off the reference by {dz:.3e} > {ZETA_TOL:.0e}")
    if dh > H_TOL:
        problems.append(f"{name}: H off the reference by {dh:.3e} > {H_TOL:.0e} |H0|")
    return problems


def check_artifacts(out_dir: Path, names: list[str], seed: int, ref: dict) -> list[str]:
    refs = ref["zeta_h"].get(str(seed), {})
    problems = []
    for name in names:
        problems += check_zeta_csv(name, out_dir / name / "zeta.csv", refs.get(name))
    return problems


def canonical_report(report: dict | None) -> str:
    """The report without its wall-clock field, in a fixed serialization."""
    if report is None:
        return "null"
    return json.dumps({k: v for k, v in report.items() if k != "wall_seconds"}, sort_keys=True)


def compare_outcomes(a: dict, b: dict) -> list[str]:
    """Reports of two passes over the same scenarios must be identical."""
    problems = []
    for name in sorted(set(a) | set(b)):
        ra = a.get(name, {}).get("report")
        rb = b.get(name, {}).get("report")
        if canonical_report(ra) != canonical_report(rb):
            problems.append(f"{name}: report differs between passes")
    return problems


def compare_artifacts(dir_a: Path, dir_b: Path, names: list[str]) -> list[str]:
    """Every artifact file byte-identical (report.json up to wall_seconds)."""
    problems = []
    for name in names:
        files_a = sorted(p.name for p in (dir_a / name).glob("*"))
        files_b = sorted(p.name for p in (dir_b / name).glob("*"))
        if files_a != files_b:
            problems.append(f"{name}: artifact files differ: {files_a} vs {files_b}")
            continue
        for fname in files_a:
            pa, pb = dir_a / name / fname, dir_b / name / fname
            if fname == "report.json":
                same = canonical_report(json.loads(pa.read_text(encoding="utf-8"))) == \
                    canonical_report(json.loads(pb.read_text(encoding="utf-8")))
            else:
                same = pa.read_bytes() == pb.read_bytes()
            if not same:
                problems.append(f"{name}/{fname}: differs between passes")
    return problems
