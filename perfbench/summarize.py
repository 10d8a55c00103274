"""Medians and quartile spreads of saved benchmark results.

    python3 perfbench/summarize.py RESULT.json... [--out SUMMARY.json]

Each RESULT.json is what `run.py --save` wrote.  Results are grouped by
workload and trace mode; for every metric, and for the raw seconds of timed
runs (wall_s, cpu_s), the summary gives the values, their
median, first and third quartiles (statistics.quantiles, n=4) and the spread
(q3 - q1) / median, plus the environment of each run.
"""

from __future__ import annotations

import argparse
import json
import statistics
from collections import defaultdict
from pathlib import Path


def summarize(results: list[dict]) -> dict:
    groups: dict[str, list[dict]] = defaultdict(list)
    for r in results:
        groups[f"{r['env']['workload']}/trace{r['env']['trace']}"].append(r)
    out = {}
    for key, runs in sorted(groups.items()):
        metrics = {}
        # the end-to-end (or per-layer) metrics, then the raw seconds of a timed run
        series = {name: ([r["metrics"][name]["value"] for r in runs], m["unit"])
                  for name, m in runs[0]["metrics"].items()}
        series.update({name: ([r["seconds"][name] for r in runs], "s")
                       for name in runs[0].get("seconds", {})})
        for name, (values, unit) in series.items():
            median = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
            metrics[name] = {
                "unit": unit,
                "median": median,
                "q1": q1,
                "q3": q3,
                "spread": (q3 - q1) / median if median else 0.0,
                "values": values,
            }
        out[key] = {
            "runs": len(runs),
            "correct": all(r["correct"] for r in runs),
            "failed": sum(r["failed"] for r in runs),
            "attempted": sum(r["attempted"] for r in runs),
            "metrics": metrics,
            "quality": [r["quality"] for r in runs],
            "env": [r["env"] for r in runs],
        }
    return out


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("results", type=Path, nargs="+")
    p.add_argument("--out", type=Path)
    args = p.parse_args(argv)
    summary = summarize([json.loads(f.read_text(encoding="utf-8")) for f in args.results])
    for key, group in summary.items():
        print(f"{key}: {group['runs']} runs, correct={group['correct']}, "
              f"failed {group['failed']}/{group['attempted']}")
        for name, m in group["metrics"].items():
            print(f"  {name:36s} median {m['median']:.6g} {m['unit']:6s} "
                  f"q1 {m['q1']:.6g} q3 {m['q3']:.6g} spread {m['spread']:.2%}")
    if args.out is not None:
        args.out.write_text(json.dumps(summary, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
