#!/usr/bin/env python3
"""Run one workload of the benchmark several times, one seed per run, and
report each metric's median, quartiles and spread.

The spread is the distance between the first and third quartile
(``statistics.quantiles(values, n=4)``) as a share of the median; for an
end-to-end metric it is shown next to the bound fixed in BENCHMARK.json.
For ``--trace 0`` the unscaled figures each run prints (op time, work rate,
set-up CPU and wall time) are summarized too, under ``unscaled``, to show
what the scaling by a reference (README.md) buys.

    python3 perfbench/repeat.py --workload episodes --runs 10 --first-seed 100
    python3 perfbench/repeat.py --workload episodes --runs 3 --trace 1 --out perfbench/baseline.json

``--out`` merges the summary into that JSON file under
``<workload>.trace<0|1>``, with the run record of the first run.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def _tagged(lines: list[str], tag: str) -> dict | None:
    """The JSON after ``tag`` on the first line that has it."""
    return next((json.loads(line.split(f" {tag} ", 1)[1]) for line in lines
                 if f" {tag} " in line), None)


def run_once(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict, dict]:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"seed {seed}: exit {proc.returncode}\n{proc.stdout}{proc.stderr}")
    return json.loads(lines[-1]), _tagged(lines, "run-record"), _tagged(lines, "unscaled") or {}


def summarize(values: list[float]) -> dict:
    median = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (median,) * 3
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else 0.0, "runs": len(values)}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=100)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, default=None)
    args = parser.parse_args()

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    values: dict[str, list[float]] = {}
    unscaled_values: dict[str, list[float]] = {}
    units: dict[str, str] = {}
    record = None
    for i in range(args.runs):
        result, run_record, unscaled = run_once(args.workload, args.first_seed + i,
                                                bench["run_seconds"], args.trace)
        record = record or run_record
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
            units[name] = metric["unit"]
        for name, value in unscaled.items():
            unscaled_values.setdefault(name, []).append(value)
        print(f"seed {args.first_seed + i}: attempted {result['attempted']} "
              f"failed {result['failed']}", flush=True)

    def table(values: dict[str, list[float]], prefix: str = "") -> tuple[dict, float]:
        summary, worst = {}, 0.0
        for name, vals in values.items():
            s = summarize(vals)
            s["unit"] = units.get(name, "s")
            s["values"] = vals
            summary[name] = s
            line = (f"{prefix + name:36s} median {s['median']:<12.6g} q1 {s['q1']:<12.6g} "
                    f"q3 {s['q3']:<12.6g} spread {s['spread']:.4f}")
            if name in bounds:
                line += f"  bound {bounds[name]}  spread/bound {s['spread'] / bounds[name]:.2f}"
                worst = max(worst, s["spread"] / bounds[name])
            print(line)
        return summary, worst

    summary, worst = table(values)
    entry = {"first_seed": args.first_seed, "run_seconds": bench["run_seconds"],
             "record": record, "metrics": summary}
    if args.trace == 0:
        print(f"largest spread/bound: {worst:.2f} (steady below 0.33)")
        entry["unscaled"] = table(unscaled_values, "unscaled ")[0]

    if args.out is not None:
        doc = json.loads(args.out.read_text()) if args.out.exists() else {}
        doc.setdefault(args.workload, {})[f"trace{args.trace}"] = entry
        args.out.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
