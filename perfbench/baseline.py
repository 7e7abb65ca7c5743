#!/usr/bin/env python3
"""Run every workload on several seeds and summarise the end-to-end metrics.

Run from the root of a checkout:

    python3 perfbench/baseline.py --seeds 10 --seconds 35 --out perfbench/baseline.json

For each workload it runs ``run.py`` once per seed (seeds 100, 101, ...)
with tracing off, then once traced, and reports for each metric the median
over seeds and the spread: the distance between the first and third
quartile (``statistics.quantiles(values, n=4)``) as a share of the median.
It exits nonzero if any run fails or any spread, other than that of
``setup_s``, exceeds the metric's bound in BENCHMARK.json.
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
FIRST_SEED = 100


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run(
        [
            sys.executable, str(HERE / "run.py"),
            "--workload", workload,
            "--seed", str(seed),
            "--seconds", str(seconds),
            "--trace", str(trace),
        ],
        capture_output=True,
        text=True,
        cwd=ROOT,
        timeout=300,
        check=False,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stdout + proc.stderr)
        raise SystemExit(f"{workload} seed {seed} trace {trace} failed ({proc.returncode})")
    return json.loads(lines[-1])


def spread(values) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--seeds", type=int, default=10)
    p.add_argument("--seconds", type=int, default=None, help="default: run_seconds of BENCHMARK.json")
    p.add_argument("--workload", action="append", help="only these workloads (repeatable)")
    p.add_argument("--out", help="write the summary to this JSON file")
    args = p.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds or spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    names = args.workload or [w["name"] for w in spec["workloads"]]

    summary = {"seconds": seconds, "seeds": list(range(FIRST_SEED, FIRST_SEED + args.seeds)), "workloads": {}}
    ok = True
    for name in names:
        runs = [run_once(name, seed, seconds, 0) for seed in summary["seeds"]]
        traced = run_once(name, FIRST_SEED, seconds, 1)
        details = json.loads((ROOT / ".perfbench" / f"{name}-seed{FIRST_SEED}-trace0.json").read_text())
        entry = {"provenance": details["provenance"], "inputs": details["inputs"], "end_to_end": {}}
        for metric, bound in bounds.items():
            values = [r["metrics"][metric]["value"] for r in runs]
            s = spread(values)
            entry["end_to_end"][metric] = {
                "median": statistics.median(values),
                "spread": s,
                "bound": bound,
                "values": values,
            }
            flag = ""
            if metric != "setup_s" and s > bound:
                flag = "  OVER BOUND"
                ok = False
            elif s > bound / 3:
                flag = "  over a third of the bound"
            print(f"{name:20s} {metric:14s} median {statistics.median(values):.6g} spread {s:.4f} (bound {bound}){flag}")
        entry["per_layer"] = {k: v["value"] for k, v in traced["metrics"].items()}
        summary["workloads"][name] = entry
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(summary, fh, indent=1)
            fh.write("\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
