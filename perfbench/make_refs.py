#!/usr/bin/env python3
"""Record the row references of the outage benchmark into ``refs.json``.

Run from the root of a checkout, at the commit whose outputs are the
reference:

    python3 perfbench/make_refs.py --seeds 50

For seeds 0 .. N-1 it stores the SHA-256 of the CSV rows of both Monte
Carlo workloads, the full-precision exact rows of the dense room, the exact
rows of the default room, and the hit counts of one large joint-model run
that any joint-mc seed is cross-checked against.  Worker count does not
change Monte Carlo rows, so all cores are used here.
"""

from __future__ import annotations

import os

os.environ["OPENBLAS_NUM_THREADS"] = "1"
os.environ["OMP_NUM_THREADS"] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import re  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from owcrelay.links import build_link_budget  # noqa: E402
from owcrelay.outage import outage_independent_approx, outage_monte_carlo  # noqa: E402
from owcrelay.scenario import default_scenario, load_scenario, result_lines  # noqa: E402

import check  # noqa: E402
import workloads  # noqa: E402

JOINT_REFERENCE_SEED = 987_654_321
JOINT_REFERENCE_SAMPLES = 1 << 25


def _text(report) -> str:
    return "\n".join(result_lines(report.rows)) + "\n"


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--seeds", type=int, default=50)
    args = p.parse_args(argv)
    cores = workloads.usable_cores()
    git = subprocess.run(
        ["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True, check=False
    )
    default_budget = build_link_budget(default_scenario())
    refs: dict = {"recorded_at": git.stdout.strip() or None}

    exact = outage_independent_approx(budget=default_budget)
    refs["default-exact"] = [[r.user_id, r.mode, r.p_out] for r in exact.rows]

    joint = outage_monte_carlo(
        budget=default_budget,
        n_samples=JOINT_REFERENCE_SAMPLES,
        master_seed=JOINT_REFERENCE_SEED,
        workers=cores,
        blockage_model="joint",
    )
    refs["joint-reference"] = {
        "seed": JOINT_REFERENCE_SEED,
        "samples": JOINT_REFERENCE_SAMPLES,
        "counts": [[r.user_id, r.mode, round(r.p_out * r.n_samples)] for r in joint.rows],
    }

    for name in ("joint-mc", "independent-mc-pool"):
        w = workloads.WORKLOADS[name]
        digests = {}
        for seed in range(args.seeds):
            report = outage_monte_carlo(
                budget=default_budget,
                n_samples=w.samples,
                master_seed=seed,
                workers=cores,
                blockage_model=w.blockage_model,
            )
            digests[str(seed)] = check.csv_digest(_text(report))
            print(f"{name} seed {seed}", flush=True)
        refs[name] = {"samples": w.samples, "csv_sha256": digests}

    tiles = workloads.DENSE_TILES
    rows = {}
    yaml_path = ROOT / ".perfbench" / "make-refs.yaml"
    yaml_path.parent.mkdir(exist_ok=True)
    for seed in range(args.seeds):
        workloads.write_dense_scenario(seed, yaml_path, tiles)
        report = outage_independent_approx(budget=build_link_budget(load_scenario(yaml_path)))
        rows[str(seed)] = [[r.user_id, r.mode, r.p_out] for r in report.rows]
        print(f"dense-exact seed {seed}", flush=True)
    yaml_path.unlink()
    refs["dense-exact"] = {"tiles": tiles, "p_out": rows}

    with open(check.REFS_PATH, "w", encoding="utf-8") as fh:
        # one line per innermost list keeps the file short and diffable
        text = json.dumps(refs, indent=1)
        fh.write(re.sub(r"\[\s+([^\[\]{}]*?)\s+\]", lambda m: "[" + " ".join(m.group(1).split()) + "]", text))
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
