#!/usr/bin/env python3
"""Outage benchmark of owcrelay: one workload, one seed, one run.

Run from the root of a checkout:

    python3 perfbench/run.py --workload joint-mc --seed 1 --seconds 35 --trace 0

``--trace 0`` times the real ``owcrelay simulate`` CLI and, in this
process, the scenario set-up and the estimator, and reports the end-to-end
metrics.  ``--trace 1`` installs the timing wrappers of ``tracing.py`` and
reports the per-module metrics instead.  Every run checks the rows it
produced (see ``check.py``); the last line of standard output is one JSON
object ``{"correct", "attempted", "failed", "metrics"}``, and the exit
status is nonzero when a check failed.  Details of the run, spans included,
go to ``.perfbench/`` in the checkout.
"""

from __future__ import annotations

import os

# Single-threaded BLAS here and, by inheritance, in every child, so that the
# pool workload's workers use no more threads than there are cores.
os.environ["OPENBLAS_NUM_THREADS"] = "1"
os.environ["OMP_NUM_THREADS"] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import threading  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"
CLI_TIMEOUT_S = 120.0
# Independent-model samples used to cross-check an enumeration on any seed.
CROSS_SAMPLES = 262_144
# Set-up is repeated within one iteration until this much time is spent.
SETUP_BATCH_S = 0.2
# The estimate, the metric most later changes aim at, is timed twice per
# iteration for a steadier median.
ESTIMATES_PER_ITERATION = 2

sys.path.insert(0, str(SRC))
try:
    import owcrelay
except ModuleNotFoundError as exc:
    sys.exit(f"error: cannot import owcrelay from {SRC}: {exc}")
if not Path(owcrelay.__file__).resolve().is_relative_to(SRC):
    sys.exit(f"error: owcrelay was imported from {owcrelay.__file__}, not from {SRC}")

import numpy as np  # noqa: E402

from owcrelay.links import build_link_budget  # noqa: E402
from owcrelay.outage import (  # noqa: E402
    ensure_marginals,
    outage_independent_approx,
    outage_monte_carlo,
)
from owcrelay.scenario import default_scenario, load_scenario, result_lines  # noqa: E402

import check  # noqa: E402
import hostspeed  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

# BENCHMARK.json names the metrics and their units; a run must report all.
_SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
END_TO_END_UNITS = {m["name"]: m["unit"] for m in _SPEC["end_to_end"]}
PER_LAYER_UNITS = {m["name"]: m["unit"] for m in _SPEC["per_layer"]}

# per-layer time metric -> span names whose self time it sums
SELF_TIME_SPANS = {
    "scenario.load_s": "scenario.load",
    "channel.surfaces_s": "channel.surfaces",
    "channel.cir_s": "channel.cir",
    "geometry.regions_s": "geometry.regions",
    "geometry.contains_s": "geometry.contains",
    "mobility.sample_s": "mobility.sample",
    "links.build_s": "links.build",
    "links.sinr_s": "links.sinr",
    "outage.self_s": "outage.estimate",
}


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True, help="measuring time of the run")
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument(
        "--smoke",
        action="store_true",
        help="tiny inputs and one iteration, to check that the benchmark works",
    )
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be non-negative")
    return args


class Run:
    """Inputs and helpers of one benchmark run."""

    def __init__(self, args):
        self.workload = workloads.WORKLOADS[args.workload]
        self.seed = args.seed
        self.seconds = args.seconds
        self.smoke = args.smoke
        self.min_iterations = 1 if args.smoke else (3 if args.trace == 0 else 2)
        w = self.workload
        self.samples = w.smoke_samples if args.smoke else w.samples
        self.workers = workloads.worker_count(w)
        self.tiles = 1 if args.smoke else workloads.DENSE_TILES
        self.yaml_path = None
        if w.dense:
            self.yaml_path = WORK / f"dense-seed{self.seed}-tiles{self.tiles}.yaml"
            workloads.write_dense_scenario(self.seed, self.yaml_path, self.tiles)
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            [str(SRC)] + ([self.env["PYTHONPATH"]] if self.env.get("PYTHONPATH") else [])
        )
        self.out_path = WORK / f"cli-{os.getpid()}.out"
        self.err_path = WORK / f"cli-{os.getpid()}.err"
        self.report_path = WORK / f"cli-{os.getpid()}.json"

    def cli_args(self) -> list[str]:
        if self.workload.method == "exact":
            return ["simulate", "--scenario", str(self.yaml_path), "--method", "exact"]
        return [
            "simulate",
            "--samples", str(self.samples),
            "--seed", str(self.seed),
            "--workers", str(self.workers),
            "--blockage-model", self.workload.blockage_model,
        ]

    def run_child(self, argv: list[str]):
        """Run a Python child to completion; (wall s, peak RSS MB, exit code,
        stdout, stderr).  Peak RSS is what wait4 reports for the child,
        which covers the pool workers it waited for."""
        with open(self.out_path, "w+b") as out, open(self.err_path, "w+b") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(
                [sys.executable, *argv], stdout=out, stderr=err, env=self.env, cwd=ROOT
            )
            killer = threading.Timer(CLI_TIMEOUT_S, proc.kill)
            killer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                killer.cancel()
            wall = time.perf_counter() - start
            proc.returncode = os.waitstatus_to_exitcode(status)
            out.seek(0)
            err.seek(0)
            stdout = out.read().decode("utf-8", "replace")
            stderr = err.read().decode("utf-8", "replace")
        return wall, usage.ru_maxrss / 1024.0, proc.returncode, stdout, stderr

    def run_cli(self):
        """Run ``owcrelay simulate`` through cli_child.py; (wall s, factor,
        peak RSS MB, exit code, stdout, stderr).  The wall time excludes the
        child's kernel runs; ``factor`` scales it to reference-host
        seconds with the kernel times measured on the child's own core,
        because the parent's core can be busier or idler."""
        self.report_path.unlink(missing_ok=True)
        wall, mb, code, out, err = self.run_child(
            [str(HERE / "cli_child.py"), str(self.report_path), *self.cli_args()]
        )
        try:
            with open(self.report_path, "r", encoding="utf-8") as fh:
                report = json.load(fh)
        except (OSError, ValueError):
            return wall, None, mb, code or 1, out, err + "\nno kernel report from the CLI child"
        factor = hostspeed.REFERENCE_S / ((report["before"] + report["after"]) / 2.0)
        return wall - report["own"], factor, mb, code, out, err

    def scenario(self):
        return load_scenario(self.yaml_path) if self.workload.dense else default_scenario()

    def setup(self, tracer=None):
        """Scenario -> link budget, plus marginals where the estimator needs them."""
        span = tracer.span if tracer is not None else contextlib.nullcontext
        with span("scenario.load"):
            scenario = self.scenario()
        with span("links.build"):
            budget = build_link_budget(scenario)
        if self.workload.needs_marginals:
            with span("quadrature.marginals"):
                ensure_marginals(budget)
        return budget

    def estimate(self, budget, workers: int):
        if self.workload.method == "exact":
            return outage_independent_approx(budget=budget)
        return outage_monte_carlo(
            budget=budget,
            n_samples=self.samples,
            master_seed=self.seed,
            workers=workers,
            blockage_model=self.workload.blockage_model,
        )

    def check_reference(self, text: str, report, budget, refs) -> list[str]:
        """Checks of the first in-process rows: references and cross-checks."""
        w = self.workload
        entry = refs[w.name]
        if w.method == "mc":
            problems = []
            if entry["samples"] == self.samples and str(self.seed) in entry["csv_sha256"]:
                problems += check.check_mc_digest(text, entry["csv_sha256"][str(self.seed)])
            rows = check.parse_csv(text)
            if w.blockage_model == "independent":
                exact = [(r.user_id, r.mode, r.p_out) for r in outage_independent_approx(budget=budget).rows]
                problems += check.check_exact_values(exact, refs["default-exact"])
                problems += check.check_mc_against_exact(rows, {(u, m): p for u, m, p in exact})
            else:
                ref = refs["joint-reference"]
                counts = {(u, m): k for u, m, k in ref["counts"]}
                problems += check.check_mc_against_mc(rows, counts, ref["samples"])
            return problems
        rows = [(r.user_id, r.mode, r.p_out) for r in report.rows]
        stored = entry["p_out"].get(str(self.seed)) if entry["tiles"] == self.tiles else None
        if stored is not None:
            problems = check.check_exact_values(rows, stored) + check.check_exact_text(text, stored)
        else:
            problems = check.check_exact_sanity(rows)
        mc = outage_monte_carlo(
            budget=budget,
            n_samples=CROSS_SAMPLES,
            master_seed=self.seed,
            blockage_model="independent",
        )
        mc_rows = check.parse_csv(_text(mc))
        return problems + check.check_mc_against_exact(mc_rows, {(u, m): p for u, m, p in rows})

    def keep_going(self, done: int, started: float, last: float) -> bool:
        if done < self.min_iterations:
            return True
        return time.perf_counter() - started + last <= self.seconds


def _text(report) -> str:
    return "\n".join(result_lines(report.rows)) + "\n"


def _timed(fn, *args):
    start = time.perf_counter()
    result = fn(*args)
    return time.perf_counter() - start, result


def _median(values):
    return statistics.median(values) if values else None


def provenance(run: Run, scenario) -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        openblas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError, AttributeError):
        openblas = "unknown"
    git_sha = None
    if (ROOT / ".git").exists():
        got = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True, check=False
        )
        git_sha = got.stdout.strip() or None
    src_hash = hashlib.sha256()
    for path in sorted((SRC / "owcrelay").rglob("*.py")):
        src_hash.update(path.relative_to(SRC).as_posix().encode())
        src_hash.update(path.read_bytes())
    doc = json.dumps(scenario.to_dict(), sort_keys=True)
    return {
        "workload": run.workload.name,
        "seed": run.seed,
        "blockage_model": run.workload.blockage_model,
        "method": run.workload.method,
        "workers": run.workers,
        "nproc": workloads.usable_cores(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "openblas": openblas,
        "git_sha": git_sha,
        "src_sha256": src_hash.hexdigest(),
        "scenario_sha256": hashlib.sha256(doc.encode()).hexdigest(),
        "smoke": run.smoke,
    }


def measure_end_to_end(run: Run, budget, expected: str, rows_ok: bool, props: dict, log: dict):
    """Timed loop: CLI run, warm set-up, in-process estimate, until the
    measuring time is spent.  Only runs whose rows passed are timed.
    Every time is kept raw and scaled to reference-host seconds
    (hostspeed.py); the metrics are medians of the scaled times."""
    raw = {"wall_s": [], "setup_s": [], "estimate_s": []}
    scaled = {"wall_s": [], "setup_s": [], "estimate_s": []}
    rss = []
    attempted = failed = 0
    problems = log["problems"]
    scaler = hostspeed.Scaler()

    def keep(name, seconds):
        raw[name].append(seconds)
        scaled[name].append(seconds * scaler.mark())

    started = time.perf_counter()
    done, last = 0, 0.0
    while run.keep_going(done, started, last):
        t0 = time.perf_counter()
        wall, factor, mb, code, out, err = run.run_cli()
        attempted += 1
        bad = check.check_same_text(out, expected, "CLI rows") if code == 0 else [
            f"CLI exited with {code}: {err.strip()[-500:]}"
        ]
        if bad or not rows_ok:
            failed += 1
            problems += bad
        else:
            raw["wall_s"].append(wall)
            scaled["wall_s"].append(wall * factor)
            rss.append(mb)
        scaler.mark()
        spent = 0.0
        while spent < SETUP_BATCH_S or spent == 0.0:
            dt, budget = _timed(run.setup)
            keep("setup_s", dt)
            spent += dt
            if run.smoke:
                break
        for _ in range(1 if run.smoke else ESTIMATES_PER_ITERATION):
            dt, report = _timed(run.estimate, budget, run.workers)
            attempted += 1
            bad = check.check_same_text(_text(report), expected, "in-process rows")
            if bad or not rows_ok:
                failed += 1
                problems += bad
                scaler.mark()
            else:
                keep("estimate_s", dt)
        done += 1
        last = time.perf_counter() - t0
    log["samples"] = {"raw": raw, "scaled": scaled, "peak_rss_mb": rss}
    log["raw_medians"] = {name: _median(values) for name, values in raw.items()}
    log["host_speed_median"] = _median(scaler.factors)
    metrics = {}
    if scaled["wall_s"] and scaled["estimate_s"]:
        estimate = _median(scaled["estimate_s"])
        metrics = {
            "wall_s": _median(scaled["wall_s"]),
            "setup_s": _median(scaled["setup_s"]),
            "estimate_s": estimate,
            "samples_per_s": props["states"] / estimate,
            "peak_rss_mb": _median(rss),
        }
    return metrics, attempted, failed


def per_layer_values(tracer: tracing.Tracer, run_id: int) -> dict:
    spans = tracer.run_spans(run_id)
    selfs = tracing.self_seconds_by_name(spans)
    out = {metric: selfs.get(name, 0.0) for metric, name in SELF_TIME_SPANS.items()}
    out["quadrature.marginals_s"] = sum(
        (s["end"] - s["start"]) * 1e-9 for s in spans if s["name"] == "quadrature.marginals"
    )
    out["traced_estimate_s"] = sum(
        (s["end"] - s["start"]) * 1e-9 for s in spans if s["name"] == "outage.estimate"
    )
    out["module_self_s"] = {}
    for name, secs in selfs.items():
        module = name.split(".")[0]
        out["module_self_s"][module] = out["module_self_s"].get(module, 0.0) + secs
    return out


def measure_per_layer(run: Run, budget, expected: str, rows_ok: bool, props: dict, log: dict):
    """Traced loop at one worker, beside untraced estimates for the
    tracing overhead and the pool efficiency."""
    tracer = tracing.Tracer()
    problems = log["problems"]
    attempted = failed = 0

    def checked(report, what):
        nonlocal attempted, failed
        attempted += 1
        bad = check.check_same_text(_text(report), expected, what)
        if bad or not rows_ok:
            failed += 1
            problems.extend(bad)
            return False
        return True

    task_bytes = 0
    if run.workers > 1:
        with tracing.count_task_bytes() as total:
            checked(run.estimate(budget, run.workers), "counted pool rows")
        task_bytes = total[0]

    t_pool, t_one, traced, imports, per_run = [], [], [], [], []
    started = time.perf_counter()
    done, last = 0, 0.0
    while run.keep_going(done, started, last):
        t0 = time.perf_counter()
        if run.workers > 1:
            dt, report = _timed(run.estimate, budget, run.workers)
            if checked(report, "untraced pool rows"):
                t_pool.append(dt)
        dt, report = _timed(run.estimate, budget, 1)
        if checked(report, "untraced rows"):
            t_one.append(dt)
        tracer.run = done
        tracer.counts.clear()
        with tracing.instrument(tracer):
            traced_budget = run.setup(tracer)
            with tracer.span("outage.estimate"):
                report = run.estimate(traced_budget, 1)
        if checked(report, "traced rows"):
            values = per_layer_values(tracer, done)
            per_run.append(values)
            traced.append(values["traced_estimate_s"])
        wall, _mb, code, _out, err = run.run_child(["-c", "import owcrelay"])
        if code == 0:
            imports.append(wall)
        else:
            problems.append(f"import owcrelay exited with {code}: {err.strip()[-500:]}")
        done += 1
        last = time.perf_counter() - t0

    counts = tracer.counts
    log["samples"] = {
        "untraced_estimate_s": t_one,
        "untraced_pool_estimate_s": t_pool,
        "traced_estimate_s": traced,
        "cli.import_s": imports,
    }
    log["module_self_s"] = [v.pop("module_self_s") for v in per_run]
    log["spans"] = tracer.spans
    if not (per_run and t_one and imports):
        return {}, attempted, failed
    metrics = {m: _median([v[m] for v in per_run]) for m in SELF_TIME_SPANS}
    tested = counts["geometry.pairs_tested"]
    metrics.update(
        {
            "cli.import_s": _median(imports),
            "channel.cir_calls": counts["channel.cir_calls"],
            "geometry.pairs_tested": tested,
            "geometry.bbox_hit_ratio": counts["geometry.pairs_in_bbox"] / tested if tested else 0.0,
            "geometry.blocked_ratio": counts["geometry.pairs_blocked"] / tested if tested else 0.0,
            "mobility.points": counts["mobility.points"],
            "quadrature.marginals_s": _median([v["quadrature.marginals_s"] for v in per_run]),
            "quadrature.sdf_calls": counts["quadrature.sdf_calls"],
            "quadrature.cells": counts["quadrature.cells"],
            "links.count": props["links"],
            "links.sinr_calls": sum(
                1 for s in tracer.run_spans(done - 1) if s["name"] == "links.sinr"
            ),
            "links.sinr_columns": counts["links.sinr_columns"],
            "outage.blocks": props["blocks"],
            "outage.states": props["states"],
            "outage.task_bytes": task_bytes,
            "outage.pool_efficiency": (
                _median(t_one) / (run.workers * _median(t_pool)) if t_pool else 0.0
            ),
            "trace.overhead_s": _median(traced) - _median(t_one),
        }
    )
    return metrics, attempted, failed


def main(argv=None) -> int:
    args = parse_args(argv)
    WORK.mkdir(exist_ok=True)
    run = Run(args)
    refs = check.load_refs()
    log = {"problems": []}
    try:
        # compiles the bytecode once, so no timed child pays for it
        run.run_child(["-c", "import owcrelay"])
        setup_first_s, budget = _timed(run.setup)
        log["provenance"] = provenance(run, budget.scenario)
        props = workloads.input_properties(run.workload, budget, run.samples, run.workers)
        log["inputs"] = props
        log["setup_first_s"] = setup_first_s
        # first estimate: warm-up, and the rows every later run must repeat
        _, report = _timed(run.estimate, budget, run.workers)
        expected = _text(report)
        log["problems"] += run.check_reference(expected, report, budget, refs)
        rows_ok = not log["problems"]
        measure = measure_per_layer if args.trace else measure_end_to_end
        metrics, attempted, failed = measure(run, budget, expected, rows_ok, props, log)
    finally:
        for path in (run.out_path, run.err_path, run.report_path):
            path.unlink(missing_ok=True)
    attempted += 1
    failed += 0 if rows_ok else 1
    units = PER_LAYER_UNITS if args.trace else END_TO_END_UNITS
    correct = failed == 0 and not log["problems"] and set(metrics) == set(units)

    log["metrics"] = metrics
    log["attempted"] = attempted
    log["failed"] = failed
    out_file = WORK / f"{run.workload.name}-seed{run.seed}-trace{args.trace}.json"
    with open(out_file, "w", encoding="utf-8") as fh:
        json.dump(log, fh, indent=1)

    for key, value in log["provenance"].items():
        print(f"provenance {key}: {value}")
    for key, value in props.items():
        print(f"input {key}: {value}")
    print(f"setup_first_s: {setup_first_s:.6g} s")
    for problem in log["problems"]:
        print(f"problem: {problem}")
    print(f"error_rate: {failed / attempted:.6g} ({failed} of {attempted} runs)")
    for name, unit in units.items():
        if name in metrics:
            print(f"{name}: {metrics[name]:.6g} {unit}")
    for name, value in log.get("raw_medians", {}).items():
        if value is not None:
            print(f"{name} unscaled: {value:.6g} s")
    if "host_speed_median" in log:
        print(f"host speed (reference = 1): {log['host_speed_median']:.4g}")
    if args.trace and log["module_self_s"]:
        modules = log["module_self_s"][-1]
        for module in sorted(modules):
            print(f"self time {module}: {modules[module]:.6g} s")
    print(f"details: {out_file.relative_to(ROOT)}")
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units if name in metrics},
    }
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
