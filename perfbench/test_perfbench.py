"""Tests of the outage benchmark itself.

    python3 -m pytest -q perfbench/test_perfbench.py
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import check  # noqa: E402
import tracing  # noqa: E402
from owcrelay.scenario import result_lines  # noqa: E402


def _span(sid, start, end, parent=None, name="x"):
    return {"id": sid, "name": name, "start": start, "end": end, "parent": parent, "run": 0}


def test_self_time_of_hand_built_tree():
    spans = [
        _span(0, 0, 100, name="outage.estimate"),
        _span(1, 10, 30, parent=0, name="geometry.contains"),
        _span(2, 15, 20, parent=1, name="trace.count"),
        _span(3, 40, 70, parent=0, name="links.sinr"),
        _span(4, 65, 90, parent=0, name="geometry.contains"),  # overlaps span 3
        _span(5, 200, 210, name="outage.estimate"),
    ]
    selfs = tracing.self_times(spans)
    # children of span 0 cover [10, 30] and [40, 90]
    assert selfs == {0: 100 - 70, 1: 20 - 5, 2: 5, 3: 30, 4: 25, 5: 10}
    by_name = tracing.self_seconds_by_name(spans)
    assert by_name["outage.estimate"] == pytest.approx(40e-9)
    assert by_name["geometry.contains"] == pytest.approx(40e-9)


def test_tracer_records_parent_and_run():
    tracer = tracing.Tracer()
    tracer.run = 3
    with tracer.span("outer"):
        with tracer.span("inner"):
            pass
    inner, outer = tracer.spans
    assert (inner["name"], inner["parent"], inner["run"]) == ("inner", outer["id"], 3)
    assert outer["parent"] is None
    assert outer["start"] <= inner["start"] <= inner["end"] <= outer["end"]


def _exact_rows_and_text():
    ref = check.load_refs()["default-exact"]
    rows = [
        {"user_id": u, "mode": m, "p_out": p, "stderr": 0.0, "n_samples": 0, "threshold_db": 15.6, "seed": 0}
        for u, m, p in ref
    ]
    return ref, "\n".join(result_lines(rows)) + "\n"


def _bump_last_digit(text: str, line_no: int) -> str:
    lines = text.split("\n")
    fields = lines[line_no].split(",")
    mantissa, _, exponent = fields[2].partition("e")
    last = int(mantissa[-1])
    mantissa = mantissa[:-1] + str(last - 1 if last else 1)
    fields[2] = mantissa + ("e" + exponent if exponent else "")
    lines[line_no] = ",".join(fields)
    return "\n".join(lines)


def test_checker_accepts_reference_rows():
    ref, text = _exact_rows_and_text()
    assert check.check_exact_text(text, ref) == []
    assert check.check_exact_values(ref, ref) == []


@pytest.mark.parametrize("line_no", [1, 4, 10])
def test_checker_rejects_last_digit_perturbation(line_no):
    ref, text = _exact_rows_and_text()
    bumped = _bump_last_digit(text, line_no)
    assert bumped != text
    assert check.check_exact_text(bumped, ref)
    assert check.check_mc_digest(bumped, check.csv_digest(text))
    assert check.check_same_text(bumped, text, "rows")


def test_checker_exact_tolerance_is_relative_1e12():
    ref, _ = _exact_rows_and_text()
    near = [(u, m, p * (1 + 1e-13)) for u, m, p in ref]
    far = [(u, m, p * (1 + 1e-11)) for u, m, p in ref]
    assert check.check_exact_values(near, ref) == []
    assert len(check.check_exact_values(far, ref)) == len(ref)


def test_cross_check_against_exact():
    exact = {("u", "direct"): 0.01, ("u", "coop"): 2e-7}
    n = 1_000_000
    good = [("u", "direct", 0.0101, (0.0101 * 0.9899 / n) ** 0.5, n), ("u", "coop", 0.0, 0.0, n)]
    assert check.check_mc_against_exact(good, exact) == []
    bad = [("u", "direct", 0.0115, (0.0115 * 0.9885 / n) ** 0.5, n), ("u", "coop", 0.0, 0.0, n)]
    assert len(check.check_mc_against_exact(bad, exact)) == 1
    missed = {("u", "direct"): 0.01, ("u", "coop"): 20.0 / n}
    assert len(check.check_mc_against_exact(good, missed)) == 1


def test_smoke_runs_every_workload():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        names = {m["name"] for m in spec[key]}
        for workload in spec["workloads"]:
            proc = subprocess.run(
                [
                    sys.executable, str(HERE / "run.py"),
                    "--workload", workload["name"],
                    "--seed", "3",
                    "--seconds", "1",
                    "--trace", str(trace),
                    "--smoke",
                ],
                capture_output=True,
                text=True,
                cwd=ROOT,
                timeout=120,
            )
            assert proc.returncode == 0, proc.stdout + proc.stderr
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            assert result["correct"] is True
            assert result["failed"] == 0
            assert set(result["metrics"]) == names
