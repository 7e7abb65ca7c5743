"""Row checks of the outage benchmark.

Each check returns a list of problems; an empty list means the rows passed.
References live in ``refs.json`` beside this file and were recorded by
``make_refs.py``.  Seeds without a stored reference are still checked
against the estimators' own cross-checks, which hold for any seed.
"""

from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path

REFS_PATH = Path(__file__).resolve().parent / "refs.json"

# A cross-check fails beyond this many standard errors.
Z_LIMIT = 5.0
# Where Monte Carlo saw no hit, the exact value must stay below
# NO_HIT_LIMIT / n.  With expected count lam the chance of no hit is
# exp(-lam), and exp(-15) = 3e-7 matches the 5-sigma level above; the
# rule-of-three bound 3 / n would fail a correct program on 5% of seeds
# whenever lam is near 3.
NO_HIT_LIMIT = 15.0
# Exact rows match their reference within this relative tolerance.
EXACT_REL_TOL = 1e-12


def load_refs(path=REFS_PATH) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def csv_digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def parse_csv(text: str) -> list[tuple[str, str, float, float, int]]:
    """(user_id, mode, p_out, stderr, n_samples) per data line of CLI output."""
    lines = text.strip("\n").split("\n")
    if not lines or lines[0] != "user_id,mode,p_out,stderr,n_samples,threshold_db,seed":
        raise ValueError("missing result header")
    rows = []
    for line in lines[1:]:
        user, mode, p, se, n, _thr, _seed = line.split(",")
        rows.append((user, mode, float(p), float(se), int(n)))
    return rows


def check_same_text(text: str, expected: str, what: str) -> list[str]:
    if text == expected:
        return []
    got = text.splitlines()
    want = expected.splitlines()
    for i, (a, b) in enumerate(zip(got, want)):
        if a != b:
            return [f"{what}: line {i + 1} is {a!r}, expected {b!r}"]
    return [f"{what}: {len(got)} lines, expected {len(want)}"]


def check_mc_digest(text: str, ref_digest: str) -> list[str]:
    """Fixed-seed Monte Carlo output must be byte-identical to the reference."""
    got = csv_digest(text)
    if got != ref_digest:
        return [f"Monte Carlo rows differ from the recorded reference (sha256 {got[:12]}...)"]
    return []


def _close(value: float, ref: float) -> bool:
    return abs(value - ref) <= EXACT_REL_TOL * abs(ref)


def check_exact_values(rows, ref_rows) -> list[str]:
    """Full-precision exact rows against the reference, rel 1e-12.

    ``rows`` and ``ref_rows`` are sequences of (user_id, mode, p_out).
    """
    if len(rows) != len(ref_rows):
        return [f"exact: {len(rows)} rows, reference has {len(ref_rows)}"]
    problems = []
    for (u, m, p), (ru, rm, rp) in zip(rows, ref_rows):
        if (u, m) != (ru, rm):
            problems.append(f"exact: row {u}/{m} where the reference has {ru}/{rm}")
        elif not _close(p, rp):
            problems.append(f"exact: {u}/{m} p_out {p!r}, reference {rp!r}")
    return problems


def check_exact_text(text: str, ref_rows) -> list[str]:
    """CLI rows of an exact run against full-precision references.

    The CLI prints 10 significant digits, so each printed p_out must be the
    10-digit form of a value within rel 1e-12 of the reference.  A change in
    the last printed digit is rejected unless the reference sits that close
    to a rounding boundary.
    """
    try:
        rows = parse_csv(text)
    except ValueError as exc:
        return [f"exact: unreadable output: {exc}"]
    if len(rows) != len(ref_rows):
        return [f"exact: {len(rows)} rows, reference has {len(ref_rows)}"]
    problems = []
    lines = text.strip("\n").split("\n")[1:]
    for line, (u, m, _p, _se, _n), (ru, rm, rp) in zip(lines, rows, ref_rows):
        printed = line.split(",")[2]
        allowed = {
            format(v, ".10g") for v in (rp * (1 - EXACT_REL_TOL), rp, rp * (1 + EXACT_REL_TOL))
        }
        if (u, m) != (ru, rm):
            problems.append(f"exact: row {u}/{m} where the reference has {ru}/{rm}")
        elif printed not in allowed:
            problems.append(f"exact: {u}/{m} printed p_out {printed}, reference {rp!r}")
    return problems


def check_mc_against_exact(mc_rows, exact_values: dict) -> list[str]:
    """Independent-model Monte Carlo rows against exact enumeration.

    ``mc_rows`` holds (user_id, mode, p_out, stderr, n_samples); the
    difference must stay within 5 standard errors, taking the larger of the
    sampled and the exact binomial error.  A row with no hit needs the exact
    value below 15 / n, a row with every sample in outage the mirror bound.
    """
    problems = []
    for u, m, p, se, n in mc_rows:
        q = exact_values[(u, m)]
        if p == 0.0:
            ok = q < NO_HIT_LIMIT / n
        elif p == 1.0:
            ok = 1.0 - q < NO_HIT_LIMIT / n
        else:
            sd = max(se, math.sqrt(max(q * (1.0 - q), 0.0) / n))
            ok = abs(p - q) <= Z_LIMIT * sd
        if not ok:
            problems.append(f"{u}/{m}: Monte Carlo {p!r} (n={n}) disagrees with exact {q!r}")
    return problems


def check_mc_against_mc(mc_rows, ref_counts: dict, ref_n: int) -> list[str]:
    """Monte Carlo rows against a larger independent run of the same model.

    Two-proportion z-test with the pooled estimate; rows where neither run
    saw a hit (or both saw only hits) pass.
    """
    problems = []
    for u, m, p, _se, n in mc_rows:
        k = round(p * n)
        k_ref = ref_counts[(u, m)]
        pooled = (k + k_ref) / (n + ref_n)
        var = pooled * (1.0 - pooled) * (1.0 / n + 1.0 / ref_n)
        if var == 0.0:
            ok = k * ref_n == k_ref * n
        else:
            ok = abs(k / n - k_ref / ref_n) <= Z_LIMIT * math.sqrt(var)
        if not ok:
            problems.append(
                f"{u}/{m}: Monte Carlo {p!r} (n={n}) disagrees with reference "
                f"{k_ref / ref_n!r} (n={ref_n})"
            )
    return problems


def check_exact_sanity(rows) -> list[str]:
    """Exact rows of a seed without a reference: probabilities in [0, 1],
    and relaying never raises a user's outage."""
    problems = []
    direct = {}
    for u, m, p in rows:
        if not 0.0 <= p <= 1.0 + EXACT_REL_TOL:
            problems.append(f"exact: {u}/{m} p_out {p!r} outside [0, 1]")
        if m == "direct":
            direct[u] = p
        elif u in direct and p > direct[u] * (1 + EXACT_REL_TOL):
            problems.append(f"exact: {u} coop {p!r} above direct {direct[u]!r}")
    return problems
