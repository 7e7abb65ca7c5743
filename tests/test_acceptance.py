"""Acceptance gate: one test per shipped claim, one printed verdict line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the verdict lines;
each test also asserts, so the suite fails loudly without ``-s``.
"""

import math
import subprocess
import sys
import time

import numpy as np
import pytest

from owcrelay.channel import impulse_response
from owcrelay.geometry import StadiumRegion, blocked_region
from owcrelay.links import build_link_budget, evaluate_sinr
from owcrelay.mobility import integrate_region, pdf_xy, sample_human_positions
from owcrelay.outage import outage_independent_approx, outage_monte_carlo
from owcrelay.scenario import ApConfig, ChannelConfig, HumanConfig, RoomConfig, UserConfig

from conftest import make_noise_free_scenario
from reference import reference_sinr, segment_meets_cylinder, sinr_mrc

FLOOR = RoomConfig(width_m=4.0, length_m=8.0)  # the walker law reads the floor alone
CYL = HumanConfig()


def _report(n: int, ok: bool, detail: str) -> None:
    print(f"criterion {n}: {'PASS' if ok else 'FAIL'} — {detail}")
    assert ok, f"criterion {n}: {detail}"


def test_criterion_1_density_normalization():
    whole_floor = StadiumRegion(spine_p0=(-10.0, 4.0), spine_p1=(14.0, 4.0), radius=20.0)
    total = integrate_region([whole_floor], FLOOR, rel_tol=1e-6)[0]
    center = float(pdf_xy(FLOOR, 2.0, 4.0))
    ok = abs(total - 1.0) <= 1e-9 and abs(center - 0.0703125) <= 1e-12
    _report(1, ok, f"floor integral {total:.12f}, center density {center:.10f}")


def test_criterion_2_membership_matches_predicate():
    rng = np.random.default_rng(101)
    t0 = time.monotonic()
    mismatches = 0
    for _ in range(10_000):
        a = rng.uniform([0, 0, 0], [4, 8, 3])
        b = rng.uniform([0, 0, 0], [4, 8, 3])
        if np.allclose(a, b):
            continue
        center = rng.uniform([0, 0], [4, 8])
        region = blocked_region(a, b, CYL)
        in_region = bool(region.contains(center[None, :])[0])
        hits = segment_meets_cylinder(a, b, center, CYL)
        mismatches += in_region != hits
    elapsed = time.monotonic() - t0
    ok = mismatches == 0 and elapsed < 10.0
    _report(2, ok, f"{mismatches} mismatches in 10,000 trials, {elapsed:.2f} s")


def test_criterion_3_blockage_quadrature_vs_mc(default_sc, budget):
    t0 = time.monotonic()
    regions = []
    labels = []
    for ap in default_sc.aps:
        for user in default_sc.users:
            regions.append(blocked_region(ap.position_m, user.position_m, CYL))
            labels.append(f"{ap.id}:{user.id}")
    assert len(regions) == 48  # every source-user pair, served or not
    for link, region in zip(budget.links, budget.regions):
        if link.kind in ("feeder", "delivery"):
            regions.append(region)
            labels.append(link.link_id)

    probs = integrate_region(regions, FLOOR, rel_tol=1e-4)
    pts = sample_human_positions(FLOOR, 1_000_000, np.random.default_rng(123))
    worst = 0.0
    ok = True
    for label, region, p in zip(labels, regions, probs):
        p_hat = float(np.mean(region.contains(pts)))
        se = math.sqrt(max(p * (1.0 - p), 1e-30) / 1_000_000)
        pull = abs(p_hat - p) / se if se > 0 else (0.0 if p_hat == p else math.inf)
        worst = max(worst, pull)
        ok = ok and pull <= 3.0
    elapsed = time.monotonic() - t0
    ok = ok and elapsed < 60.0
    _report(
        3,
        ok,
        f"{len(regions)} regions (48 direct + {len(regions) - 48} relay hops), "
        f"worst |mc-quad| = {worst:.2f} se, {elapsed:.1f} s",
    )


def test_criterion_4_single_link_equivalence(single_link_budget):
    p_quad = integrate_region(single_link_budget.regions, FLOOR, rel_tol=1e-6)[0]
    report = outage_monte_carlo(
        budget=single_link_budget, n_samples=1_000_000, master_seed=17,
        blockage_model="joint",
    )
    row = report.by_user("u1", "direct")
    se = math.sqrt(p_quad * (1.0 - p_quad) / 1_000_000)
    ok = abs(row.p_out - p_quad) <= 3.0 * se and abs(p_quad - 0.00652) / 0.00652 < 0.03
    _report(
        4,
        ok,
        f"quadrature {p_quad:.6f} (vs 0.00652 nominal), mc {row.p_out:.6f}, "
        f"|diff| = {abs(row.p_out - p_quad) / se:.2f} se",
    )


def test_criterion_5_relay_improvement_ratios(budget):
    t0 = time.monotonic()
    # exact enumeration under the independent-link model: the n -> inf limit
    exact = outage_independent_approx(budget=budget)
    ratios = {}
    ok = True
    for t in budget.user_terms:
        d = exact.by_user(t.user_id, "direct").p_out
        c = exact.by_user(t.user_id, "coop").p_out
        ratios[t.user_id] = d / c
        ok = ok and c < d
    gm = math.exp(sum(math.log(r) for r in ratios.values()) / len(ratios))
    ok = ok and gm >= 10.0
    ok = ok and max(ratios, key=ratios.get) == "u5"

    # sampling cross-check on every row the sample size can resolve
    mc = outage_monte_carlo(
        budget=budget, n_samples=1_000_000, master_seed=29,
        blockage_model="independent",
    )
    for t in budget.user_terms:
        for mode in ("direct", "coop"):
            p = exact.by_user(t.user_id, mode).p_out
            if p * 1_000_000 < 25.0:
                continue  # expected hit count too small to test at this n
            row = mc.by_user(t.user_id, mode)
            se = math.sqrt(p * (1.0 - p) / 1_000_000)
            ok = ok and abs(row.p_out - p) <= 4.0 * se
    elapsed = time.monotonic() - t0
    ok = ok and elapsed < 600.0
    detail = ", ".join(f"{u} {r:.0f}x" for u, r in sorted(ratios.items()))
    _report(5, ok, f"improvement {detail}; geometric mean {gm:.0f}x; {elapsed:.0f} s")


def test_criterion_6_mrc_exact(budget):
    # the default room, and a noise-free one where no source reaches u2 to
    # u6, whose every SINR term is 0/0 and reads 0
    dominates = matches = True
    for b in (budget, build_link_budget(make_noise_free_scenario())):
        rng = np.random.default_rng(41)
        clear = (rng.random((b.link_count, 1000)) < rng.random(1000)).astype(float)
        direct, combined = evaluate_sinr(b, clear)
        ref_direct, ref_relayed = reference_sinr(b, clear)
        reference = sinr_mrc(ref_direct, ref_relayed)
        dominates &= bool(np.all(combined >= direct))
        matches &= bool(np.all(np.abs(combined - reference) <= 1e-12 * reference))
    _report(
        6,
        dominates and matches,
        f"1,000 random link states in each of two rooms: combined >= direct everywhere: "
        f"{dominates}; combined = reference direct + relayed within rel 1e-12: {matches}",
    )


def test_criterion_7_byte_identical_across_workers(tmp_path):
    def run(out, workers):
        res = subprocess.run(
            [
                sys.executable, "-m", "owcrelay.cli", "simulate",
                "--samples", "100000", "--seed", "23",
                "--workers", str(workers), "--out", str(out),
            ],
            capture_output=True,
            text=True,
            timeout=600,
        )
        assert res.returncode == 0, res.stderr
        return out.read_bytes()

    a = run(tmp_path / "w1a.csv", 1)
    b = run(tmp_path / "w1b.csv", 1)
    c = run(tmp_path / "w8.csv", 8)
    ok = a == b == c and len(a) > 0
    _report(7, ok, f"three runs (1, 1, 8 workers) all {len(a)} identical bytes")


def test_criterion_8_channel_sanity():
    room = RoomConfig(width_m=4.0, length_m=8.0, height_m=3.0)
    tall = RoomConfig(width_m=4.0, length_m=8.0, height_m=5.0)

    def tx(p):
        # 1 mW, 2.1 mrad, pointing straight down, steered up to 40 deg
        return ApConfig("ap", p)

    def rx(p):
        # 1 cm^2, 90 deg field of view, facing straight up
        return UserConfig("u", p)

    cir2 = impulse_response(tx((1, 1, 3)), rx((1, 1, 1)), room, ChannelConfig(max_bounces=0))
    cir4 = impulse_response(tx((1, 1, 5)), rx((1, 1, 1)), tall, ChannelConfig(max_bounces=0))
    ok = cir2.los_gain == 1.0
    ok = ok and abs(cir4.los_gain - 0.45112) <= 1e-4
    ok = ok and int(np.flatnonzero(cir2.gains)[0]) == 667

    dcs = [
        impulse_response(tx((1, 1, 3)), rx((2, 1, 1)), room, ChannelConfig(max_bounces=k))
        .dc_gain()
        for k in (0, 1, 2)
    ]
    ok = ok and dcs[0] <= dcs[1] <= dcs[2]
    _report(
        8,
        ok,
        f"los(2m) = {cir2.los_gain}, los(4m) = {cir4.los_gain:.5f}, bin 667, "
        f"dc by bounce {dcs[0]:.4f} <= {dcs[1]:.4f} <= {dcs[2]:.4f}",
    )


def test_criterion_9_sampler_variances():
    pts = sample_human_positions(FLOOR, 1_000_000, np.random.default_rng(31))
    ok = True
    details = []
    for axis, extent, var in (("x", 4.0, 0.8), ("y", 8.0, 3.2)):
        s2 = float(np.var(pts[:, 0 if axis == "x" else 1]))
        mu4 = 3.0 * extent**4 / 560.0  # fourth central moment of the axis law
        se = math.sqrt((mu4 - var * var) / 1_000_000)
        ok = ok and abs(s2 - var) <= 3.0 * se
        details.append(f"var({axis}) = {s2:.4f} (target {var}, se {se:.1e})")
    _report(9, ok, "; ".join(details))
