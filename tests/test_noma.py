import dataclasses
import math

import numpy as np
import pytest

from owcrelay.links import (
    ELECTRON_CHARGE,
    build_link_budget,
    evaluate_sinr,
    noise_variance,
    order_users_and_allocate,
)
from owcrelay.scenario import ApConfig, NoiseConfig, NomaConfig, ScenarioError

from reference import (
    NomaAllocation,
    SinrBreakdown,
    reference_sinr,
    relay_second_phase_sinr,
    sinr_direct,
    sinr_mrc,
    users_after,
)

SIGMA_EX = 1.60218e-12  # noise variance used by the worked ratio examples


def allocate(ap_id, users, gains):
    """The split of a default 1 mW source under the default ratio of 4."""
    return order_users_and_allocate(ApConfig(ap_id, (1.0, 1.0, 3.0)), users, gains, NomaConfig())


def one_user_alloc(power_w=1e-3, ap_id="ap1", user_id="u1"):
    return NomaAllocation(
        by_ap={ap_id: {user_id: power_w}}, power_ratio=4.0
    )


class TestAllocation:
    def test_single_user_gets_budget(self):
        alloc = allocate("ap1", ["u1"], {"u1": 1.0})
        assert tuple(alloc.values()) == (1e-3,)
        assert tuple(alloc) == ("u1",)

    def test_two_user_split_at_ratio_four(self):
        alloc = allocate("ap1", ["a", "b"], {"a": 0.9, "b": 0.1})
        assert tuple(alloc) == ("b", "a")  # weakest first
        assert tuple(alloc.values())[0] == pytest.approx(0.8e-3, rel=1e-15)
        assert tuple(alloc.values())[1] == pytest.approx(0.2e-3, rel=1e-15)

    def test_three_user_geometric_weights(self):
        alloc = allocate("ap1", ["a", "b", "c"], {"a": 3.0, "b": 1.0, "c": 2.0})
        assert tuple(alloc) == ("b", "c", "a")
        expect = [16 / 21, 4 / 21, 1 / 21]
        for p, e in zip(alloc.values(), expect):
            assert p == pytest.approx(1e-3 * e, rel=1e-14)

    def test_gain_tie_breaks_by_user_id(self):
        alloc = allocate("ap1", ["u9", "u2"], {"u9": 0.5, "u2": 0.5})
        assert tuple(alloc) == ("u2", "u9")

    def test_power_conservation(self):
        rng = np.random.default_rng(5)
        for _ in range(30):
            n = int(rng.integers(1, 7))
            users = [f"u{i}" for i in range(n)]
            gains = {u: float(rng.uniform(0, 1)) for u in users}
            alloc = allocate("ap1", users, gains)
            powers = tuple(alloc.values())
            assert math.fsum(powers) == pytest.approx(1e-3, rel=1e-12)
            # weakest-first means shares never increase along the order
            assert all(p1 >= p2 for p1, p2 in zip(powers, powers[1:]))

    def test_validation(self):
        with pytest.raises(ValueError):
            allocate("ap1", [], {})
        # the ratio and the budget are checked where their sections are built
        with pytest.raises(ValueError, match=r"^power_ratio: must exceed 1$"):
            NomaConfig(power_ratio=1.0)
        with pytest.raises(ValueError, match="^power_mw: must be positive$"):
            ApConfig("ap1", (1.0, 1.0, 3.0), power_mw=0.0)
        with pytest.raises(ValueError):
            allocate("ap1", ["u1"], {"u1": -0.1})

    def test_power_of_unknown_user(self):
        # a user the source does not serve has no share
        alloc = allocate("ap1", ["u1"], {"u1": 1.0})
        with pytest.raises(KeyError):
            alloc["u9"]

    def test_interferers_follow_decode_order(self):
        alloc = allocate("ap1", ["m", "s", "w"], {"w": 0.1, "m": 0.5, "s": 0.9})
        assert users_after(alloc, "w") == ("m", "s")
        assert users_after(alloc, "m") == ("s",)
        assert users_after(alloc, "s") == ()  # strongest decodes last, clean

    def test_serving_aps(self):
        alloc = NomaAllocation(
            by_ap={
                "ap1": {"u1": 0.8e-3, "u4": 0.2e-3},
                "ap5": {"u4": 1e-3},
            },
            power_ratio=4.0,
        )
        assert alloc.serving_aps("u4") == ("ap1", "ap5")
        assert alloc.serving_aps("u1") == ("ap1",)
        assert alloc.serving_aps("zz") == ()


class TestNoise:
    def test_thermal_floor(self):
        assert noise_variance(NoiseConfig(), 0.0, 0.5) == pytest.approx(1e-14, rel=1e-15)

    def test_shot_from_milliwatt(self):
        v = noise_variance(NoiseConfig(), 1e-3, responsivity=0.5)
        shot = 2.0 * ELECTRON_CHARGE * 0.5e-3 * 1e10
        assert shot == pytest.approx(1.602176634e-12, rel=1e-12)
        assert v == shot + 1e-14

    def test_background_current_adds_shot(self):
        base = noise_variance(NoiseConfig(), 1e-3, 0.5)
        lit = noise_variance(NoiseConfig(background_current_a=1e-3), 1e-3, 0.5)
        assert lit - base == pytest.approx(2.0 * ELECTRON_CHARGE * 1e-3 * 1e10, rel=1e-12)

    def test_validation(self):
        with pytest.raises(ScenarioError, match=r"^bandwidth_ghz: must be positive$"):
            NoiseConfig(bandwidth_ghz=0.0)
        with pytest.raises(ScenarioError, match="^noise_density_a2hz: must be non-negative$"):
            NoiseConfig(noise_density_a2hz=-1e-24)
        with pytest.raises(ValueError):
            noise_variance(NoiseConfig(), -1e-3, 0.5)


class TestDirectSinr:
    def test_single_clean_link(self):
        alloc = one_user_alloc()
        s = sinr_direct("u1", alloc, {("ap1", "u1"): 1.0}, {("ap1", "u1"): 1.0}, 0.5, SIGMA_EX)
        assert s == pytest.approx(2.5e-7 / SIGMA_EX, rel=1e-12)
        assert s == pytest.approx(1.5604e5, rel=2e-4)

    def test_one_interferer(self):
        alloc = NomaAllocation(
            by_ap={"ap1": {"u1": 1e-3, "k": 1e-4}},
            power_ratio=4.0,
        )
        gains = {("ap1", "u1"): 1.0, ("ap1", "k"): 1.0}
        clear = {("ap1", "u1"): 1.0, ("ap1", "k"): 1.0}
        s = sinr_direct("u1", alloc, gains, clear, 0.5, SIGMA_EX)
        assert s == pytest.approx(2.5e-7 / (SIGMA_EX + 2.5e-9), rel=1e-12)
        assert s == pytest.approx(99.936, rel=1e-3)

    def test_blocked_interferer_cancels_its_term(self):
        alloc = NomaAllocation(
            by_ap={"ap1": {"u1": 1e-3, "k": 1e-4}},
            power_ratio=4.0,
        )
        gains = {("ap1", "u1"): 1.0, ("ap1", "k"): 1.0}
        gated = {("ap1", "u1"): 1.0, ("ap1", "k"): 0.0}
        s = sinr_direct("u1", alloc, gains, gated, 0.5, SIGMA_EX)
        assert s == pytest.approx(2.5e-7 / SIGMA_EX, rel=1e-12)

    def test_all_blocked_is_zero(self):
        alloc = one_user_alloc()
        # also at a noise-free receiver, where the ratio is 0/0
        gains, blocked = {("ap1", "u1"): 1.0}, {("ap1", "u1"): 0.0}
        for noise_var in (SIGMA_EX, 0.0):
            assert sinr_direct("u1", alloc, gains, blocked, 0.5, noise_var) == 0.0

    def test_two_aps_accumulate(self):
        alloc = NomaAllocation(
            by_ap={
                "ap1": {"u1": 1e-3},
                "ap2": {"u1": 1e-3},
            },
            power_ratio=4.0,
        )
        gains = {("ap1", "u1"): 1.0, ("ap2", "u1"): 1.0}
        clear = {k: 1.0 for k in gains}
        s = sinr_direct("u1", alloc, gains, clear, 0.5, SIGMA_EX)
        assert s == pytest.approx(2 * 2.5e-7 / SIGMA_EX, rel=1e-12)

    def test_pure_thermal_scale_invariance(self):
        # with shot noise off, scaling powers by c and the variance by c^2
        # cancels exactly
        alloc_lo = one_user_alloc(power_w=1e-3)
        alloc_hi = one_user_alloc(power_w=4e-3)
        gains = {("ap1", "u1"): 0.7}
        clear = {("ap1", "u1"): 1.0}
        lo = sinr_direct("u1", alloc_lo, gains, clear, 0.5, 1e-14)
        hi = sinr_direct("u1", alloc_hi, gains, clear, 0.5, 16e-14)
        assert lo == hi


class TestRelaySinr:
    def _alloc(self):
        return one_user_alloc()

    def test_blocked_branch_is_zero(self):
        # also at a noise-free receiver, where the ratio is 0/0
        for noise_var in (1e-14, 0.0):
            for combining in ("summed", "per_branch"):
                s = relay_second_phase_sinr(
                    "u1", [("ap1", "r1")], {("ap1", "r1"): 0.0}, self._alloc(),
                    {("ap1", "r1"): 1.0}, {("r1", "u1"): 1.0}, 0.5, noise_var, {"r1": 1e-12},
                    combining=combining,
                )
                assert s == 0.0

    def test_single_branch_formula(self):
        s = relay_second_phase_sinr(
            "u1", [("ap1", "r1")], {("ap1", "r1"): 1.0}, self._alloc(),
            {("ap1", "r1"): 1.0}, {("r1", "u1"): 1.0}, 0.5, 1e-14, {"r1": 1.6e-12},
        )
        assert s == pytest.approx(2.5e-7 / (1e-14 + 1.6e-12), rel=1e-12)

    def test_two_identical_branches_sum_squares(self):
        branches = [("ap1", "r1"), ("ap2", "r2")]
        factors = {b: 1.0 for b in branches}
        alloc = NomaAllocation(
            by_ap={
                "ap1": {"u1": 1e-3},
                "ap2": {"u1": 1e-3},
            },
            power_ratio=4.0,
        )
        feeders = {("ap1", "r1"): 1.0, ("ap2", "r2"): 1.0}
        deliveries = {("r1", "u1"): 1.0, ("r2", "u1"): 1.0}
        noise = {"r1": 1.6e-12, "r2": 1.6e-12}
        s = relay_second_phase_sinr(
            "u1", branches, factors, alloc, feeders, deliveries, 0.5, 1e-14, noise
        )
        assert s == pytest.approx(2 * 2.5e-7 / (1e-14 + 2 * 1.6e-12), rel=1e-12)
        p = relay_second_phase_sinr(
            "u1", branches, factors, alloc, feeders, deliveries, 0.5, 1e-14, noise,
            combining="per_branch",
        )
        assert p == pytest.approx(2 * 2.5e-7 / (1e-14 + 1.6e-12), rel=1e-12)

    def test_branch_interference_gated_with_branch(self):
        alloc = NomaAllocation(
            by_ap={"ap1": {"u1": 8e-4, "k": 2e-4}},
            power_ratio=4.0,
        )
        s = relay_second_phase_sinr(
            "u1", [("ap1", "r1")], {("ap1", "r1"): 1.0}, alloc,
            {("ap1", "r1"): 1.0}, {("r1", "u1"): 1.0}, 0.5, 1e-14, {"r1": 1.6e-12},
        )
        sig = (0.5 * 8e-4) ** 2
        intf = (0.5 * 2e-4) ** 2
        assert s == pytest.approx(sig / (1e-14 + intf + 1.6e-12), rel=1e-12)

    def test_blocked_branch_forwards_no_noise(self):
        # a blocked relay contributes neither signal nor its amplifier noise
        branches = [("ap1", "r1"), ("ap2", "r2")]
        alloc = NomaAllocation(
            by_ap={
                "ap1": {"u1": 1e-3},
                "ap2": {"u1": 1e-3},
            },
            power_ratio=4.0,
        )
        feeders = {("ap1", "r1"): 1.0, ("ap2", "r2"): 1.0}
        deliveries = {("r1", "u1"): 1.0, ("r2", "u1"): 1.0}
        noise = {"r1": 1.6e-12, "r2": 1.6e-12}
        both = relay_second_phase_sinr(
            "u1", branches, {("ap1", "r1"): 1.0, ("ap2", "r2"): 0.0}, alloc,
            feeders, deliveries, 0.5, 1e-14, noise,
        )
        only = relay_second_phase_sinr(
            "u1", [("ap1", "r1")], {("ap1", "r1"): 1.0}, alloc,
            feeders, deliveries, 0.5, 1e-14, noise,
        )
        assert both == only

    def test_unknown_combining_rejected(self):
        with pytest.raises(ValueError):
            relay_second_phase_sinr(
                "u1", [], {}, self._alloc(), {}, {}, 0.5, 1e-14, {}, combining="coherent"
            )


class TestMrc:
    def test_addition(self):
        assert sinr_mrc(10.0, 5.0) == 15.0
        assert sinr_mrc(7.25, 0.0) == 7.25

    def test_threshold_crossing_example(self):
        threshold = 10 ** 1.56
        assert sinr_mrc(20.0, 16.31) == pytest.approx(36.31, rel=1e-12)
        assert 20.0 <= threshold and 16.31 <= threshold
        assert sinr_mrc(20.0, 16.31) > threshold

    def test_dominance(self):
        rng = np.random.default_rng(13)
        for _ in range(1000):
            d, r = rng.exponential(50.0, 2)
            assert sinr_mrc(d, r) >= max(d, r)
            assert sinr_mrc(d, r) == d + r

    def test_breakdown(self):
        b = SinrBreakdown(direct=20.0, relayed=16.31, direct_factors=(1.0,))
        assert b.combined == pytest.approx(36.31, rel=1e-12)
        assert b.combined_db() == pytest.approx(10 * math.log10(36.31), rel=1e-12)
        dead = SinrBreakdown(direct=0.0, relayed=0.0)
        assert dead.combined == 0.0
        assert dead.combined_db() == -math.inf


class TestMonotonicity:
    def _random_direct_setup(self, rng):
        n_aps = int(rng.integers(1, 4))
        users = [f"u{i}" for i in range(int(rng.integers(1, 4)))]
        by_ap = {}
        gains = {}
        clear = {}
        for a in range(n_aps):
            ap = f"ap{a}"
            g = {u: float(rng.uniform(0.1, 1.0)) for u in users}
            by_ap[ap] = allocate(ap, users, g)
            for u in users:
                gains[(ap, u)] = g[u]
                clear[(ap, u)] = float(rng.integers(0, 2))
        return NomaAllocation(by_ap=by_ap, power_ratio=4.0), gains, clear, users

    def test_own_beam_flip_never_hurts(self):
        rng = np.random.default_rng(17)
        for _ in range(200):
            alloc, gains, clear, users = self._random_direct_setup(rng)
            u = users[int(rng.integers(0, len(users)))]
            ap = alloc.serving_aps(u)[0]
            base = dict(clear)
            base[(ap, u)] = 0.0
            flipped = dict(base)
            flipped[(ap, u)] = 1.0
            lo = sinr_direct(u, alloc, gains, base, 0.5, 1e-14)
            hi = sinr_direct(u, alloc, gains, flipped, 0.5, 1e-14)
            assert hi >= lo

    def test_interferer_flip_directions(self):
        # unblocking an interferer's beam helps that user and hurts (or at
        # least never helps) the one decoding earlier
        alloc = NomaAllocation(
            by_ap={"ap1": {"u1": 8e-4, "k": 2e-4}},
            power_ratio=4.0,
        )
        gains = {("ap1", "u1"): 1.0, ("ap1", "k"): 0.9}
        off = {("ap1", "u1"): 1.0, ("ap1", "k"): 0.0}
        on = {("ap1", "u1"): 1.0, ("ap1", "k"): 1.0}
        assert sinr_direct("u1", alloc, gains, on, 0.5, 1e-14) < sinr_direct(
            "u1", alloc, gains, off, 0.5, 1e-14
        )
        assert sinr_direct("k", alloc, gains, on, 0.5, 1e-14) > sinr_direct(
            "k", alloc, gains, off, 0.5, 1e-14
        )

    def test_per_branch_combining_monotone_in_branch_flips(self):
        rng = np.random.default_rng(19)
        for _ in range(200):
            n_b = int(rng.integers(1, 5))
            branches = [(f"ap{i}", f"r{i}") for i in range(n_b)]
            alloc = NomaAllocation(
                by_ap={f"ap{i}": {"u1": 1e-3} for i in range(n_b)},
                power_ratio=4.0,
            )
            feeders = {b: float(rng.uniform(0, 1)) for b in branches}
            deliveries = {(b[1], "u1"): float(rng.uniform(0, 1)) for b in branches}
            noise = {b[1]: float(rng.uniform(1e-13, 1e-11)) for b in branches}
            factors = {b: float(rng.integers(0, 2)) for b in branches}
            j = int(rng.integers(0, n_b))
            base = dict(factors)
            base[branches[j]] = 0.0
            flipped = dict(base)
            flipped[branches[j]] = 1.0
            lo = relay_second_phase_sinr(
                "u1", branches, base, alloc, feeders, deliveries, 0.5, 1e-14, noise,
                combining="per_branch",
            )
            hi = relay_second_phase_sinr(
                "u1", branches, flipped, alloc, feeders, deliveries, 0.5, 1e-14, noise,
                combining="per_branch",
            )
            assert hi >= lo

    def test_summed_combining_weak_branch_tradeoff(self):
        # pooled-ratio combining lets a weak live branch dilute a strong
        # one: its forwarded noise grows the shared denominator faster than
        # its signal grows the numerator (per-branch combining avoids this)
        branches = [("ap1", "r1"), ("ap2", "r2")]
        alloc = NomaAllocation(
            by_ap={
                "ap1": {"u1": 1e-3},
                "ap2": {"u1": 1e-3},
            },
            power_ratio=4.0,
        )
        feeders = {("ap1", "r1"): 1.0, ("ap2", "r2"): 1e-3}
        deliveries = {("r1", "u1"): 1.0, ("r2", "u1"): 1.0}
        noise = {"r1": 1e-12, "r2": 1e-12}
        strong_only = relay_second_phase_sinr(
            "u1", branches, {("ap1", "r1"): 1.0, ("ap2", "r2"): 0.0}, alloc,
            feeders, deliveries, 0.5, 1e-14, noise,
        )
        both = relay_second_phase_sinr(
            "u1", branches, {("ap1", "r1"): 1.0, ("ap2", "r2"): 1.0}, alloc,
            feeders, deliveries, 0.5, 1e-14, noise,
        )
        assert both < strong_only
        # the per-branch variant is monotone on the same inputs
        strong_pb = relay_second_phase_sinr(
            "u1", branches, {("ap1", "r1"): 1.0, ("ap2", "r2"): 0.0}, alloc,
            feeders, deliveries, 0.5, 1e-14, noise, combining="per_branch",
        )
        both_pb = relay_second_phase_sinr(
            "u1", branches, {("ap1", "r1"): 1.0, ("ap2", "r2"): 1.0}, alloc,
            feeders, deliveries, 0.5, 1e-14, noise, combining="per_branch",
        )
        assert both_pb >= strong_pb


class TestEvaluateSinrMatchesReference:
    @pytest.mark.parametrize(
        "combining, dtype",
        [
            pytest.param("summed", float, id="summed"),
            pytest.param("per_branch", float, id="per_branch"),
            pytest.param("summed", bool, id="summed-bool"),
            pytest.param("per_branch", bool, id="per_branch-bool"),
        ],
    )
    def test_random_link_states(self, budget, combining, dtype):
        sc = budget.scenario
        noma = dataclasses.replace(sc.noma, combining=combining)
        b = dataclasses.replace(budget, scenario=dataclasses.replace(sc, noma=noma))
        rng = np.random.default_rng(2000)
        # each column clears its links with its own probability, so states
        # range from nearly all blocked to nearly all clear
        clear = rng.random((b.link_count, 2000)) < rng.random(2000)
        direct, combined = evaluate_sinr(b, clear.astype(dtype))
        ref_direct, ref_relayed = reference_sinr(b, clear.astype(float))
        np.testing.assert_allclose(direct, ref_direct, rtol=1e-12, atol=0.0)
        np.testing.assert_allclose(combined, ref_direct + ref_relayed, rtol=1e-12, atol=0.0)
        # boolean and float 0/1 link states give the same bits
        other = evaluate_sinr(b, clear.astype(float if dtype is bool else bool))
        assert np.array_equal(direct, other[0]) and np.array_equal(combined, other[1])


class TestExplicitMap:
    def test_user_listed_twice_is_served_once(self, default_sc):
        # the repeat neither adds a link nor takes a second power share
        once, twice = (
            build_link_budget(dataclasses.replace(default_sc, associations=m))
            for m in (
                {"ap1": ("u1", "u4"), "ap5": ("u4",)},
                {"ap1": ("u1", "u4", "u1"), "ap5": ("u4", "u4")},
            )
        )
        assert twice.links == once.links
        for a, b in zip(once.user_terms, twice.user_terms):
            for f in dataclasses.fields(a):
                assert np.array_equal(getattr(a, f.name), getattr(b, f.name))
