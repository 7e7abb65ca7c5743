import dataclasses
import hashlib
import math

import numpy as np
import pytest

from owcrelay.links import build_link_budget
from owcrelay.mobility import RwpDistribution, region_probability
from owcrelay.outage import (
    ensure_marginals,
    is_outage,
    outage_independent_approx,
    outage_monte_carlo,
    threshold_linear,
)
from owcrelay.scenario import ApConfig, Scenario, UserConfig, default_scenario, result_lines

from conftest import make_single_link_scenario


class TestIsOutage:
    def test_boundary_values(self):
        assert is_outage(36.30, 15.6)
        assert not is_outage(36.31, 15.6)
        assert is_outage(10 ** 1.56, 15.6)  # equality counts as outage

    def test_vectorized_and_threshold_monotone(self):
        sinr = np.array([0.0, 10.0, 36.3, 36.4, 1e5])
        lo = is_outage(sinr, 15.6)
        hi = is_outage(sinr, 20.0)
        assert lo.tolist() == [True, True, True, False, False]
        assert np.all(hi >= lo)  # raising the threshold only adds outages

    def test_threshold_linear(self):
        assert threshold_linear(15.6) == pytest.approx(36.3078, rel=1e-5)
        assert threshold_linear(0.0) == 1.0


class TestSingleLink:
    def test_exact_matches_quadrature(self, single_link_budget):
        report = outage_independent_approx(budget=single_link_budget)
        p_region = region_probability(
            single_link_budget.regions[0], RwpDistribution(4.0, 8.0)
        )
        row = report.by_user("u1", "direct")
        assert row.p_out == pytest.approx(p_region, rel=1e-12)
        # no relays: the combined link is the direct link
        assert report.by_user("u1", "coop").p_out == row.p_out
        assert report.method == "exact"

    def test_joint_mc_within_three_se(self, single_link_budget):
        report = outage_monte_carlo(
            budget=single_link_budget, n_samples=200_000, master_seed=3,
            blockage_model="joint",
        )
        p_region = region_probability(
            single_link_budget.regions[0], RwpDistribution(4.0, 8.0)
        )
        row = report.by_user("u1", "direct")
        assert abs(row.p_out - p_region) <= 3.0 * row.stderr
        assert report.blockage_model == "joint"

    def test_independent_mc_same_answer_here(self, single_link_budget):
        # with one link the two blockage models coincide
        report = outage_monte_carlo(
            budget=single_link_budget, n_samples=200_000, master_seed=3,
            blockage_model="independent",
        )
        p_region = region_probability(
            single_link_budget.regions[0], RwpDistribution(4.0, 8.0)
        )
        row = report.by_user("u1", "direct")
        assert abs(row.p_out - p_region) <= 3.0 * row.stderr

    def test_reported_stderr_matches_formula(self, single_link_budget):
        report = outage_monte_carlo(
            budget=single_link_budget, n_samples=10_000, master_seed=5,
            blockage_model="joint",
        )
        for row in report.rows:
            assert row.stderr == pytest.approx(
                math.sqrt(row.p_out * (1 - row.p_out) / row.n_samples), rel=1e-12
            )
            assert row.n_samples == 10_000
            assert row.seed == 5

    def test_stderr_shrinks_with_sample_count(self, single_link_budget):
        small = outage_monte_carlo(
            budget=single_link_budget, n_samples=10_000, master_seed=5,
            blockage_model="joint",
        ).by_user("u1", "direct")
        large = outage_monte_carlo(
            budget=single_link_budget, n_samples=40_000, master_seed=5,
            blockage_model="joint",
        ).by_user("u1", "direct")
        assert large.stderr < small.stderr
        assert large.stderr == pytest.approx(small.stderr / 2.0, rel=0.25)


class TestZeroHumans:
    def test_no_blockers_no_outage(self):
        sc = make_single_link_scenario()
        sc = dataclasses.replace(sc, human=dataclasses.replace(sc.human, count=0))
        mc = outage_monte_carlo(sc, n_samples=2_000, master_seed=1)
        exact = outage_independent_approx(sc)
        for row in (*mc.rows, *exact.rows):
            assert row.p_out == 0.0

    def test_marginals_all_zero(self):
        sc = make_single_link_scenario()
        sc = dataclasses.replace(sc, human=dataclasses.replace(sc.human, count=0))
        budget = build_link_budget(sc)
        assert np.array_equal(ensure_marginals(budget), np.zeros(budget.link_count))

    def test_marginals_cached(self, single_link_budget):
        first = ensure_marginals(single_link_budget)
        assert ensure_marginals(single_link_budget) is first


class TestThresholdEffect:
    def test_sweeping_threshold_through_the_clear_sinr(self):
        # clear single-link SINR sits near 52 dB: below it outage needs a
        # blocker, above it outage is certain
        sc = make_single_link_scenario()
        lo_sc = dataclasses.replace(sc, noma=dataclasses.replace(sc.noma, threshold_db=40.0))
        hi_sc = dataclasses.replace(sc, noma=dataclasses.replace(sc.noma, threshold_db=60.0))
        lo = outage_monte_carlo(lo_sc, n_samples=20_000, master_seed=9).by_user("u1", "direct")
        hi = outage_monte_carlo(hi_sc, n_samples=20_000, master_seed=9).by_user("u1", "direct")
        assert hi.p_out == 1.0
        assert 0.0 < lo.p_out < 0.05


class TestDeterminism:
    def test_worker_count_invariance(self, single_link_budget):
        kw = dict(
            budget=single_link_budget, n_samples=50_000, master_seed=11,
            blockage_model="joint",
        )
        one = outage_monte_carlo(workers=1, **kw)
        four = outage_monte_carlo(workers=4, **kw)
        assert [(r.user_id, r.mode, r.p_out) for r in one.rows] == [
            (r.user_id, r.mode, r.p_out) for r in four.rows
        ]

    def test_same_seed_reproduces(self, single_link_budget):
        kw = dict(budget=single_link_budget, n_samples=30_000, blockage_model="joint")
        a = outage_monte_carlo(master_seed=2, **kw)
        b = outage_monte_carlo(master_seed=2, **kw)
        c = outage_monte_carlo(master_seed=3, **kw)
        assert [r.p_out for r in a.rows] == [r.p_out for r in b.rows]
        assert [r.p_out for r in a.rows] != [r.p_out for r in c.rows]

    # SHA-256 of the CSV rows of a 65,536-sample default-room run, as printed
    # by ``owcrelay simulate --samples 65536 --seed 2023 --blockage-model M``;
    # any change to sampling, membership or SINR arithmetic moves it
    DEFAULT_ROOM_CSV_SHA256 = {
        "joint": "50cf5721ff678f3f96eb27b8110a464aae1994ceec6e7172f8c202c417c401b8",
        "independent": "988a119e7e18a61bc57d7cb1962fa28fb7b5207169458d4c43f0fb38433b32eb",
    }

    @pytest.mark.parametrize("model", ["joint", "independent"])
    def test_default_room_csv_digest(self, budget, model):
        report = outage_monte_carlo(
            budget=budget, n_samples=65_536, master_seed=2023, blockage_model=model
        )
        text = "".join(line + "\n" for line in result_lines(report.rows))
        assert hashlib.sha256(text.encode()).hexdigest() == self.DEFAULT_ROOM_CSV_SHA256[model]

    def test_sample_count_not_block_aligned(self, single_link_budget):
        # totals that end mid-block still reproduce across worker counts
        kw = dict(
            budget=single_link_budget, n_samples=20_001, master_seed=13,
            blockage_model="joint",
        )
        one = outage_monte_carlo(workers=1, **kw)
        three = outage_monte_carlo(workers=3, **kw)
        assert [r.p_out for r in one.rows] == [r.p_out for r in three.rows]


class TestBlockageModels:
    def _stacked_ap_scenario(self):
        base = make_single_link_scenario()
        return dataclasses.replace(
            base,
            name="stacked",
            aps=(ApConfig("ap1", (1.0, 1.0, 3.0)), ApConfig("ap2", (1.0, 1.0, 3.0))),
            associations={"ap1": ("u1",), "ap2": ("u1",)},
        )

    def test_joint_keeps_correlation_independent_squares_it(self):
        # two co-located beams fail together under the physical model; the
        # independent model multiplies the marginals instead
        sc = self._stacked_ap_scenario()
        budget = build_link_budget(sc)
        p = ensure_marginals(budget)
        assert p[0] == pytest.approx(p[1], rel=1e-12)

        exact = outage_independent_approx(budget=budget).by_user("u1", "direct")
        assert exact.p_out == pytest.approx(p[0] * p[1], rel=1e-10)

        joint = outage_monte_carlo(
            budget=budget, n_samples=200_000, master_seed=7, blockage_model="joint"
        ).by_user("u1", "direct")
        assert abs(joint.p_out - p[0]) <= 3.0 * joint.stderr
        assert joint.p_out > 20.0 * exact.p_out


class TestDefaultScenario:
    def test_coop_never_worse_within_noise(self, budget):
        report = outage_monte_carlo(
            budget=budget, n_samples=100_000, master_seed=1, blockage_model="joint"
        )
        for t in budget.user_terms:
            d = report.by_user(t.user_id, "direct")
            c = report.by_user(t.user_id, "coop")
            assert c.p_out <= d.p_out + 3.0 * max(d.stderr, c.stderr)

    def test_mode_filter(self, budget):
        direct_only = outage_monte_carlo(
            budget=budget, n_samples=4_096, master_seed=1, mode="direct",
            blockage_model="joint",
        )
        assert {r.mode for r in direct_only.rows} == {"direct"}
        assert len(direct_only.rows) == len(budget.user_terms)


class TestEnumerationLimits:
    def _many_ap_scenario(self, count=17):
        aps = tuple(
            ApConfig(f"ap{k}", (0.96 + 0.005 * k, 1.0, 3.0)) for k in range(count)
        )
        return Scenario(
            name="many-beams",
            aps=aps,
            relays=(),
            users=(UserConfig("u1", (1.0, 1.0, 1.0)),),
            associations={ap.id: ("u1",) for ap in aps},
        )

    def test_link_cap_names_the_alternative(self):
        sc = self._many_ap_scenario()
        with pytest.raises(ValueError, match="outage_monte_carlo"):
            outage_independent_approx(sc)

    def test_cap_override_enumerates_exactly(self):
        sc = self._many_ap_scenario()
        budget = build_link_budget(sc)
        p = ensure_marginals(budget)
        report = outage_independent_approx(budget=budget, max_links=17)
        # any single clear beam clears the threshold, so outage needs every
        # beam blocked at once
        assert report.by_user("u1", "direct").p_out == pytest.approx(
            float(np.prod(p)), rel=1e-10
        )


class TestValidation:
    def test_rejects_unknown_mode(self, single_link_budget):
        with pytest.raises(ValueError):
            outage_monte_carlo(budget=single_link_budget, mode="relay")
        with pytest.raises(ValueError):
            outage_independent_approx(budget=single_link_budget, mode="relay")

    def test_rejects_unknown_model(self, single_link_budget):
        with pytest.raises(ValueError):
            outage_monte_carlo(budget=single_link_budget, blockage_model="markov")

    def test_rejects_bad_sample_count(self, single_link_budget):
        with pytest.raises(ValueError):
            outage_monte_carlo(budget=single_link_budget, n_samples=0)

    def test_requires_scenario_or_budget(self):
        with pytest.raises(ValueError):
            outage_monte_carlo()
        with pytest.raises(ValueError):
            outage_independent_approx()

    def test_by_user_unknown_row(self, single_link_budget):
        report = outage_independent_approx(budget=single_link_budget)
        with pytest.raises(KeyError):
            report.by_user("u9", "direct")
        with pytest.raises(KeyError):
            report.by_user("u1", "relay")
