import dataclasses
import functools
import hashlib
import math
import multiprocessing
import tracemalloc
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

import numpy as np
import pytest

from owcrelay import mobility, outage
from owcrelay.geometry import StadiumRegion, regions_contain
from owcrelay.links import build_link_budget, evaluate_sinr
from owcrelay.mobility import integrate_region, sample_human_positions
from owcrelay.outage import (
    BLOCK_SIZE,
    MAX_LINKS,
    _outage_cut,
    ensure_marginals,
    is_outage,
    outage_independent_approx,
    outage_monte_carlo,
    threshold_linear,
)
from owcrelay.scenario import (
    MAX_SAMPLES,
    ApConfig,
    RelayConfig,
    Scenario,
    ScenarioError,
    UserConfig,
    default_scenario,
    load_scenario,
    result_lines,
)

from conftest import make_noise_free_scenario, make_single_link_scenario
from reference import classify_full_floor, joint_state_outage

DENSE_TILE = Path(__file__).with_name("dense_tile.yaml")


class TestIsOutage:
    # the predicate both estimators count outage with
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
        room = single_link_budget.scenario.room
        p_region = integrate_region(single_link_budget.regions, room)[0]
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
        room = single_link_budget.scenario.room
        p_region = integrate_region(single_link_budget.regions, room)[0]
        row = report.by_user("u1", "direct")
        assert abs(row.p_out - p_region) <= 3.0 * row.stderr
        assert report.blockage_model == "joint"

    def test_independent_mc_same_answer_here(self, single_link_budget):
        # with one link the two blockage models coincide
        report = outage_monte_carlo(
            budget=single_link_budget, n_samples=200_000, master_seed=3,
            blockage_model="independent",
        )
        room = single_link_budget.scenario.room
        p_region = integrate_region(single_link_budget.regions, room)[0]
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
    # no walker is a budget of empty regions; the estimators need no branch
    def test_no_blockers_no_outage(self):
        sc = make_single_link_scenario()
        budget = build_link_budget(
            dataclasses.replace(sc, human=dataclasses.replace(sc.human, count=0))
        )
        assert all(r.empty for r in budget.regions)
        reports = [outage_independent_approx(budget)]
        for model in ("joint", "independent"):
            reports.append(
                outage_monte_carlo(budget, n_samples=2_000, master_seed=1, blockage_model=model)
            )
        for report in reports:
            assert all(row.p_out == 0.0 for row in report.rows)

    def test_marginals_all_zero(self):
        sc = make_single_link_scenario()
        sc = dataclasses.replace(sc, human=dataclasses.replace(sc.human, count=0))
        budget = build_link_budget(sc)
        assert np.array_equal(ensure_marginals(budget), np.zeros(budget.link_count))

    def test_marginals_cached(self, single_link_budget):
        first = ensure_marginals(single_link_budget)
        assert ensure_marginals(single_link_budget) is first

    def test_marginals_reach_the_integral_through_its_module(self, monkeypatch):
        # a wrapper set on owcrelay.mobility.integrate_region, as a tracer
        # sets one, sees the one integral a budget's marginals take
        calls = []

        def counting(*args, **kwargs):
            calls.append(args)
            return integrate_region(*args, **kwargs)

        monkeypatch.setattr(mobility, "integrate_region", counting)
        budget = build_link_budget(make_single_link_scenario())
        first = ensure_marginals(budget)
        assert np.array_equal(ensure_marginals(budget), first)
        assert len(calls) == 1
        assert np.array_equal(first, integrate_region(budget.regions, budget.scenario.room))


class TestUnreachedUser:
    # nothing reaches u2 and its receiver is noise-free, so each of its SINR
    # terms is 0/0: it reads 0, and u2 is in outage whatever the walker does
    @pytest.fixture(scope="class")
    def quiet_budget(self):
        return build_link_budget(make_noise_free_scenario())

    def test_sinr_is_zero_not_nan(self, quiet_budget, recwarn):
        u2 = [t.user_id for t in quiet_budget.user_terms].index("u2")
        assert quiet_budget.user_terms[u2].noise_var == 0.0
        rng = np.random.default_rng(3)
        clear = rng.random((quiet_budget.link_count, 500)) < 0.7
        for sinr in evaluate_sinr(quiet_budget, clear):
            assert np.all(sinr[u2] == 0.0)
            assert not np.isnan(sinr).any()
        assert not recwarn.list

    @pytest.mark.parametrize("method", ["exact", "joint", "independent"])
    def test_u2_always_in_outage(self, quiet_budget, method, recwarn):
        if method == "exact":
            report = outage_independent_approx(quiet_budget)
        else:
            report = outage_monte_carlo(quiet_budget, 4096, 1, blockage_model=method)
        for mode in ("direct", "coop"):
            assert report.by_user("u2", mode).p_out == 1.0
        assert not recwarn.list


class TestThresholdEffect:
    def test_sweeping_threshold_through_the_clear_sinr(self):
        # clear single-link SINR sits near 52 dB: below it outage needs a
        # blocker, above it outage is certain
        sc = make_single_link_scenario()
        lo_sc = dataclasses.replace(sc, noma=dataclasses.replace(sc.noma, threshold_db=40.0))
        hi_sc = dataclasses.replace(sc, noma=dataclasses.replace(sc.noma, threshold_db=60.0))
        lo, hi = (
            outage_monte_carlo(build_link_budget(s), n_samples=20_000, master_seed=9)
            .by_user("u1", "direct")
            for s in (lo_sc, hi_sc)
        )
        assert hi.p_out == 1.0
        assert 0.0 < lo.p_out < 0.05


def _gain(report, users):
    """Geometric mean over ``users`` of p_out(direct) / p_out(coop), and its
    standard error propagated from the rows' (0 for exact rows)."""
    log_ratio = var = 0.0
    for u in users:
        d, c = report.by_user(u, "direct"), report.by_user(u, "coop")
        log_ratio += math.log(d.p_out / c.p_out)
        var += (d.stderr / d.p_out) ** 2 + (c.stderr / c.p_out) ** 2
    gain = math.exp(log_ratio / len(users))
    return gain, gain * math.sqrt(var) / len(users)


class TestThresholdTable:
    # The README's table of the coop-over-direct gain on the default room
    # against the threshold: exact enumeration for the independent model,
    # 2M-sample joint Monte Carlo at seed 5 for the joint model.
    TABLE = [(10.0, 747.0, 1.00), (12.5, 624.0, 1.23), (15.6, 187.0, 1.48),
             (18.0, 65.0, 5.26), (20.0, 6.9, 1.02)]
    # each user's direct and combined SINR in dB with every link clear
    CLEAR_SINR_DB = {"u1": (37.93, 38.09), "u2": (37.45, 37.57), "u3": (37.93, 38.09),
                     "u4": (16.13, 19.08), "u5": (16.13, 19.07), "u6": (16.13, 19.08)}

    def test_clear_link_sinr(self, budget):
        direct, combined = evaluate_sinr(budget, np.ones((budget.link_count, 1), dtype=bool))
        for t, d, c in zip(budget.user_terms, direct[:, 0], combined[:, 0]):
            want = self.CLEAR_SINR_DB[t.user_id]
            assert 10.0 * math.log10(d) == pytest.approx(want[0], abs=0.005)
            assert 10.0 * math.log10(c) == pytest.approx(want[1], abs=0.005)

    @pytest.mark.parametrize("threshold_db, independent, joint", TABLE)
    def test_gain_at_threshold(self, default_sc, budget, threshold_db, independent, joint):
        noma = dataclasses.replace(default_sc.noma, threshold_db=threshold_db)
        b = dataclasses.replace(budget, scenario=dataclasses.replace(default_sc, noma=noma))
        users = [t.user_id for t in b.user_terms]
        gain, _ = _gain(outage_independent_approx(b), users)
        assert gain == pytest.approx(independent, rel=0.01)
        report = outage_monte_carlo(b, n_samples=2_000_000, master_seed=5, blockage_model="joint")
        gain, se = _gain(report, users)
        assert 0.0 < se < 0.02
        assert abs(gain - joint) <= 4.0 * se


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

    @pytest.mark.parametrize("model", ["joint", "independent"])
    def test_pool_tasks_are_block_indices(self, budget, model, monkeypatch):
        # a pool worker gets the whole run once, through its initializer, so
        # a task carries nothing but block indices; two cores are claimed so
        # that a one-core machine still runs a two-worker pool
        tasks = []
        monkeypatch.setattr(outage, "_usable_cores", lambda: 2)

        class RecordingPool(ProcessPoolExecutor):
            def submit(self, fn, /, *args, **kwargs):
                tasks.append((fn, args, kwargs))
                return super().submit(fn, *args, **kwargs)

        monkeypatch.setattr(outage, "ProcessPoolExecutor", RecordingPool)
        kw = dict(budget=budget, n_samples=2 * BLOCK_SIZE + 999, master_seed=17,
                  blockage_model=model)
        two = outage_monte_carlo(workers=2, **kw)
        one = outage_monte_carlo(workers=1, **kw)
        assert two.rows == one.rows
        # ProcessPoolExecutor.map submits chunks of argument tuples to a
        # wrapper around the mapped function, here one chunk per worker
        assert len(tasks) == 2
        blocks = []
        for fn, (chunk,), kwargs in tasks:
            assert fn.args == (outage._run_pool_block,) and not kwargs
            for args in chunk:
                assert len(args) == 1 and type(args[0]) is int
                blocks.append(args[0])
        assert sorted(blocks) == [0, 1, 2]

    @pytest.mark.parametrize("model", ["joint", "independent"])
    @pytest.mark.parametrize("method", ["spawn", "forkserver"])
    def test_pool_under_start_method(self, budget, model, method, monkeypatch):
        # a worker that does not fork from the run's process gets the run by
        # pickling its initializer's arguments; forkserver is Linux's default
        # from Python 3.14
        if method not in multiprocessing.get_all_start_methods():
            pytest.skip(f"no {method} start method on this platform")
        context = multiprocessing.get_context(method)
        pool = functools.partial(ProcessPoolExecutor, mp_context=context)
        monkeypatch.setattr(outage, "ProcessPoolExecutor", pool)
        monkeypatch.setattr(outage, "_usable_cores", lambda: 2)
        kw = dict(budget=budget, n_samples=3 * BLOCK_SIZE + 7, master_seed=31,
                  blockage_model=model)
        assert outage_monte_carlo(workers=2, **kw).rows == outage_monte_carlo(workers=1, **kw).rows

    @pytest.mark.parametrize("n_samples, pool", [(100_000, [7]), (BLOCK_SIZE, [])])
    def test_pool_has_at_most_one_worker_per_block(
        self, single_link_budget, monkeypatch, n_samples, pool
    ):
        # however many workers are asked for, the pool gets at most one per
        # block and one per usable core, and a one-block or one-core run
        # none; the fake pool records its size and runs the blocks here, so
        # no process starts
        sizes = []

        class FakePool:
            def __init__(self, max_workers, initializer, initargs):
                sizes.append(max_workers)
                initializer(*initargs)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, iterable, chunksize=1):
                return map(fn, iterable)

        monkeypatch.setattr(outage, "ProcessPoolExecutor", FakePool)
        monkeypatch.setattr(outage, "_pool_run", None)
        kw = dict(budget=single_link_budget, n_samples=n_samples, master_seed=5,
                  blockage_model="joint")
        one = outage_monte_carlo(workers=1, **kw)
        assert outage._usable_cores() >= 1
        # min(workers, blocks, cores): 7 blocks on 3 cores take 3 workers
        for cores, want in ((64, pool), (3, [3] if pool else []), (1, [])):
            monkeypatch.setattr(outage, "_usable_cores", lambda: cores)
            sizes.clear()
            many = outage_monte_carlo(workers=5000, **kw)
            assert sizes == want
            assert many.rows == one.rows

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

    def test_exact_rows_ignore_earlier_marginals(self, default_sc, budget):
        # the shared budget's marginals were cached by earlier calls
        ensure_marginals(budget)
        fresh = build_link_budget(default_sc)
        assert outage_independent_approx(budget).rows == outage_independent_approx(fresh).rows


def _many_ap_budget(count, relays=(), relay_pairings=None):
    """``count`` sources side by side over u1, each serving it alone."""
    aps = tuple(
        ApConfig(f"ap{k}", (0.96 + 0.005 * k, 1.0, 3.0)) for k in range(count)
    )
    return build_link_budget(
        Scenario(
            name="many-beams",
            aps=aps,
            relays=relays,
            users=(UserConfig("u1", (1.0, 1.0, 1.0)),),
            associations={ap.id: ("u1",) for ap in aps},
            relay_pairings=relay_pairings,
        )
    )


class TestEnumerationLimits:
    # MAX_LINKS caps each half of a user's links: direct (here one beam per
    # source) and relay (feeder and delivery of each branch)

    def test_link_cap_names_the_alternative(self):
        budget = _many_ap_budget(MAX_LINKS + 1)
        with pytest.raises(ValueError, match="outage_monte_carlo"):
            outage_independent_approx(budget)

    def test_cap_override_enumerates_exactly(self):
        budget = _many_ap_budget(MAX_LINKS)
        p = ensure_marginals(budget)
        report = outage_independent_approx(budget)
        # any single clear beam clears the threshold, so outage needs every
        # beam blocked at once
        assert report.by_user("u1", "direct").p_out == pytest.approx(
            float(np.prod(p)), rel=1e-10
        )

    def test_halves_must_be_disjoint(self, budget):
        # a link in both of a user's halves would make d and r dependent
        t = budget.user_terms[0]
        shared = dataclasses.replace(t, int_idx=np.append(t.int_idx, t.branch_delivery_idx[0]))
        with pytest.raises(ValueError, match="enters both its direct and relayed SINR"):
            outage_independent_approx(dataclasses.replace(budget, user_terms=(shared,)))

    def test_cap_applies_per_half(self):
        # 16 direct links plus one relay branch: 18 links in all, 2^16 + 2^2
        # states; the branch alone clears the threshold, so coop outage needs
        # every beam blocked and the branch broken
        budget = _many_ap_budget(MAX_LINKS, relays=(RelayConfig("r1", (0.0, 1.0, 1.5)),))
        t = budget.user_terms[0]
        assert (t.direct_idx.size, t.branch_feeder_idx.size, budget.link_count) == (16, 1, 18)
        p = ensure_marginals(budget)
        report = outage_independent_approx(budget)
        all_beams = float(np.prod(p[t.direct_idx]))
        branch = 1.0 - (1.0 - p[t.branch_feeder_idx[0]]) * (1.0 - p[t.branch_delivery_idx[0]])
        assert report.by_user("u1", "direct").p_out == pytest.approx(all_beams, rel=1e-10)
        assert report.by_user("u1", "coop").p_out == pytest.approx(all_beams * branch, rel=1e-10)


class TestSplitEnumeration:
    THRESHOLD_DB = 15.6

    def _assert_cut_is_exact(self, d, r):
        cut = _outage_cut(d, r, self.THRESHOLD_DB)
        brute = is_outage(d[:, None] + r[None, :], self.THRESHOLD_DB)
        assert np.array_equal(cut, brute.sum(axis=1))
        # and the outage states are exactly the first cut entries of r
        assert np.array_equal(brute, np.arange(r.size)[None, :] < cut[:, None])
        return cut

    def test_cut_on_ties_and_zero_blocks(self):
        thr = threshold_linear(self.THRESHOLD_DB)
        r = np.array([0.0] * 40 + [1.0] * 5 + [thr / 2] * 9 + [thr] * 3 + [2 * thr])
        d = np.array([0.0, 1.0, thr / 2, thr - 1.0, thr, np.nextafter(thr, np.inf), 3 * thr])
        cut = self._assert_cut_is_exact(d, r)
        assert cut.tolist() == [57, 54, 54, 45, 40, 0, 0]

    def test_cut_where_search_and_sum_round_apart(self):
        # r one ulp either side of thr - d: d + r and thr - d round
        # differently for many of these, in both directions
        thr = threshold_linear(self.THRESHOLD_DB)
        rng = np.random.default_rng(0)
        d = thr * rng.uniform(0.01, 1.0, 300)
        edge = thr - d
        r = np.sort(
            np.concatenate(
                [edge, np.nextafter(edge, -np.inf), np.nextafter(edge, np.inf), np.zeros(50)]
            )
        )
        d = np.concatenate([d, [0.0, np.nextafter(thr, 0.0), thr, np.nextafter(thr, np.inf)]])
        naive = np.searchsorted(r, thr - d, side="right")
        cut = self._assert_cut_is_exact(d, r)
        assert (naive < cut).any() and (naive > cut).any()

    @pytest.mark.parametrize("room", ["default", "dense-tile"])
    def test_rows_equal_joint_state_enumeration(self, room, budget):
        if room == "dense-tile":
            budget = build_link_budget(load_scenario(DENSE_TILE))
        rows = outage_independent_approx(budget).rows
        split = np.array([r.p_out for r in rows]).reshape(-1, 2)
        np.testing.assert_allclose(split, joint_state_outage(budget), rtol=1e-12, atol=0.0)

    @pytest.mark.parametrize("combining", ["summed", "per_branch"])
    @pytest.mark.parametrize("room", ["default", "dense-tile"])
    def test_one_user_view_gives_that_users_rows(self, room, combining):
        # the enumeration evaluates each user on a budget holding its terms
        # alone: the rows must be the whole budget's, bit for bit
        sc = load_scenario(DENSE_TILE) if room == "dense-tile" else default_scenario()
        sc = dataclasses.replace(sc, noma=dataclasses.replace(sc.noma, combining=combining))
        budget = build_link_budget(sc)
        clear = np.random.default_rng(7).random((budget.link_count, 512)) < 0.5
        direct, combined = evaluate_sinr(budget, clear)
        for i, t in enumerate(budget.user_terms):
            own = evaluate_sinr(dataclasses.replace(budget, user_terms=(t,)), clear)
            assert own[0].tobytes() == direct[i].tobytes()
            assert own[1].tobytes() == combined[i].tobytes()



def _exact_room(room, request, combining=None):
    """The budget of a named room, with the given combining rule."""
    if room == "dense-seed-3":
        sc = request.getfixturevalue("dense_seed_3")
    elif room == "default":
        sc = default_scenario()
    elif room == "lone-beam":
        # one beam into u1 and eight relay branches fed by its source: the
        # pass's 2 + 2^16 states are no whole number of 4-column groups
        relays = tuple(RelayConfig(f"r{k}", (0.0, 0.6 + 0.1 * k, 1.5)) for k in range(8))
        sc = Scenario(
            name="lone-beam",
            aps=(ApConfig("ap1", (1.0, 1.0, 3.0)),),
            relays=relays,
            users=(UserConfig("u1", (1.0, 1.0, 1.0)),),
            associations={"ap1": ("u1",)},
            relay_pairings={r.id: "ap1" for r in relays},
        )
    else:
        sc = load_scenario(Path(__file__).with_name(f"{room.replace('-', '_')}.yaml"))
    if combining is not None:
        sc = dataclasses.replace(sc, noma=dataclasses.replace(sc.noma, combining=combining))
    return build_link_budget(sc)


def _halves(t):
    return (
        np.unique(np.concatenate([t.direct_idx, t.int_idx])),
        np.unique(np.concatenate([t.branch_feeder_idx, t.branch_delivery_idx])),
    )


def _split_sinr(budget, t):
    """The user's direct SINR over its direct half's states and its combined
    SINR over its relay half's, each half in an evaluate_sinr call of its
    own, with its states set a link at a time, every other link blocked."""
    own = dataclasses.replace(budget, user_terms=(t,))
    out = []
    for half, which in zip(_halves(t), (0, 1)):
        combos = np.arange(1 << half.size)
        clear = np.zeros((budget.link_count, combos.size), dtype=bool)
        for j, link in enumerate(half):
            clear[link] = (combos >> j) & 1
        out.append(evaluate_sinr(own, clear)[which][0])
    return out


def _sinr_passes(budget, monkeypatch):
    """The exact rows of ``budget`` and each evaluate_sinr call they made:
    (user terms, clear, (direct, combined))."""
    calls = []

    def recording(b, clear):
        calls.append((b.user_terms[0], clear, evaluate_sinr(b, clear)))
        return calls[-1][2]

    monkeypatch.setattr(outage, "evaluate_sinr", recording)
    return outage_independent_approx(budget).rows, calls


def _rows_digest(rows):
    return hashlib.sha256("".join(f"{row.p_out.hex()}\n" for row in rows).encode()).hexdigest()


class TestOnePassEnumeration:
    # each user's direct-half and relay-half states go side by side through
    # one SINR call; the rows are those of a call per half, to the bit

    # SHA-256 over float.hex(p_out) of every exact row, a line each, as the
    # enumeration with one SINR call per half printed them
    ROWS_SHA256 = {
        "default": "8f53766da886312ad0fb279485868640714496f554c761b5aadf1682aad262e5",
        "dense-tile": "41777e2bef2a7000a6b9df0105b86d47e019aeb3f1223f514fba5ed80d9219d4",
        "tilted": "490043922b542551ef1c90b19628887ccc792c3230be246f50be183db59d4a8e",
        "dense-seed-3": "98b78a818a670997292cc166be0546034e9c9638fad637b9c5ab268e308b8130",
    }

    # SHA-256 over float.hex of every link marginal, a line each, in link order
    MARGINALS_SHA256 = {
        "default": "af2ef67a724237578f4d5323be122c83c705fe5393729301f47f492d59e63765",
        "dense-tile": "88647b607e1dea18c3741b42782da7b01b502de2e648ac58f1945dfd5e631b9d",
        "tilted": "61fbdbe52f24db1aa344e6f6d2949ccbe60b886e13db375a484201aad9865a60",
        "dense-seed-3": "649b8d09080346f7225a6974a85fbb1f340c4d0a8be0a457b47fd743db9410fd",
    }

    @pytest.mark.parametrize("room", list(ROWS_SHA256))
    def test_rows_pinned_to_the_bit(self, room, request):
        rows = outage_independent_approx(_exact_room(room, request)).rows
        assert _rows_digest(rows) == self.ROWS_SHA256[room]

    @pytest.mark.parametrize("room", list(MARGINALS_SHA256))
    def test_marginals_pinned_to_the_bit(self, room, request):
        # the blockage digests see 10 significant digits; these see every bit
        p = ensure_marginals(_exact_room(room, request))
        digest = hashlib.sha256("".join(f"{float(x).hex()}\n" for x in p).encode()).hexdigest()
        assert digest == self.MARGINALS_SHA256[room]

    @pytest.mark.parametrize("room, users", [("default", 6), ("dense-seed-3", 12)])
    def test_one_sinr_call_per_user(self, room, users, request, monkeypatch):
        budget = _exact_room(room, request)
        _, calls = _sinr_passes(budget, monkeypatch)
        assert len(calls) == users
        assert [c[0].user_id for c in calls] == [t.user_id for t in budget.user_terms]

    @pytest.mark.parametrize("combining", ["summed", "per_branch"])
    @pytest.mark.parametrize("room", ["default", "dense-seed-3", "lone-beam"])
    def test_pass_gives_the_split_calls_sinr(self, room, combining, request, monkeypatch):
        budget = _exact_room(room, request, combining)
        _, calls = _sinr_passes(budget, monkeypatch)
        for t, clear, (direct, combined) in calls:
            n_d, n_r = (1 << half.size for half in _halves(t))
            assert clear.shape == (budget.link_count, n_d + n_r)
            # the pass's last states, which sit in its last partial 4-column
            # group when there is one, each give the SINR they give alone
            own = dataclasses.replace(budget, user_terms=(t,))
            for j in range(n_d + n_r - 4, n_d + n_r):
                alone = evaluate_sinr(own, clear[:, [j]])
                assert alone[0].tobytes() == direct[:, [j]].tobytes()
                assert alone[1].tobytes() == combined[:, [j]].tobytes()
            d, r = _split_sinr(budget, t)
            assert direct[0, :n_d].tobytes() == d.tobytes()
            assert combined[0, n_d : n_d + n_r].tobytes() == r.tobytes()


class TestOneSinrPerState:
    # a link state's SINR is the one it has alone, wherever it sits in a batch

    @pytest.mark.parametrize("combining", ["summed", "per_branch"])
    @pytest.mark.parametrize("room", ["default", "dense-seed-3", "lone-beam"])
    def test_every_column_equals_its_state_alone(self, room, combining, request):
        budget = _exact_room(room, request, combining)
        rng = np.random.default_rng(36)
        # 43 states, each link clear with probability 0.9, each evaluated alone
        states = rng.random((budget.link_count, 43)) < 0.9
        alone = [evaluate_sinr(budget, states[:, [k]]) for k in range(43)]
        alone_d, alone_c = (np.concatenate([a[m] for a in alone], axis=1) for m in (0, 1))
        # batches of 0, 1, 2 and 3 columns mod 4, and one over two 2^14-column
        # slices, each column one of the states, in shuffled order
        for n in (40, 41, 42, 43, (1 << 14) + 43):
            pick = rng.permutation(np.arange(n) % 43)
            direct, combined = evaluate_sinr(budget, states[:, pick])
            assert direct.tobytes() == alone_d[:, pick].tobytes()
            assert combined.tobytes() == alone_c[:, pick].tobytes()


class TestSeatBound:
    # a user seated no higher than the walker is the lower end of every link
    # it receives, so while the walker stands within its radius of the seat
    # every one of them is blocked: under the joint model no relay brings
    # coop outage below that disk's walker mass

    @pytest.mark.parametrize(
        "room", ["default", "tilted", "dense_tile"] + [f"dense-seed-{k}" for k in range(10)]
    )
    def test_joint_coop_rows_reach_the_seat_disk(self, room, dense_room):
        if room == "default":
            sc = default_scenario()
        elif room.startswith("dense-seed-"):
            sc = dense_room(int(room.rsplit("-", 1)[1]))
        else:
            sc = load_scenario(Path(__file__).with_name(f"{room}.yaml"))
        human = sc.human
        seated = [u for u in sc.users if u.position_m[2] <= human.height_m]
        assert seated
        disks = [StadiumRegion(u.position_m[:2], u.position_m[:2], human.radius_m) for u in seated]
        seat_mass = integrate_region(disks, sc.room, rel_tol=1e-8)
        report = outage_monte_carlo(
            build_link_budget(sc), n_samples=200_000, master_seed=7, blockage_model="joint"
        )
        for u, mass in zip(seated, seat_mass):
            row = report.by_user(u.id, "coop")
            assert mass > 0.0
            assert row.p_out >= mass - 4.0 * row.stderr


class TestWorstCaseEnumeration:
    # a user at MAX_LINKS in both halves: 16 direct beams, and 8 relay
    # branches fed by 8 of their sources, so 2^16 + 2^16 states in one call

    # float.hex(p_out) of u1's direct and coop rows
    ROWS = ["0x1.f2eea0cd3a750p-117", "0x1.88c1977e9e35ep-167"]
    # tracemalloc peaks of the enumeration with one SINR call per half, under
    # numpy 2.4.6, here and on TestEnumerationLimits.test_cap_applies_per_half's
    # room; the one pass must stay within 1.1 times these
    SPLIT_PEAK_BYTES = {"worst-case": 14_682_520, "cap-per-half": 12_716_040}

    @staticmethod
    def _budget(room):
        if room == "cap-per-half":
            return _many_ap_budget(MAX_LINKS, relays=(RelayConfig("r1", (0.0, 1.0, 1.5)),))
        relays = tuple(RelayConfig(f"r{k}", (0.0, 0.6 + 0.1 * k, 1.5)) for k in range(8))
        return _many_ap_budget(MAX_LINKS, relays, {r.id: f"ap{k}" for k, r in enumerate(relays)})

    def test_rows_pinned_in_one_call(self, monkeypatch):
        budget = self._budget("worst-case")
        t = budget.user_terms[0]
        assert [half.size for half in _halves(t)] == [MAX_LINKS, MAX_LINKS]
        assert t.branch_feeder_idx.size == 8
        rows, calls = _sinr_passes(budget, monkeypatch)
        assert [clear.shape for _, clear, _ in calls] == [(32, 2 * 65536)]
        assert [r.p_out.hex() for r in rows] == self.ROWS

    @pytest.mark.parametrize("room", list(SPLIT_PEAK_BYTES))
    def test_peak_memory(self, room):
        budget = self._budget(room)
        outage_independent_approx(budget)  # marginals and any first-call allocations
        tracemalloc.start()
        try:
            outage_independent_approx(budget)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.1 * self.SPLIT_PEAK_BYTES[room]


def _joint_room(name):
    base = default_scenario()
    if name == "dense-tile":
        return load_scenario(DENSE_TILE)
    if name == "thin-walker":
        return dataclasses.replace(base, human=dataclasses.replace(base.human, radius_m=1.0e-4))
    if name == "no-walker":
        return dataclasses.replace(base, human=dataclasses.replace(base.human, count=0))
    return base


@pytest.fixture(scope="module", params=["default", "dense-tile", "thin-walker", "no-walker"])
def joint_budget(request):
    return build_link_budget(_joint_room(request.param))


def _adversarial_points(cells, regions, width, length):
    """Floor points where a cell table is most likely to go wrong: cell
    corners and edge midpoints, points on every region boundary, each also
    one ulp away along x and along y, and points on the far walls."""
    gx = np.minimum(np.arange(cells.nx + 1) * cells.size, width)
    gy = np.minimum(np.arange(cells.ny + 1) * cells.size, length)
    mx, my = (gx[:-1] + gx[1:]) / 2, (gy[:-1] + gy[1:]) / 2
    parts = [np.stack(np.meshgrid(a, b), axis=-1).reshape(-1, 2) for a, b in
             ((gx, gy), (mx, gy), (gx, my))]
    parts += [np.column_stack([np.full(gy.size, width), gy]),
              np.column_stack([gx, np.full(gx.size, length)])]
    t = np.linspace(0.0, 1.0, 41)[:, None]
    angle = np.linspace(0.0, 2 * np.pi, 64, endpoint=False)[:, None]
    ring = np.hstack([np.cos(angle), np.sin(angle)])
    for region in regions:
        if region.empty:
            continue
        w = region.p1 - region.p0
        u = w / np.hypot(*w) if w.any() else np.array([1.0, 0.0])
        normal = region.radius * np.array([-u[1], u[0]])
        spine = region.p0 + t * w
        parts += [spine + normal, spine - normal]
        parts += [region.p0 + region.radius * ring, region.p1 + region.radius * ring]
    pts = np.concatenate(parts)
    nudged = [pts]
    for axis in (0, 1):
        for way in (-np.inf, np.inf):
            p = pts.copy()
            p[:, axis] = np.nextafter(p[:, axis], way)
            nudged.append(p)
    pts = np.concatenate(nudged)
    on_floor = (pts >= 0.0).all(axis=1) & (pts[:, 0] <= width) & (pts[:, 1] <= length)
    return pts[on_floor]


def _decoded(words, columns):
    """The boolean link rows of ``columns`` links packed in ``words``."""
    return np.unpackbits(words.view(np.uint8), axis=1, count=columns).view(bool)


class TestJointTable:
    # joint Monte Carlo counts a sample by its floor cell wherever no region
    # boundary comes near the cell, and by the state number of its exact link
    # state elsewhere; that must change no membership and no count

    def test_cells_agree_with_exact_membership(self, joint_budget):
        table = outage._JointTable(joint_budget)
        cells = table.cells
        room = joint_budget.scenario.room
        pts = _adversarial_points(cells, joint_budget.regions, room.width_m, room.length_m)
        x, y = pts[:, 0], pts[:, 1]
        cell = cells.cell_of(x, y)
        exact = regions_contain(joint_budget.regions, pts)
        state = table.states_at(joint_budget, x, y)
        assert np.array_equal(_decoded(table.words[state], joint_budget.link_count), exact.T)
        if all(r.empty for r in joint_budget.regions):
            assert cells.decided.all() and not exact.any()
        else:
            # both kinds of cell, and both sides of the boundaries, were met
            assert cells.decided[cell].any() and not cells.decided[cell].all()
            assert exact.any() and not exact.all()

    def test_classification_equals_the_full_floor_loop(self, joint_budget):
        # each region is classified only near its bounding box; every cell
        # must come out as a test of every cell against every region says
        cells = outage._JointTable(joint_budget).cells
        room = joint_budget.scenario.room
        inside, undecided, decided = classify_full_floor(
            joint_budget.regions, room.width_m, room.length_m, cells.size
        )
        runs = np.diff(cells.start)
        listed = np.zeros_like(cells.inside)
        listed[np.repeat(np.arange(cells.count), runs), cells.near] = True
        assert cells.start[0] == 0 and cells.start[-1] == cells.near.size == undecided.sum()
        assert cells.inside.shape == (cells.count, len(joint_budget.regions))
        assert np.array_equal(cells.inside, inside.T)
        assert np.array_equal(listed, undecided.T)
        assert np.array_equal(cells.decided, decided)

    def test_outage_rows_are_the_cells_own_states(self, joint_budget):
        table = outage._JointTable(joint_budget)
        cells, state, rows = table.cells, table.cell_state, table.outage
        decided = np.flatnonzero(cells.decided)
        states = cells.inside[decided]
        users = len(joint_budget.user_terms)
        want = outage._outage(joint_budget, ~states.T.copy()).reshape(2 * users, -1).T
        assert rows.shape[1] == 2 * users
        assert np.array_equal(rows[state[decided]], want)
        # each number stands for one link state: the row of any of its cells
        numbered = np.zeros((len(rows), states.shape[1]), dtype=bool)
        numbered[state[decided]] = states
        assert np.array_equal(numbered[state[decided]], states)
        assert np.array_equal(_decoded(table.words, states.shape[1]), numbered)
        # undecided cells hold no number
        assert state.shape == (cells.count,)
        assert (state[~cells.decided] == -1).all()
        # at the start of a run the table holds one row per distinct link
        # state of the decided cells, and each of its states once
        _, link_state = np.unique(states, axis=0, return_inverse=True)
        pairs = np.unique(np.stack([state[decided], link_state.ravel()]), axis=1)
        assert pairs.shape[1] == len(rows) == link_state.max() + 1
        assert len(np.unique(table.words, axis=0)) == len(table.words) == len(rows)

    def test_cell_size_follows_the_walker_radius(self, joint_budget):
        cells = outage._JointTable(joint_budget).cells
        radius = joint_budget.scenario.human.radius_m
        assert cells.size >= radius / 6
        assert cells.count <= 2**16 + cells.nx + cells.ny + 1
        if cells.size > radius / 6:  # capped by the cell count
            assert cells.count > 2**16 / 2

    def test_default_room_table_is_the_readmes(self, budget):
        # the README quotes these figures for the default room
        table = outage._JointTable(budget)
        cells = table.cells
        assert (cells.nx, cells.ny) == (80, 160)
        assert np.count_nonzero(cells.decided) == 10_826
        assert len(table.outage) == len(np.unique(table.cell_state[cells.decided])) == 59

    @pytest.mark.parametrize("n_total, block", [(3 * BLOCK_SIZE, 0), (2 * BLOCK_SIZE + 999, 2)])
    def test_block_counts_equal_exact_membership(self, joint_budget, n_total, block):
        table = outage._JointTable(joint_budget)
        got = outage._run_block(joint_budget, 5, "joint", n_total, table, block)
        n = min(BLOCK_SIZE, n_total - block * BLOCK_SIZE)
        room = joint_budget.scenario.room
        pts = sample_human_positions(room, n, np.random.default_rng([5, block]))
        clear = ~regions_contain(joint_budget.regions, pts)
        want = [is_outage(s, joint_budget.scenario.noma.threshold_db).sum(axis=1)
                for s in evaluate_sinr(joint_budget, clear)]
        assert got.dtype == np.int64
        assert np.array_equal(got, np.stack(want, axis=1))

    @pytest.mark.parametrize("room, states", [("default", 78), ("dense-seed-3", None)])
    def test_sinr_sees_each_state_of_a_run_once(self, room, states, request, monkeypatch):
        # only a state the run has not met goes through the SINR: a serial
        # run's columns are the states of its table when it ends
        budget = _exact_room(room, request)
        columns, tables = [], []

        def counting(b, clear):
            columns.append(clear.shape[1])
            return evaluate_sinr(b, clear)

        class Kept(outage._JointTable):
            def __init__(self, b):
                super().__init__(b)
                tables.append(self)

        monkeypatch.setattr(outage, "evaluate_sinr", counting)
        monkeypatch.setattr(outage, "_JointTable", Kept)
        outage_monte_carlo(budget, 500_000, 11, blockage_model="joint")
        (table,) = tables
        assert sum(columns) == len(table.words) == len(table.outage)
        # the run met states beyond those of its decided cells
        assert len(table.words) > len(np.unique(table.cell_state[table.cells.decided]))
        if states is not None:  # the README's figure
            assert len(table.words) == states

    def test_rows_that_share_a_key_keep_their_own_numbers(self, dense_seed_3):
        # two-word rows (0, 0) and (v, 1), with v * M = 1 mod 2^64, share the
        # folded key (v * M) ^ 1 = 0, yet each is a state of its own
        budget = build_link_budget(dense_seed_3)
        assert budget.link_count == 93
        m = int(outage._KEY_MULTIPLIER)
        pair = np.array([[0, 0], [pow(m, -1, 1 << 64), 1]], dtype=np.uint64)
        rows = _decoded(pair, 93)
        assert not np.array_equal(rows[0], rows[1]) and np.array_equal(_packed(rows), pair)
        key = outage._folded_keys(pair)
        assert key[0] == key[1] == 0
        table = outage._JointTable(budget)
        words = pair[[0, 1, 1, 0, 1]]
        state = table.number(budget, words)
        assert state[0] != state[1]
        assert state[0] == state[3] and state[1] == state[2] == state[4]
        assert np.array_equal(table.words[state], words)
        # equal rows keep their numbers, and the table holds each state once
        assert np.array_equal(table.number(budget, words[::-1]), state[::-1])
        assert len(np.unique(table.words, axis=0)) == len(table.words)


def _tile_row(copies, step_m=4.0):
    """``copies`` of the dense tile, each ``step_m`` further along y than
    the last, in the tile's own 12 m room: 31 links a copy."""
    tile = load_scenario(DENSE_TILE)

    def shifted(cfg, k):
        x, y, z = cfg.position_m
        return dataclasses.replace(cfg, id=f"{cfg.id}-{k}", position_m=(x, y + k * step_m, z))

    ks = range(copies)
    return dataclasses.replace(
        tile,
        aps=tuple(shifted(a, k) for k in ks for a in tile.aps),
        relays=tuple(shifted(r, k) for k in ks for r in tile.relays),
        users=tuple(shifted(u, k) for k in ks for u in tile.users),
        associations={f"{ap}-{k}": tuple(f"{u}-{k}" for u in users)
                      for k in ks for ap, users in tile.associations.items()},
        relay_pairings={f"{r}-{k}": f"{ap}-{k}"
                        for k in ks for r, ap in tile.relay_pairings.items()},
    )


@pytest.fixture(scope="module", params=["default", "dense-tile", "three-tiles", "no-links"])
def independent_budget(request, budget):
    if request.param == "default":
        return budget
    if request.param == "three-tiles":
        b = build_link_budget(_tile_row(3))
        assert b.link_count == 93  # more than one 64-bit word per packed row
        return b
    if request.param == "no-links":
        b = build_link_budget(dataclasses.replace(default_scenario(), associations={"ap1": ()}))
        assert b.link_count == 0
        return b
    return build_link_budget(_joint_room(request.param))


# Block sizes given by their offset from the rows of one draw slice.
_AROUND_SLICE = {"slice-1": -1, "slice": 0, "slice+1": 1}


class TestIndependentBlock:
    # an independent block hands its boolean link states to the SINR as they
    # are; the counts must be those of the same draws as a float 0/1 matrix,
    # whatever the block's size is against the slices it draws in

    @pytest.mark.parametrize(
        "n_total, block",
        [(3 * BLOCK_SIZE, 0), (2 * BLOCK_SIZE + 999, 2), (1, 0),
         ("slice-1", 0), ("slice", 0), ("slice+1", 0)],
    )
    def test_block_counts_equal_float_link_states(self, independent_budget, n_total, block):
        b = independent_budget
        p = ensure_marginals(b)
        if n_total in _AROUND_SLICE:
            rows = outage._DRAW_SLICE_BYTES // (8 * max(1, b.link_count))
            # a room with links fills a block with more than one slice
            assert b.link_count == 0 or 1 < rows < BLOCK_SIZE / 2
            n_total = rows + _AROUND_SLICE[n_total]
        got = outage._run_block(b, 5, "independent", n_total, None, block)
        n = min(BLOCK_SIZE, n_total - block * BLOCK_SIZE)
        u = np.random.default_rng([5, block]).random((n, b.link_count))
        clear = (u >= p[None, :]).T.astype(float)
        threshold_db = b.scenario.noma.threshold_db
        want = [is_outage(s, threshold_db).sum(axis=1) for s in evaluate_sinr(b, clear)]
        assert got.dtype == np.int64
        assert np.array_equal(got, np.stack(want, axis=1))

    def test_sinr_sees_each_distinct_state_once(self, budget, monkeypatch):
        columns = []

        def counting(b, clear):
            columns.append(clear.shape[1])
            return evaluate_sinr(b, clear)

        monkeypatch.setattr(outage, "evaluate_sinr", counting)
        p = ensure_marginals(budget)
        outage._run_block(budget, 5, "independent", BLOCK_SIZE, None, 0)
        u = np.random.default_rng([5, 0]).random((BLOCK_SIZE, budget.link_count))
        distinct = np.unique(u >= p, axis=0)
        assert columns == [len(distinct)]
        assert len(distinct) < BLOCK_SIZE / 10

    def test_budget_without_links(self, default_sc):
        # a serving map that serves no one leaves no link, so every sample
        # is the one empty state, in which every user is in outage, under
        # both Monte Carlo models and exact enumeration alike
        b = build_link_budget(dataclasses.replace(default_sc, associations={"ap1": ()}))
        assert b.link_count == 0
        for report in (outage_monte_carlo(b, 4096, 1, blockage_model="independent"),
                       outage_monte_carlo(b, 4096, 1, blockage_model="joint"),
                       outage_independent_approx(b)):
            assert len(report.rows) == 2 * len(b.user_terms)
            assert all(row.p_out == 1.0 for row in report.rows)


def _packed(rows):
    words = outage._zero_words(len(rows), rows.shape[1])
    outage._pack_rows(rows, words)
    return words


def _assert_counts_are_multiplicities(rows, states, counts):
    # every row is some listed state, and the counts listed for a state sum
    # to the times it occurs, even where one state is listed more than once
    want, times = np.unique(rows, axis=0, return_counts=True)
    listed = np.all(states[:, None, :] == want[None, :, :], axis=2)
    assert (listed.sum(axis=1) == 1).all()
    assert (counts > 0).all() and np.array_equal(counts @ listed, times)


def _assert_runs_group_rows(rows, order, start):
    # the order runs through the rows in runs of equal rows, one starting at
    # each start, and the runs' first rows and lengths are their counts
    assert np.array_equal(np.sort(order), np.arange(len(rows)))
    states, counts = rows[order[start]], np.diff(start, append=len(rows))
    assert np.array_equal(rows[order], np.repeat(states, counts, axis=0))
    _assert_counts_are_multiplicities(rows, states, counts)


class TestDistinctRows:
    @pytest.mark.parametrize("columns", [0, 1, 32, 64, 65, 128])
    def test_states_and_counts_equal_unique(self, columns):
        rng = np.random.default_rng(columns)
        # few columns take every pattern many times, many columns mostly once
        rows = rng.random((3000, columns)) < rng.random(columns) ** 3
        rows[:500] = rows[500:1000]
        words = _packed(rows)
        assert words.shape == (len(rows), max(1, -(-columns // 64)))
        states, counts = outage._distinct_rows(words, columns)
        assert states.dtype == bool and states.shape[1] == columns
        _assert_counts_are_multiplicities(rows, states, counts)
        _assert_runs_group_rows(rows, *outage._sorted_runs(words))
        # up to 64 columns a key is the row itself: each state is listed once
        if columns <= 64:
            assert len(states) == len(np.unique(rows, axis=0))
        # no rows, no states
        states, counts = outage._distinct_rows(words[:0], columns)
        order, start = outage._sorted_runs(words[:0])
        assert states.shape == (0, columns) and counts.size == order.size == start.size == 0

    def test_rows_that_share_a_key(self):
        # two 64-bit words a and b fold into the key a * M ^ b, so the rows
        # packed as (0, 0) and (1, M) share the key 0
        m = outage._KEY_MULTIPLIER
        words = np.array([[0, 0], [1, m]], dtype=np.uint64)
        pair = np.unpackbits(words.view(np.uint8), axis=1).astype(bool)
        assert pair.shape == (2, 128) and not np.array_equal(pair[0], pair[1])
        assert np.array_equal(_packed(pair), words)
        rng = np.random.default_rng(7)
        rows = np.concatenate([pair[rng.integers(0, 2, 200)], rng.random((50, 128)) < 0.5])
        rows = rows[rng.permutation(len(rows))]
        states, counts = outage._distinct_rows(_packed(rows), 128)
        _assert_counts_are_multiplicities(rows, states, counts)
        _assert_runs_group_rows(rows, *outage._sorted_runs(_packed(rows)))


class TestValidation:
    def test_rejects_unknown_model(self, single_link_budget):
        with pytest.raises(ValueError):
            outage_monte_carlo(budget=single_link_budget, blockage_model="markov")

    def test_rejects_bad_sample_count(self, single_link_budget):
        with pytest.raises(ValueError):
            outage_monte_carlo(budget=single_link_budget, n_samples=0)

    def test_rejects_sample_count_above_cap_before_any_block(self, single_link_budget, monkeypatch):
        def no_work(*args):
            raise AssertionError("a block ran")

        monkeypatch.setattr(outage, "_run_block", no_work)
        with pytest.raises(ScenarioError, match=rf"^samples: must lie in \[1, {MAX_SAMPLES}\]$"):
            outage_monte_carlo(budget=single_link_budget, n_samples=MAX_SAMPLES + 1)

    @pytest.mark.parametrize(
        "given, message",
        [
            ({"master_seed": 1.5}, "seed: must be a non-negative integer"),
            ({"master_seed": -1}, "seed: must be a non-negative integer"),
            ({"n_samples": 2.5}, f"samples: must lie in [1, {MAX_SAMPLES}]"),
            ({"blockage_model": "markov"}, "blockage_model: must be 'joint' or 'independent'"),
        ],
        ids=["float-seed", "negative-seed", "float-samples", "unknown-model"],
    )
    def test_overrides_go_through_the_sampler_rules(
        self, single_link_budget, monkeypatch, given, message
    ):
        # an override is judged as the sampler section judges a document, so
        # a float seed or count is refused, never truncated
        def no_work(*args):
            raise AssertionError("a block ran")

        monkeypatch.setattr(outage, "_run_block", no_work)
        with pytest.raises(ScenarioError) as err:
            outage_monte_carlo(single_link_budget, **given)
        assert str(err.value) == message

    def test_by_user_unknown_row(self, single_link_budget):
        report = outage_independent_approx(budget=single_link_budget)
        with pytest.raises(KeyError):
            report.by_user("u9", "direct")
        with pytest.raises(KeyError):
            report.by_user("u1", "relay")
