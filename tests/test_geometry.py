import math

import numpy as np
import pytest

from owcrelay.geometry import (
    Rect,
    StadiumRegion,
    blocked_region,
    regions_contain,
)
from owcrelay.mobility import integrate_region, sample_human_positions
from owcrelay.scenario import HumanConfig, RoomConfig, ScenarioError

from reference import region_area, segment_meets_cylinder

CYL = HumanConfig()
FLOOR = Rect(0.0, 0.0, 4.0, 8.0)


def random_link(rng) -> tuple[np.ndarray, np.ndarray]:
    a = rng.uniform([0, 0, 0], [4, 8, 3])
    b = rng.uniform([0, 0, 0], [4, 8, 3])
    return a, b


def blocks(a, b, center, cyl=CYL) -> bool:
    return blocked_region(a, b, cyl).contains(center)


class TestIntersectionPredicate:
    def test_axis_aligned_hit(self):
        assert blocks((1, 1, 3), (1, 1, 1), (1.0, 1.0))

    def test_offset_miss(self):
        # horizontal distance 0.4 exceeds the 0.3 radius
        assert not blocks((1, 1, 3), (1, 1, 1), (1.0, 1.4))

    def test_link_above_blocker_height(self):
        for center in [(1.0, 1.0), (0.5, 0.5), (3.0, 7.0)]:
            assert not blocks((1, 1, 3), (1, 1, 2.5), center)

    def test_grazing_contact_counts_as_blocked(self):
        # distance exactly equals the radius (0.5 is binary-exact)
        assert blocks((1, 1, 3), (1, 1, 1), (1.5, 1.0), HumanConfig(radius_m=0.5))

    def test_batch_matches_scalar(self):
        rng = np.random.default_rng(7)
        a = rng.uniform([0, 0, 0], [4, 8, 3], size=(64, 3))
        b = rng.uniform([0, 0, 0], [4, 8, 3], size=(64, 3))
        center = (2.0, 4.0)
        regions = [blocked_region(p, q, CYL) for p, q in zip(a, b)]
        batch = regions_contain(regions, center)[:, 0]
        for i in range(64):
            assert batch[i] == segment_meets_cylinder(a[i], b[i], center, CYL)


class TestBlockedRegion:
    def test_vertical_link_gives_disk(self):
        region = blocked_region((1, 1, 3), (1, 1, 1), CYL)
        assert np.array_equal(region.p0, region.p1)
        assert np.allclose(region.p0, [1.0, 1.0])
        assert math.isclose(region_area(region, FLOOR), math.pi * 0.09, rel_tol=1e-4)

    def test_slanted_link_spine_and_area(self):
        region = blocked_region((1, 1, 3), (2, 4, 1), CYL)
        # spine starts where the link crosses z = 1.8 (t = 0.6)
        assert np.allclose(region.p0, [1.6, 2.8], atol=1e-12)
        assert np.allclose(region.p1, [2.0, 4.0], atol=1e-12)
        assert math.isclose(math.dist(region.p0, region.p1), 1.26491, rel_tol=1e-5)
        assert math.isclose(region_area(region, FLOOR), 1.041689, rel_tol=1e-4)

    def test_link_above_height_is_empty(self):
        region = blocked_region((1, 1, 3), (3, 1, 2.9), CYL)
        assert region.empty
        assert region_area(region, FLOOR) == 0.0
        assert not region.contains((1.0, 1.0))

    def test_no_walker_is_empty(self):
        region = blocked_region((1, 1, 3), (1, 1, 1), HumanConfig(count=0))
        assert region.empty
        assert not region.contains((1.0, 1.0))

    def test_corner_quarter_disk_area(self):
        region = StadiumRegion((0.0, 0.0), (0.0, 0.0), 0.3)
        assert math.isclose(region_area(region, FLOOR), math.pi * 0.09 / 4.0, rel_tol=1e-4)

    def test_area_upper_bounds(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            region = blocked_region(*random_link(rng), CYL)
            area = region_area(region, FLOOR)
            spine = 0.0 if region.empty else math.dist(region.p0, region.p1)
            cap = spine * 2 * CYL.radius_m + math.pi * CYL.radius_m**2
            assert area <= cap * (1 + 1e-4)
            assert area <= 4.0 * 8.0 * (1 + 1e-4)  # the floor

    def test_membership_consistency_sample(self):
        rng = np.random.default_rng(11)
        for _ in range(1000):
            a, b = random_link(rng)
            center = rng.uniform([0, 0], [4, 8])
            region = blocked_region(a, b, CYL)
            hits = segment_meets_cylinder(a, b, center, CYL)
            assert region.contains(center) == hits

    def test_radius_monotonicity(self):
        rng = np.random.default_rng(5)
        pts = rng.uniform([0, 0], [4, 8], size=(200, 2))
        for _ in range(10):
            a, b = random_link(rng)
            small = blocked_region(a, b, HumanConfig(radius_m=0.2))
            large = blocked_region(a, b, HumanConfig(radius_m=0.35))
            inside_small = small.contains(pts)
            inside_large = large.contains(pts)
            assert np.all(inside_large[inside_small])

    def test_reflection_symmetry(self):
        rng = np.random.default_rng(13)
        for _ in range(10):
            a, b = random_link(rng)
            region = blocked_region(a, b, CYL)
            region_m = blocked_region((4 - a[0], a[1], a[2]), (4 - b[0], b[1], b[2]), CYL)
            pts = rng.uniform([0, 0], [4, 8], size=(200, 2))
            flipped = np.column_stack([4 - pts[:, 0], pts[:, 1]])
            assert np.array_equal(region.contains(pts), region_m.contains(flipped))

    def test_degenerate_spine_is_disk(self):
        region = blocked_region((2.5, 3.0, 2.6), (2.5, 3.0, 0.4), CYL)
        rng = np.random.default_rng(17)
        pts = rng.uniform([1.5, 2.0], [3.5, 4.0], size=(500, 2))
        d = np.hypot(pts[:, 0] - 2.5, pts[:, 1] - 3.0)
        assert np.array_equal(region.contains(pts), d <= 0.3)

    def test_part_outside_the_room_carries_no_probability_or_area(self):
        # spine near the wall: part of the stadium falls outside the room
        region = blocked_region((0.1, 1.0, 1.7), (0.1, 2.0, 1.7), CYL)
        assert region.contains((-0.05, 1.5))  # the stadium itself is not cut
        assert region.bbox().x0 < 0.0
        # in-floor area: the whole stadium less the 0.2 m strip and two half
        # circular segments at distance 0.1 from the cap centres
        cut = 0.09 * math.acos(1.0 / 3.0) - 0.1 * math.sqrt(0.08)
        inside = 1.0 * 2 * 0.3 + math.pi * 0.09 - 0.2 - cut
        assert math.isclose(region_area(region, FLOOR), inside, rel_tol=1e-4)
        # the walker never stands off the floor, so sampling agrees with the
        # quadrature over the floor part
        room = RoomConfig(width_m=4.0, length_m=8.0)
        p = integrate_region([region], room)[0]
        n = 200_000
        pts = sample_human_positions(room, n, np.random.default_rng(6))
        hat = float(np.mean(region.contains(pts)))
        assert abs(hat - p) <= 3 * math.sqrt(p * (1 - p) / n)


class TestRegionsContain:
    # the batch membership of joint Monte Carlo must equal one
    # StadiumRegion.contains call per region, element for element
    def _regions(self, budget):
        return (
            *budget.regions,
            StadiumRegion((1.0, 1.0), (3.0, 1.0), 0.5),
            StadiumRegion((1.0, 1.0), (1.0, 1.0), 0.5),  # zero-length spine
            StadiumRegion((0.1, 1.0), (0.1, 2.0), 0.3),  # crosses the wall x = 0
            StadiumRegion.empty_region(),
        )

    def _assert_equals_stacked(self, regions, pts):
        batch = regions_contain(regions, pts)
        assert batch.dtype == bool
        assert np.array_equal(batch, np.stack([r.contains(pts) for r in regions]))
        return batch

    def test_sampler_output(self, budget):
        pts = sample_human_positions(budget.scenario.room, 5000, np.random.default_rng(3))
        batch = self._assert_equals_stacked(self._regions(budget), pts)
        assert batch.any()

    def test_points_outside_the_floor(self, budget):
        w, ln = budget.scenario.room.width_m, budget.scenario.room.length_m
        rng = np.random.default_rng(4)
        pts = np.concatenate(
            [
                rng.uniform([-1.0, -1.0], [w + 1.0, ln + 1.0], size=(2000, 2)),
                [(-0.1, 1.0), (1.0, -0.2), (w + 0.05, 2.0), (1.0, ln + 0.1), (-0.15, 1.5)],
            ]
        )
        regions = self._regions(budget)
        batch = self._assert_equals_stacked(regions, pts)
        assert batch[-2, -1]  # membership does not stop at the wall
        assert not batch[-1].any()

    def test_points_on_edges(self, budget):
        # binary-exact points at distance exactly 0.5 from the spines: closed
        # sets, so all inside
        pts = np.array([(2.0, 1.5), (2.0, 0.5), (3.5, 1.0), (0.5, 1.0), (1.0, 1.5), (1.0, 0.5)])
        regions = self._regions(budget)
        batch = self._assert_equals_stacked(regions, pts)
        k = len(budget.regions)
        assert batch[k].all()
        assert batch[k + 1].tolist() == [False, False, False, True, True, True]
        for j, p in enumerate(pts):
            assert batch[:, j].tolist() == [r.contains(tuple(p)) for r in regions]

    def test_empty_regions(self, budget):
        pts = np.array([(1.0, 1.0), (2.0, 4.0)])
        assert regions_contain((), pts).shape == (0, 2)
        empty = (StadiumRegion.empty_region(),) * 3
        assert not self._assert_equals_stacked(empty, pts).any()


class TestSpecsAndRects:
    def test_negative_radius_rejected(self):
        with pytest.raises(ScenarioError, match="^radius_m: must be positive$"):
            HumanConfig(radius_m=-0.1)
        with pytest.raises(ScenarioError, match="^height_m: must be positive$"):
            HumanConfig(height_m=math.inf)
        with pytest.raises(ValueError):
            StadiumRegion((0, 0), (1, 0), -1.0)

    def test_signed_distance_sign_convention(self):
        region = blocked_region((2, 4, 1.5), (2, 5, 1.5), CYL)
        sd_in, _ = region.signed_distance([(2.0, 4.5)])
        sd_out, grad = region.signed_distance([(2.0, 6.0)])
        assert sd_in[0] < 0 < sd_out[0]
        assert math.isclose(np.hypot(*grad[0]), 1.0, rel_tol=1e-12)
