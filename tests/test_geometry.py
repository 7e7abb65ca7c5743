import math

import numpy as np
import pytest

from owcrelay.geometry import (
    CylinderSpec,
    Point3,
    Rect,
    Segment3,
    StadiumRegion,
    blocked_region,
    segment_intersects_cylinder,
    segments_blocked,
)

from reference import region_area

CYL = CylinderSpec()
FLOOR = Rect(0.0, 0.0, 4.0, 8.0)


def random_link(rng) -> Segment3:
    a = rng.uniform([0, 0, 0], [4, 8, 3])
    b = rng.uniform([0, 0, 0], [4, 8, 3])
    return Segment3(Point3(*a), Point3(*b))


class TestIntersectionPredicate:
    def test_axis_aligned_hit(self):
        link = Segment3(Point3(1, 1, 3), Point3(1, 1, 1))
        assert segment_intersects_cylinder(link, (1.0, 1.0), CYL)

    def test_offset_miss(self):
        # horizontal distance 0.4 exceeds the 0.3 radius
        link = Segment3(Point3(1, 1, 3), Point3(1, 1, 1))
        assert not segment_intersects_cylinder(link, (1.0, 1.4), CYL)

    def test_link_above_blocker_height(self):
        link = Segment3(Point3(1, 1, 3), Point3(1, 1, 2.5))
        for center in [(1.0, 1.0), (0.5, 0.5), (3.0, 7.0)]:
            assert not segment_intersects_cylinder(link, center, CYL)

    def test_grazing_contact_counts_as_blocked(self):
        # distance exactly equals the radius (0.5 is binary-exact)
        link = Segment3(Point3(1, 1, 3), Point3(1, 1, 1))
        assert segment_intersects_cylinder(link, (1.5, 1.0), CylinderSpec(radius=0.5))

    def test_batch_matches_scalar(self):
        rng = np.random.default_rng(7)
        a = rng.uniform([0, 0, 0], [4, 8, 3], size=(64, 3))
        b = rng.uniform([0, 0, 0], [4, 8, 3], size=(64, 3))
        center = (2.0, 4.0)
        batch = segments_blocked(a, b, center, CYL)
        for i in range(64):
            one = segment_intersects_cylinder(
                Segment3(Point3(*a[i]), Point3(*b[i])), center, CYL
            )
            assert batch[i] == one


class TestBlockedRegion:
    def test_vertical_link_gives_disk(self):
        link = Segment3(Point3(1, 1, 3), Point3(1, 1, 1))
        region = blocked_region(link, CYL, FLOOR)
        assert region.spine_length() == 0.0
        assert np.allclose(region.p0, [1.0, 1.0])
        assert math.isclose(region_area(region), math.pi * 0.09, rel_tol=1e-4)

    def test_slanted_link_spine_and_area(self):
        link = Segment3(Point3(1, 1, 3), Point3(2, 4, 1))
        region = blocked_region(link, CYL, FLOOR)
        # spine starts where the link crosses z = 1.8 (t = 0.6)
        assert np.allclose(region.p0, [1.6, 2.8], atol=1e-12)
        assert np.allclose(region.p1, [2.0, 4.0], atol=1e-12)
        assert math.isclose(region.spine_length(), 1.26491, rel_tol=1e-5)
        assert math.isclose(region_area(region), 1.041689, rel_tol=1e-4)

    def test_link_above_height_is_empty(self):
        link = Segment3(Point3(1, 1, 3), Point3(3, 1, 2.9))
        region = blocked_region(link, CYL, FLOOR)
        assert region.is_empty
        assert region_area(region) == 0.0
        assert not region.contains((1.0, 1.0))

    def test_corner_quarter_disk_area(self):
        region = StadiumRegion((0.0, 0.0), (0.0, 0.0), 0.3, FLOOR)
        assert math.isclose(region_area(region), math.pi * 0.09 / 4.0, rel_tol=1e-4)

    def test_area_upper_bounds(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            region = blocked_region(random_link(rng), CYL, FLOOR)
            area = region_area(region)
            cap = region.spine_length() * 2 * CYL.radius + math.pi * CYL.radius**2
            assert area <= cap * (1 + 1e-4)
            assert area <= FLOOR.area * (1 + 1e-4)

    def test_membership_consistency_sample(self):
        rng = np.random.default_rng(11)
        for _ in range(1000):
            link = random_link(rng)
            center = rng.uniform([0, 0], [4, 8])
            region = blocked_region(link, CYL, FLOOR)
            assert region.contains(center) == segment_intersects_cylinder(link, center, CYL)

    def test_radius_monotonicity(self):
        rng = np.random.default_rng(5)
        pts = rng.uniform([0, 0], [4, 8], size=(200, 2))
        for _ in range(10):
            link = random_link(rng)
            small = blocked_region(link, CylinderSpec(radius=0.2), FLOOR)
            large = blocked_region(link, CylinderSpec(radius=0.35), FLOOR)
            inside_small = small.contains(pts)
            inside_large = large.contains(pts)
            assert np.all(inside_large[inside_small])

    def test_reflection_symmetry(self):
        rng = np.random.default_rng(13)
        for _ in range(10):
            link = random_link(rng)
            mirrored = Segment3(
                Point3(4 - link.a.x, link.a.y, link.a.z),
                Point3(4 - link.b.x, link.b.y, link.b.z),
            )
            region = blocked_region(link, CYL, FLOOR)
            region_m = blocked_region(mirrored, CYL, FLOOR)
            pts = rng.uniform([0, 0], [4, 8], size=(200, 2))
            flipped = np.column_stack([4 - pts[:, 0], pts[:, 1]])
            assert np.array_equal(region.contains(pts), region_m.contains(flipped))

    def test_degenerate_spine_is_disk(self):
        link = Segment3(Point3(2.5, 3.0, 2.6), Point3(2.5, 3.0, 0.4))
        region = blocked_region(link, CYL, FLOOR)
        rng = np.random.default_rng(17)
        pts = rng.uniform([1.5, 2.0], [3.5, 4.0], size=(500, 2))
        d = np.hypot(pts[:, 0] - 2.5, pts[:, 1] - 3.0)
        assert np.array_equal(region.contains(pts), d <= 0.3)

    def test_clip_applies_in_blocked_region(self):
        # spine near the wall: part of the stadium falls outside the room
        link = Segment3(Point3(0.1, 1.0, 1.7), Point3(0.1, 2.0, 1.7))
        region = blocked_region(link, CYL, FLOOR)
        assert not region.contains((-0.05, 1.5))
        assert region.contains((0.05, 1.5))
        assert region_area(region) < 1.0 * 2 * 0.3 + math.pi * 0.09


class TestSpecsAndRects:
    def test_negative_radius_rejected(self):
        with pytest.raises(ValueError):
            CylinderSpec(radius=-0.1)
        with pytest.raises(ValueError):
            StadiumRegion((0, 0), (1, 0), -1.0, FLOOR)

    def test_rect_contains_is_closed(self):
        assert FLOOR.contains((0.0, 0.0))
        assert FLOOR.contains((4.0, 8.0))
        assert not FLOOR.contains((4.0001, 8.0))

    def test_rect_intersect(self):
        r = Rect(1, 1, 5, 9).intersect(FLOOR)
        assert (r.x0, r.y0, r.x1, r.y1) == (1, 1, 4, 8)

    def test_signed_distance_sign_convention(self):
        region = blocked_region(
            Segment3(Point3(2, 4, 1.5), Point3(2, 5, 1.5)), CYL, FLOOR
        )
        sd_in, _ = region.signed_distance([(2.0, 4.5)])
        sd_out, grad = region.signed_distance([(2.0, 6.0)])
        assert sd_in[0] < 0 < sd_out[0]
        assert math.isclose(np.hypot(*grad[0]), 1.0, rel_tol=1e-12)
