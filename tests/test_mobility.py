import math

import numpy as np
import pytest

from owcrelay.geometry import CylinderSpec, Point3, Rect, Segment3, StadiumRegion, blocked_region
from owcrelay.mobility import RwpDistribution, region_probability, sample_human_positions

DIST = RwpDistribution(x_extent=4.0, y_extent=8.0)
CYL = CylinderSpec()
FLOOR = Rect(0.0, 0.0, 4.0, 8.0)


def link_probability(link) -> float:
    return region_probability(blocked_region(link, CYL, FLOOR), DIST)


def gauss_integral(dist, n=24):
    """Independent tensor-product Gauss-Legendre oracle for the plane density."""
    x, wx = np.polynomial.legendre.leggauss(n)
    xs = (x + 1) * dist.x_extent / 2
    ys = (x + 1) * dist.y_extent / 2
    grid = np.stack(np.meshgrid(xs, ys, indexing="ij"), axis=-1).reshape(-1, 2)
    vals = dist.pdf(grid).reshape(n, n)
    w2 = np.outer(wx, wx) * (dist.x_extent / 2) * (dist.y_extent / 2)
    return float(np.sum(vals * w2))


class TestDensity:
    def test_center_peak_value(self):
        assert DIST.pdf((2.0, 4.0))[0] == pytest.approx(9 / 128, abs=1e-15)
        assert DIST.peak_density == pytest.approx(9 / 128, abs=1e-15)

    def test_point_value(self):
        # 36/(4^3 8^3) * (1-4)(9-16) = 756/32768
        assert DIST.pdf((1.0, 1.0))[0] == pytest.approx(756 / 32768, rel=1e-12)
        assert DIST.pdf((1.0, 1.0))[0] == pytest.approx(0.0230713, abs=1e-7)

    def test_boundary_zeros(self):
        for p in [(0.0, 4.0), (4.0, 4.0), (2.0, 0.0), (2.0, 8.0), (0.0, 0.0)]:
            assert DIST.pdf(p)[0] == 0.0

    def test_outside_floor_is_zero_not_error(self):
        assert DIST.pdf((-0.1, 3.0))[0] == 0.0
        assert DIST.pdf((2.0, 8.4))[0] == 0.0

    def test_nonnegative_everywhere(self):
        rng = np.random.default_rng(2)
        pts = rng.uniform([-1, -1], [5, 9], size=(5000, 2))
        assert np.all(DIST.pdf(pts) >= 0.0)

    def test_normalization(self):
        assert gauss_integral(DIST) == pytest.approx(1.0, abs=1e-12)

    def test_variances_property(self):
        assert DIST.variances == (0.8, 3.2)

    def test_bad_extents_rejected(self):
        with pytest.raises(ValueError):
            RwpDistribution(x_extent=0.0, y_extent=8.0)


class TestRegionProbability:
    def test_vertical_link_disk(self):
        link = Segment3(Point3(1, 1, 3), Point3(1, 1, 1))
        p = link_probability(link)
        center_approx = 756 / 32768 * math.pi * 0.09
        assert abs(p - center_approx) / center_approx < 0.03
        assert p == pytest.approx(0.0064535, rel=1e-3)

    def test_empty_region_is_zero(self):
        link = Segment3(Point3(1, 1, 3), Point3(3, 1, 2.9))
        assert link_probability(link) == 0.0

    def test_entire_floor_is_one(self):
        region = StadiumRegion((-10.0, 4.0), (14.0, 4.0), 20.0, FLOOR)
        assert region_probability(region, DIST) == pytest.approx(1.0, abs=1e-9)

    def test_quadrature_matches_monte_carlo(self):
        link = Segment3(Point3(1, 1, 3), Point3(2, 4, 1))
        p = link_probability(link)
        region = blocked_region(link, CYL, FLOOR)
        n = 200_000
        pts = sample_human_positions(DIST, n, np.random.default_rng(4))
        hat = float(np.mean(region.contains(pts)))
        se = math.sqrt(p * (1 - p) / n)
        assert abs(hat - p) <= 3 * se


class TestSampler:
    def test_determinism(self):
        a = sample_human_positions(DIST, 5000, np.random.default_rng(42))
        b = sample_human_positions(DIST, 5000, np.random.default_rng(42))
        assert np.array_equal(a, b)

    def test_samples_inside_floor(self):
        pts = sample_human_positions(DIST, 20_000, np.random.default_rng(1))
        assert pts.shape == (20_000, 2)
        assert np.all((pts >= [0, 0]) & (pts <= [4, 8]))

    def test_mean_and_variance(self):
        n = 200_000
        pts = sample_human_positions(DIST, n, np.random.default_rng(8))
        # SE of the mean: sqrt(var/n); SE of the variance: sqrt((mu4 - var^2)/n)
        for axis, extent in ((0, 4.0), (1, 8.0)):
            var = extent**2 / 20.0
            mu4 = 3 * extent**4 / 560.0
            se_mean = math.sqrt(var / n)
            se_var = math.sqrt((mu4 - var**2) / n)
            assert abs(float(np.mean(pts[:, axis])) - extent / 2) <= 3 * se_mean
            assert abs(float(np.var(pts[:, axis])) - var) <= 3 * se_var

    def test_single_sample_helper(self):
        (x, y), = sample_human_positions(DIST, 1, np.random.default_rng(3))
        assert 0 <= x <= 4 and 0 <= y <= 8

