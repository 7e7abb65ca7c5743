import dataclasses
import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from owcrelay import mobility
from owcrelay.cli import main
from owcrelay.geometry import StadiumRegion, blocked_region
from owcrelay.links import build_link_budget
from owcrelay.mobility import (
    QuadratureError,
    cell_mass,
    integrate_region,
    pdf_xy,
    peak_density,
    sample_human_positions,
)
from owcrelay.outage import ensure_marginals
from owcrelay.scenario import HumanConfig, RoomConfig, default_scenario, load_scenario

from reference import region_probabilities_one_by_one, sample_positions_65536

ROOM = RoomConfig(width_m=4.0, length_m=8.0)
CYL = HumanConfig()


def link_probability(a, b) -> float:
    return integrate_region([blocked_region(a, b, CYL)], ROOM)[0]


def gauss_integral(room, n=24, weight=lambda x, y: 1.0):
    """Independent tensor-product Gauss-Legendre oracle for the plane
    density, times ``weight``."""
    x, wx = np.polynomial.legendre.leggauss(n)
    xs = (x + 1) * room.width_m / 2
    ys = (x + 1) * room.length_m / 2
    grid = np.stack(np.meshgrid(xs, ys, indexing="ij"), axis=-1).reshape(-1, 2)
    vals = (pdf_xy(room, grid[:, 0], grid[:, 1]) * weight(grid[:, 0], grid[:, 1])).reshape(n, n)
    w2 = np.outer(wx, wx) * (room.width_m / 2) * (room.length_m / 2)
    return float(np.sum(vals * w2))


class TestDensity:
    def test_center_peak_value(self):
        assert pdf_xy(ROOM, 2.0, 4.0) == pytest.approx(9 / 128, abs=1e-15)
        assert peak_density(ROOM) == pytest.approx(9 / 128, abs=1e-15)

    def test_point_value(self):
        # 36/(4^3 8^3) * (1-4)(9-16) = 756/32768
        assert pdf_xy(ROOM, 1.0, 1.0) == pytest.approx(756 / 32768, rel=1e-12)
        assert pdf_xy(ROOM, 1.0, 1.0) == pytest.approx(0.0230713, abs=1e-7)

    def test_boundary_zeros(self):
        for p in [(0.0, 4.0), (4.0, 4.0), (2.0, 0.0), (2.0, 8.0), (0.0, 0.0)]:
            assert pdf_xy(ROOM, *p) == 0.0

    def test_outside_floor_is_zero_not_error(self):
        assert pdf_xy(ROOM, -0.1, 3.0) == 0.0
        assert pdf_xy(ROOM, 2.0, 8.4) == 0.0

    def test_nonnegative_everywhere(self):
        rng = np.random.default_rng(2)
        pts = rng.uniform([-1, -1], [5, 9], size=(5000, 2))
        assert np.all(pdf_xy(ROOM, pts[:, 0], pts[:, 1]) >= 0.0)

    def test_normalization(self):
        assert gauss_integral(ROOM) == pytest.approx(1.0, abs=1e-12)

    def test_cell_mass_is_the_gauss_rule(self):
        # the closed form equals the 2x2 Gauss rule, exact for this density
        rng = np.random.default_rng(5)
        hx, hy = rng.uniform(1e-4, 0.5, (2, 1000))
        x = rng.uniform(hx, 4.0 - hx)
        y = rng.uniform(hy, 8.0 - hy)
        g = 1.0 / math.sqrt(3.0)
        gauss = hx * hy * sum(pdf_xy(ROOM, x + sx * g * hx, y + sy * g * hy)
                              for sx in (-1, 1) for sy in (-1, 1))
        np.testing.assert_allclose(cell_mass(ROOM, x, y, hx, hy), gauss, rtol=1e-12, atol=0.0)
        assert cell_mass(ROOM, 2.0, 4.0, 2.0, 4.0) == pytest.approx(1.0, abs=1e-15)

    def test_variances_property(self, capsys):
        # the pdf command prints L^2/20 per axis, the variance of the law
        assert main(["pdf"]) == 0
        rows = dict(line.split(",") for line in capsys.readouterr().out.splitlines())
        assert (float(rows["variance_x"]), float(rows["variance_y"])) == (0.8, 3.2)
        var_x = gauss_integral(ROOM, weight=lambda x, y: (x - 2.0) ** 2)
        var_y = gauss_integral(ROOM, weight=lambda x, y: (y - 4.0) ** 2)
        assert (var_x, var_y) == pytest.approx((0.8, 3.2), rel=1e-12)

    def test_bad_extents_rejected(self):
        with pytest.raises(ValueError):
            RoomConfig(width_m=0.0, length_m=8.0)


class TestRegionProbability:
    def test_vertical_link_disk(self):
        p = link_probability((1, 1, 3), (1, 1, 1))
        center_approx = 756 / 32768 * math.pi * 0.09
        assert abs(p - center_approx) / center_approx < 0.03
        assert p == pytest.approx(0.0064535, rel=1e-3)

    def test_empty_region_is_zero(self):
        assert link_probability((1, 1, 3), (3, 1, 2.9)) == 0.0

    def test_entire_floor_is_one(self):
        region = StadiumRegion((-10.0, 4.0), (14.0, 4.0), 20.0)
        assert integrate_region([region], ROOM)[0] == pytest.approx(1.0, abs=1e-9)

    @pytest.mark.parametrize(
        "a, b", [((1, 1, 3), (1, 1, 1)), ((1, 1, 3), (2, 4, 1))]
    )
    def test_sliced_levels_match_whole_levels(self, monkeypatch, a, b):
        # a level evaluated a few cells at a time sums the same cells
        whole = link_probability(a, b)
        monkeypatch.setattr(mobility, "SLICE_CELLS", 7)
        assert link_probability(a, b) == pytest.approx(whole, rel=1e-12, abs=0.0)

    def test_quadrature_matches_monte_carlo(self):
        a, b = (1, 1, 3), (2, 4, 1)
        p = link_probability(a, b)
        region = blocked_region(a, b, CYL)
        n = 200_000
        pts = sample_human_positions(ROOM, n, np.random.default_rng(4))
        hat = float(np.mean(region.contains(pts)))
        se = math.sqrt(p * (1 - p) / n)
        assert abs(hat - p) <= 3 * se


def _room(name):
    base = default_scenario()
    if name == "dense-tile":
        return load_scenario(Path(__file__).with_name("dense_tile.yaml"))
    if name == "no-walker":
        return dataclasses.replace(base, human=dataclasses.replace(base.human, count=0))
    if name == "thin-walker":
        return dataclasses.replace(base, human=dataclasses.replace(base.human, radius_m=1.0e-4))
    return base


def assert_matches_one_by_one(probs, regions, room, rel_tol=1e-4):
    """Marginals of the one-pass quadrature against the per-region loop:
    rel 1e-12, and zero exactly where the loop gives zero."""
    ref = region_probabilities_one_by_one(regions, room, rel_tol=rel_tol)
    assert np.array_equal(probs == 0.0, ref == 0.0)
    np.testing.assert_allclose(probs, ref, rtol=1e-12, atol=0.0)


# stadiums at and past the walls and corners of the 4 x 8 m floor, one off
# it, one empty, one of radius 0, one covering the floor, a disk and a long
# thin stadium
EDGE_REGIONS = [
    StadiumRegion((0.1, 1.0), (0.1, 2.0), 0.3),
    StadiumRegion((-0.2, 5.0), (0.5, 7.9), 0.3),
    StadiumRegion((0.0, 0.0), (0.0, 0.0), 0.3),
    StadiumRegion((3.9, 7.9), (4.2, 8.3), 0.25),
    StadiumRegion((5.0, 1.0), (6.0, 2.0), 0.3),
    StadiumRegion.empty_region(),
    StadiumRegion((1.0, 1.0), (2.0, 2.0), 0.0),
    StadiumRegion((-10.0, 4.0), (14.0, 4.0), 20.0),
    StadiumRegion((1.0, 1.0), (1.0, 1.0), 0.3),
    StadiumRegion((1.0, 1.0), (3.0, 6.0), 0.05),
]


class TestOnePass:
    @pytest.mark.parametrize("room", ["default", "dense-tile", "no-walker"])
    def test_marginals_match_per_region_loop(self, room):
        budget = build_link_budget(_room(room))
        probs = ensure_marginals(budget)
        assert_matches_one_by_one(probs, budget.regions, budget.scenario.room)
        assert (probs == 0.0).all() == (room == "no-walker")

    @pytest.mark.parametrize("rel_tol", [1e-4, 1e-2])
    def test_regions_past_the_walls(self, rel_tol):
        # at a loose tolerance the estimates settle before the cells are
        # within a quarter of the radius, so the cut-scale rule decides
        probs = integrate_region(EDGE_REGIONS, ROOM, rel_tol=rel_tol)
        assert_matches_one_by_one(probs, EDGE_REGIONS, ROOM, rel_tol=rel_tol)
        assert probs[4:7].tolist() == [0.0, 0.0, 0.0]
        assert 0.0 < probs[0] < probs[1]

    def test_split_batches_match_per_region_loop(self, monkeypatch):
        # a cap of 64 held cells splits the default room's batch into
        # parts of a few regions, then of one, at the deeper levels
        budget = build_link_budget(default_scenario())
        parts = []
        refine = mobility._refine

        def counted(*args):
            out = refine(*args)
            parts.append(len(out))
            return out

        monkeypatch.setattr(mobility, "_refine", counted)
        monkeypatch.setattr(mobility, "SLICE_CELLS", 64)
        probs = integrate_region(budget.regions, budget.scenario.room)
        assert max(parts) > 1
        assert_matches_one_by_one(probs, budget.regions, budget.scenario.room)

    def test_split_slices_of_edge_regions(self, monkeypatch):
        # one parent cell a slice, and every batch split down to one region
        monkeypatch.setattr(mobility, "SLICE_CELLS", 7)
        regions = [EDGE_REGIONS[j] for j in (0, 3, 4, 5, 6)]
        assert_matches_one_by_one(integrate_region(regions, ROOM), regions, ROOM)

    def test_slices_bound_the_memory(self):
        # a level is evaluated SLICE_CELLS cells at a time: the dense tile's
        # regions peak near 1.5 MB, where a whole level at once takes 17 MB
        budget = build_link_budget(_room("dense-tile"))
        tracemalloc.start()
        try:
            integrate_region(budget.regions, budget.scenario.room)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4e6

    def test_thin_walker_exhausts_the_cell_budget(self):
        # every region of a 0.1 mm walker grows toward the budget at once;
        # the first to pass it stops the pass
        budget = build_link_budget(_room("thin-walker"))
        with pytest.raises(
            QuadratureError, match="^cell budget 6000000 exhausted before convergence$"
        ) as info:
            ensure_marginals(budget)
        assert info.value.best_estimate >= 0.0
        assert budget.marginals is None


class TestSampler:
    def test_determinism(self):
        a = sample_human_positions(ROOM, 5000, np.random.default_rng(42))
        b = sample_human_positions(ROOM, 5000, np.random.default_rng(42))
        assert np.array_equal(a, b)

    def test_samples_inside_floor(self):
        pts = sample_human_positions(ROOM, 20_000, np.random.default_rng(1))
        assert pts.shape == (20_000, 2)
        assert np.all((pts >= [0, 0]) & (pts <= [4, 8]))

    def test_mean_and_variance(self):
        n = 200_000
        pts = sample_human_positions(ROOM, n, np.random.default_rng(8))
        # SE of the mean: sqrt(var/n); SE of the variance: sqrt((mu4 - var^2)/n)
        for axis, extent in ((0, 4.0), (1, 8.0)):
            var = extent**2 / 20.0
            mu4 = 3 * extent**4 / 560.0
            se_mean = math.sqrt(var / n)
            se_var = math.sqrt((mu4 - var**2) / n)
            assert abs(float(np.mean(pts[:, axis])) - extent / 2) <= 3 * se_mean
            assert abs(float(np.var(pts[:, axis])) - var) <= 3 * se_var

    @pytest.mark.parametrize("n", [0, 1, 8_193, 16_384, 200_000])
    def test_equals_the_65536_row_draw(self, n):
        # the chunk size is not part of the output: the same candidate
        # stream gives the same positions, byte for byte
        wide = RoomConfig(width_m=6.0, length_m=12.0)
        for room, seed in ((ROOM, 0), (ROOM, [2023, 5]), (wide, 9)):
            got = sample_human_positions(room, n, np.random.default_rng(seed))
            want = sample_positions_65536(room, n, np.random.default_rng(seed))
            assert got.shape == want.shape == (n, 2)
            assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("chunk", [1, 3, 8192, 65536])
    def test_chunk_size_is_not_part_of_the_output(self, chunk, monkeypatch):
        # _SAMPLE_CHUNK's own claim: the output depends only on the
        # generator's stream; a chunk of one row is tried on small n only
        sizes = (0, 1, 16_384, 20_000) if chunk > 1 else (0, 1, 40)
        draw = lambda n: sample_human_positions(ROOM, n, np.random.default_rng([11, n]))
        want = {n: draw(n).tobytes() for n in sizes}
        monkeypatch.setattr(mobility, "_SAMPLE_CHUNK", chunk)
        for n in sizes:
            assert draw(n).tobytes() == want[n]

    def test_single_sample_helper(self):
        (x, y), = sample_human_positions(ROOM, 1, np.random.default_rng(3))
        assert 0 <= x <= 4 and 0 <= y <= 8

