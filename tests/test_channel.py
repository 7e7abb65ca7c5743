import dataclasses
import hashlib
import math
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from owcrelay import channel, links
from owcrelay.channel import (
    SPEED_OF_LIGHT,
    ChannelImpulseResponse,
    UnservableLinkError,
    cir_rows,
    discretize_surfaces,
    impulse_response,
    lambertian_gain,
    pointing,
    receiver_view,
)
from owcrelay.links import build_link_budget, link_cir
from owcrelay.outage import outage_independent_approx, outage_monte_carlo
from owcrelay.scenario import (
    ApConfig,
    ChannelConfig,
    RelayConfig,
    RoomConfig,
    UserConfig,
    default_scenario,
    load_scenario,
    result_lines,
    scenario_from_dict,
)

from reference import point_source_gain

ROOM = RoomConfig(width_m=4.0, length_m=8.0, height_m=3.0)


def make_tx(position, steer_deg=40.0, axis=None):
    """A 2.1 mrad source: an AP pointing straight down, or a relay pointing
    along ``axis``."""
    if axis is None:
        return ApConfig("tx", tuple(position), max_steering_deg=steer_deg)
    return RelayConfig("tx", tuple(position), max_steering_deg=steer_deg, axis=tuple(axis))


def make_rx(position, normal=None, area_cm2=1.0, fov_deg=90.0):
    """A detector: a user facing straight up, or a relay facing ``normal``."""
    if normal is None:
        return UserConfig("rx", tuple(position), area_cm2=area_cm2, fov_deg=fov_deg)
    return RelayConfig(
        "rx", tuple(position), area_cm2=area_cm2, fov_deg=fov_deg, axis=tuple(normal)
    )


def point_to_rx(src_pos, src_normal, mode, rx):
    """One Lambertian point source to a detector, through the channel kernel."""
    gain, _ = lambertian_gain(
        src_pos, src_normal, mode, rx.position_m, pointing(rx, ROOM), rx.area_cm2 * 1e-4,
        math.cos(math.radians(rx.fov_deg)),
    )
    return float(gain[0])


def los_gain(tx, rx, room):
    """The line-of-sight gain of one link: its response's without reflections."""
    return impulse_response(tx, rx, room, ChannelConfig(max_bounces=0)).los_gain


def padded(gains, length):
    out = np.zeros(length)
    out[: gains.size] = gains
    return out


class TestNarrowBeam:
    def test_full_capture_at_two_meters(self):
        tx = make_tx((1, 1, 3))
        rx = make_rx((1, 1, 1))
        assert los_gain(tx, rx, ROOM) == 1.0

    def test_partial_capture_at_four_meters(self):
        tall = make_tx((1, 1, 4))
        rx = make_rx((1, 1, 0))
        g = los_gain(tall, rx, ROOM)
        assert abs(g - 0.45112) < 1e-4
        # frozen regression value for the exact overlap expression
        assert g == pytest.approx(0.45111812691771264, rel=1e-12)

    def test_spot_and_aperture_crossover(self):
        # aperture radius 5.64 mm; spot radius d*tan(2.1 mrad) passes it near d=2.69
        tx = make_tx((1, 1, 3))
        assert 2.0 * math.tan(2.1e-3) < math.sqrt(1e-4 / math.pi)
        assert 4.0 * math.tan(2.1e-3) > math.sqrt(1e-4 / math.pi)
        assert los_gain(tx, make_rx((1, 1, 1)), ROOM) == 1.0

    @pytest.mark.parametrize("drop", [1.0, 2.0, 2.6, 2.8, 3.2, 4.0])
    def test_capture_is_the_aperture_share_of_the_spot(self, drop):
        # the aperture sits centred in the spot: below the 2.69 m crossover
        # the whole spot fits inside it, beyond it the aperture takes its
        # area's share of the spot
        tx = make_tx((1, 1, 4))
        rx = make_rx((1, 1, 4 - drop))
        spot_radius = drop * math.tan(2.1e-3)
        share = (1e-4 / math.pi) / (spot_radius * spot_radius)
        g = los_gain(tx, rx, ROOM)
        assert (g == 1.0) == (drop < 2.69)
        assert g == pytest.approx(min(1.0, share), rel=1e-12)

    def test_unservable_aim_raises(self):
        tx = make_tx((1, 1, 3), steer_deg=30.0)
        rx = make_rx((3.5, 1, 1))  # 51 degrees off the downward axis
        with pytest.raises(UnservableLinkError):
            los_gain(tx, rx, ROOM)

    def test_receiver_behind_transmitter(self):
        # a beam can only be steered at a receiver inside the steering cone
        tx = make_tx((1, 1, 3))
        behind = make_rx((1, 1, 3.5), normal=(0, 0, -1))
        with pytest.raises(UnservableLinkError):
            los_gain(tx, behind, ROOM)
        with pytest.raises(UnservableLinkError):
            impulse_response(tx, behind, ROOM, ChannelConfig())

    def test_incidence_cosine_applied(self):
        tx = make_tx((1, 1, 3), steer_deg=80.0)
        slanted = make_rx((2.0, 1, 1))
        g = los_gain(tx, slanted, ROOM)
        d = math.sqrt(1 + 4)
        assert g == pytest.approx(2.0 / d, rel=1e-12)  # full capture times cos


class TestLambertian:
    def test_unit_distance_head_on(self):
        rx = make_rx((0, 0, 0))
        g = point_to_rx((0, 0, 1), (0, 0, -1), 1.0, rx)
        assert g == pytest.approx(1e-4 / math.pi, rel=1e-12)
        assert g == pytest.approx(3.18310e-5, abs=1e-9)

    def test_fov_cut(self):
        rx = make_rx((0, 0, 0), fov_deg=30.0)
        # incidence 45 degrees exceeds the 30 degree field of view
        assert point_to_rx((1, 0, 1), (0, 0, -1), 1.0, rx) == 0.0

    def test_emission_null_at_ninety_degrees(self):
        rx = make_rx((1, 0, 0))
        assert point_to_rx((0, 0, 0), (0, 0, 1), 1.0, rx) == 0.0

    def test_reciprocity_for_ideal_mode(self):
        rng = np.random.default_rng(21)
        for _ in range(50):
            a = rng.uniform([0, 0, 0], [4, 8, 3])
            b = rng.uniform([0, 0, 0], [4, 8, 3])
            if np.allclose(a, b):
                continue
            u = (b - a) / np.linalg.norm(b - a)
            na = u + rng.normal(0, 0.2, 3)
            na /= np.linalg.norm(na)
            nb = -u + rng.normal(0, 0.2, 3)
            nb /= np.linalg.norm(nb)
            fwd = point_to_rx(a, na, 1.0, make_rx(b, normal=tuple(nb)))
            bwd = point_to_rx(b, nb, 1.0, make_rx(a, normal=tuple(na)))
            assert fwd == pytest.approx(bwd, rel=1e-12)

    def test_inverse_square_exact(self):
        # the detectors face the source below them, so both gains are live
        rx1 = make_rx((0, 0, 1), normal=(0, 0, -1))
        rx2 = make_rx((0, 0, 2), normal=(0, 0, -1))
        g1 = point_to_rx((0, 0, 0), (0, 0, 1), 1.0, rx1)
        g2 = point_to_rx((0, 0, 0), (0, 0, 1), 1.0, rx2)
        assert g2 > 0.0
        assert g1 == pytest.approx(4.0 * g2, rel=1e-12)

    @pytest.mark.parametrize("mode", [1.0, 2.5])
    def test_kernel_matches_scalar_reference(self, mode):
        # one source to many patches and many patches to one detector, the
        # two broadcast shapes the impulse response uses
        rng = np.random.default_rng(5)
        n = 400
        pts = rng.uniform([0, 0, 0], [4, 8, 3], size=(n, 3))
        normals = rng.normal(size=(n, 3))
        normals /= np.linalg.norm(normals, axis=1)[:, None]
        areas = rng.uniform(0.01, 0.04, n)
        src, src_n = np.array([2.0, 4.0, 1.5]), np.array([0.6, 0.0, 0.8])
        cos_fov = math.cos(math.radians(60.0))

        out, dist = lambertian_gain(src, src_n, mode, pts.T, normals.T, areas)
        back, _ = lambertian_gain(pts.T, normals.T, mode, src, src_n, 1e-4, cos_fov)
        ref_out = [
            point_source_gain(src, src_n, mode, p, nv, a) for p, nv, a in zip(pts, normals, areas)
        ]
        ref_back = [
            point_source_gain(p, nv, mode, src, src_n, 1e-4, cos_fov) for p, nv in zip(pts, normals)
        ]
        for got, ref in ((out, ref_out), (back, ref_back)):
            assert np.array_equal(got > 0.0, np.asarray(ref) > 0.0)
            assert 0 < np.count_nonzero(got) < n
            assert np.allclose(got, ref, rtol=1e-13, atol=0.0)
        assert np.allclose(dist, np.linalg.norm(pts - src, axis=1), rtol=1e-15, atol=0.0)

    def test_one_pair_matches_scalar_reference(self):
        # a (3,) point to a (3,) point, the shape of the first-order leg
        rng = np.random.default_rng(8)
        live = 0
        for _ in range(40):
            src, dst = rng.uniform([0, 0, 0], [4, 8, 3], size=(2, 3))
            src_n, dst_n = rng.normal(size=(2, 3))
            src_n /= np.linalg.norm(src_n)
            dst_n /= np.linalg.norm(dst_n)
            gain, dist = lambertian_gain(src, src_n, 1.0, dst, dst_n, 1e-4, 0.5)
            ref = point_source_gain(src, src_n, 1.0, dst, dst_n, 1e-4, 0.5)
            assert gain.shape == dist.shape == (1,)
            assert (gain[0] > 0.0) == (ref > 0.0)
            assert gain[0] == pytest.approx(ref, rel=1e-13, abs=0.0)
            assert dist[0] == pytest.approx(math.dist(src, dst), rel=1e-15)
            live += ref > 0.0
        assert 0 < live < 40

    def test_rows_are_rejected(self):
        # x, y, z run along the first axis: (N, 3) rows are no columns
        rows = np.ones((5, 3))
        with pytest.raises(ValueError, match="first axis"):
            lambertian_gain((0.0, 0.0, 0.0), (0.0, 0.0, 1.0), 1.0, rows, rows, 1e-4)

    def test_higher_mode_narrows(self):
        rx = make_rx((1, 0, 0), normal=(-1, 0, 0))
        off_axis = point_to_rx((0, 0, 0), (0.6, 0, 0.8), 1.0, rx)
        off_axis3 = point_to_rx((0, 0, 0), (0.6, 0, 0.8), 3.0, rx)
        # cos_e = 0.6: quadrupling the exponent shrinks the off-axis gain
        assert off_axis3 < off_axis


def total_area(grid):
    return float(np.sum(grid.areas))


class TestDiscretization:
    def test_default_room_element_counts(self):
        fine, coarse = discretize_surfaces(ROOM, 0.05), discretize_surfaces(ROOM, 0.20)
        assert fine.areas.size == 54_400
        assert coarse.areas.size == 3_400

    def test_total_area_preserved(self):
        fine, coarse = discretize_surfaces(ROOM, 0.05), discretize_surfaces(ROOM, 0.20)
        assert total_area(fine) == pytest.approx(136.0, rel=1e-12)
        assert total_area(coarse) == pytest.approx(136.0, rel=1e-12)

    def test_partial_edge_tiles_keep_true_area(self):
        # 0.3 m cells do not divide the extents; remainder tiles make up the area
        fine = discretize_surfaces(ROOM, 0.3)
        assert total_area(fine) == pytest.approx(136.0, rel=1e-12)
        assert np.min(fine.areas) < 0.3 * 0.3 - 1e-12

    def test_unit_wall_at_half_meter(self):
        cube = RoomConfig(width_m=1.0, length_m=1.0, height_m=1.0)
        fine = discretize_surfaces(cube, 0.5)
        # 6 faces x 4 elements per 1x1 face
        assert fine.areas.size == 24
        assert total_area(fine) == pytest.approx(6.0, rel=1e-12)

    def test_grid_above_the_cap_is_refused_before_it_is_built(self, monkeypatch):
        # the default grid has 3,400 tiles; one of 0.05 m has 160 along y
        monkeypatch.setattr(channel, "_MAX_CELLS", 3_399)
        with pytest.raises(ValueError, match=r"^3400 tiles of 0.2 m in a grid, more than 3399$"):
            discretize_surfaces(ROOM, 0.20)
        monkeypatch.setattr(channel, "_MAX_CELLS", 159)
        with pytest.raises(ValueError, match=r"^160 tiles of 0.05 m along a face axis, more "):
            discretize_surfaces(ROOM, 0.05)
        monkeypatch.setattr(channel, "_MAX_CELLS", 3_400)
        assert discretize_surfaces(ROOM, 0.20).areas.size == 3_400

    def test_bad_resolution_rejected(self):
        with pytest.raises(ValueError):
            discretize_surfaces(ROOM, -0.05)


class TestFaceTable:
    def test_first_bounce_in_a_narrow_edge_tile(self):
        # 4.03 x 8.07 m, whose 0.05 m tiles end in cells 0.03 m wide along x
        # and 0.02 m along y: the ray re-radiates from where it lands,
        # (4.02, 8.065, 0), not from the centre of the tile holding it
        uneven = RoomConfig(width_m=4.03, length_m=8.07, height_m=3.0)
        origin = np.array([3.02, 7.065, 3.0])
        direction = np.array([0.5, 0.5, -1.5]) / math.sqrt(2.75)
        hit, normal, rho = channel._first_bounce(uneven, origin, direction)
        assert hit == pytest.approx([4.02, 8.065, 0.0], abs=1e-12)
        np.testing.assert_array_equal(normal, [0.0, 0.0, 1.0])
        assert rho == 0.3

    @pytest.mark.parametrize(
        "position, axis",
        [
            ((0.0, 0.0, 1.5), (1.0, 0.0, 0.0)),
            ((4.0, 8.0, 1.5), (-1.0, 0.0, 0.0)),
            ((2.0, 0.0, 0.0), (0.0, 1.0, 0.0)),  # walls before the floor
            ((0.0, 4.0, 3.0), (1.0, 0.0, 0.0)),  # walls before the ceiling
            ((4.0, 0.0, 3.0), (-1.0, 0.0, 0.0)),
            ((1.0, 8.0, 0.0), (0.0, -1.0, 0.0)),
        ],
        ids=["x0-y0", "xW-yL", "y0-floor", "x0-ceiling", "xW-y0-ceiling", "yL-floor"],
    )
    def test_relay_boresight_on_a_tie(self, position, axis):
        # a relay on an edge or in a corner is equally near two or three
        # faces: x = 0, x = W, y = 0, y = L, floor and ceiling, in that order;
        # a library call may give the position as a list
        for pos in (position, list(position)):
            np.testing.assert_array_equal(pointing(RelayConfig("r", pos), ROOM), axis)


# A low source lights an upward detector from below: the beam steered at the
# detector meets the back of its face, so the whole beam continues to the
# wall spot WALL_SPOT above the detector plane.  The detector sits halfway
# between the source and the spot.
WALL_SPOT = (0.0, 2.013, 1.487)


def lit_from_below():
    tx = make_tx((1, 1, 0.5), steer_deg=80.0, axis=(0, 0, 1))
    return tx, make_rx((0.5, 1.5065, 0.9935))


class TestImpulseResponse:
    def test_los_bin_index(self):
        tx = make_tx((1, 1, 3))
        rx = make_rx((1, 1, 1))
        cir = impulse_response(tx, rx, ROOM, ChannelConfig(max_bounces=0))
        nz = np.flatnonzero(cir.gains)
        assert list(nz) == [667]
        assert cir.gains[667] == 1.0
        assert round(2.0 / SPEED_OF_LIGHT / 1e-11) == 667

    def test_bounce_order_monotone(self):
        tx = make_tx((1, 1, 3))
        rx = make_rx((2, 1, 1))  # partial capture leaves residue to reflect
        cirs = [impulse_response(tx, rx, ROOM, ChannelConfig(max_bounces=k)) for k in (0, 1, 2)]
        d0, d1, d2 = (c.dc_gain() for c in cirs)
        assert d0 <= d1 <= d2
        # residue lands on the floor: an upward detector only sees it after
        # a second bounce off the ceiling
        assert d1 == d0 and d2 > d1
        n = max(c.gains.size for c in cirs)
        g0, g1, g2 = (padded(c.gains, n) for c in cirs)
        assert np.all(g0 <= g1) and np.all(g1 <= g2)

    def test_bounce_order_strict_from_wall_spot(self):
        tx, rx = lit_from_below()
        cirs = [impulse_response(tx, rx, ROOM, ChannelConfig(max_bounces=k)) for k in (0, 1, 2)]
        d0, d1, d2 = (c.dc_gain() for c in cirs)
        assert d0 == 0.0
        assert d1 > d0 and d2 > d1
        n = max(c.gains.size for c in cirs)
        g0, g1, g2 = (padded(c.gains, n) for c in cirs)
        assert np.all(g0 <= g1) and np.all(g1 <= g2)

    def test_reflections_add_to_far_los(self):
        tall_room = RoomConfig(width_m=4.0, length_m=8.0, height_m=5.0)
        tx = make_tx((1, 1, 5))
        rx = make_rx((1, 1, 1))
        cir = impulse_response(tx, rx, tall_room, ChannelConfig(max_bounces=2))
        assert cir.los_gain == pytest.approx(0.45111812691771264, rel=1e-12)
        assert cir.dc_gain() >= cir.los_gain

    def test_dc_gain_trivials(self):
        bin_duration = ChannelConfig().bin_ns * 1e-9
        # one path one bin wide away: the response bins it into bin 1
        single = ChannelImpulseResponse(
            bin_duration=bin_duration,
            path_gains=np.array([1.0]),
            path_lengths=np.array([SPEED_OF_LIGHT * bin_duration]),
            los_gain=1.0,
            first_order_gain=0.0,
            second_order_gain=0.0,
        )
        empty = ChannelImpulseResponse(
            bin_duration=bin_duration,
            path_gains=np.zeros(0),
            path_lengths=np.zeros(0),
            los_gain=0.0,
            first_order_gain=0.0,
            second_order_gain=0.0,
        )
        assert single.gains.tolist() == [0.0, 1.0]
        assert empty.gains.size == 0
        assert single.dc_gain() == 1.0
        assert empty.dc_gain() == 0.0

    def test_cir_rows_match_bins(self):
        tx = make_tx((1, 1, 3))
        rx = make_rx((2, 1, 1))
        cir = impulse_response(tx, rx, ROOM, ChannelConfig(max_bounces=1))
        rows = cir_rows(cir)
        assert rows
        for idx, t, g in rows:
            assert cir.gains[idx] == g
            assert t == pytest.approx(idx * 1e-11, rel=1e-12)
        assert [r[0] for r in rows] == sorted(np.flatnonzero(cir.gains).tolist())

    def test_gains_nonnegative_and_bounded(self):
        rng = np.random.default_rng(31)
        for _ in range(10):
            txp = rng.uniform([0.5, 0.5, 2.5], [3.5, 7.5, 3.0])
            rxp = rng.uniform([0.5, 0.5, 0.5], [3.5, 7.5, 1.5])
            tx = make_tx(txp, steer_deg=80.0)
            rx = make_rx(rxp)
            cir = impulse_response(tx, rx, ROOM, ChannelConfig(max_bounces=2))
            assert np.all(cir.gains >= 0.0)
            assert cir.dc_gain() <= 1.0

    def test_refinement_convergence(self):
        # the first bounce re-radiates from the wall exit point itself, so
        # the gain is the analytic point-source value
        tx, rx = lit_from_below()
        analytic = 0.8 * point_to_rx(WALL_SPOT, (1, 0, 0), 1.0, rx)
        cir = impulse_response(tx, rx, ROOM, ChannelConfig(max_bounces=1))
        assert cir.los_gain == 0.0 and cir.first_order_gain > 0
        assert cir.first_order_gain == pytest.approx(analytic, rel=1e-12, abs=0.0)


def first_bounce(tx, rx, room):
    """Hit point, normal and reflectivity of the first bounce of a link."""
    tx_pos = np.asarray(tx.position_m, dtype=float)
    beam = (np.asarray(rx.position_m, dtype=float) - tx_pos) / math.dist(tx_pos, rx.position_m)
    return channel._first_bounce(room, tx_pos, beam)


def second_order_reference(tx, rx, room, cfg):
    """Second-order gain of a link summed with the scalar kernel over every
    tile of the grid, and the centres of the tiles with a non-zero path."""
    residue = 1.0 - los_gain(tx, rx, room)
    e, e_normal, e_rho = first_bounce(tx, rx, room)
    grid = discretize_surfaces(room, cfg.second_bounce_res_m)
    mode, rx_normal = room.lambertian_mode, pointing(rx, room)
    cos_fov = math.cos(math.radians(rx.fov_deg))
    total, live = 0.0, []
    tiles = zip(grid.centers.T, grid.normals.T, grid.areas, grid.reflectivities)
    for p, normal, area, rho in tiles:
        to_patch = point_source_gain(e, e_normal, mode, p, normal, area)
        to_rx = point_source_gain(
            p, normal, mode, rx.position_m, rx_normal, rx.area_cm2 * 1e-4, cos_fov
        )
        if to_patch > 0.0 and to_rx > 0.0:
            total += residue * e_rho * to_patch * rho * to_rx
            live.append(p)
    return total, np.array(live).T


def scenario_named(room):
    if room == "default":
        return default_scenario()
    return load_scenario(Path(__file__).with_name(f"{room}.yaml"))


class TestVisibleTiles:
    @pytest.mark.parametrize(
        "room, rx_id, tx_ids",
        [
            ("default", "u5", ("ap2", "ap3", "ap6", "ap7", "r2", "r3", "r6", "r7")),
            ("tilted", "u1", ("ap1", "ap2", "r1")),
        ],
        ids=["default-u5", "tilted-u1"],
    )
    def test_no_second_order_path_dropped(self, room, rx_id, tx_ids):
        # a grid gives each receiver only the tiles it sees; the paths through
        # them must be the paths through the whole grid, for every budget link
        # into the receiver (on tilted, r1 is a relay on an explicit axis)
        scenario = scenario_named(room)
        sc_room, cfg = scenario.room, scenario.channel
        terminal = {t.id: t for t in (*scenario.aps, *scenario.relays, *scenario.users)}
        grid = discretize_surfaces(sc_room, cfg.second_bounce_res_m)
        for tx_id in tx_ids:
            tx, rx = terminal[tx_id], terminal[rx_id]
            view = receiver_view(rx, sc_room, grid)
            cir = impulse_response(tx, rx, sc_room, cfg, view)
            ref, live = second_order_reference(tx, rx, sc_room, cfg)
            assert live.shape[1] > 0
            assert cir.second_order_gain == pytest.approx(ref, rel=1e-12, abs=0.0)
            e, e_normal, _ = first_bounce(tx, rx, sc_room)
            seen = view.tiles
            to_patch, _ = lambertian_gain(
                e, e_normal, sc_room.lambertian_mode, seen.centers, seen.normals, seen.areas
            )
            assert np.array_equal(seen.centers[:, to_patch > 0.0], live)

    def test_shared_grid_matches_fresh_grids(self):
        # receivers u1 (tilted user), r1 (relay on an explicit axis) and u2
        # in the order A, B, A, C, B, each through its view of one grid: no
        # receiver's tiles may serve another's response
        scenario = scenario_named("tilted")
        room, cfg = scenario.room, scenario.channel
        terminal = {t.id: t for t in (*scenario.aps, *scenario.relays, *scenario.users)}
        grid = discretize_surfaces(room, cfg.second_bounce_res_m)
        view = {rx_id: receiver_view(terminal[rx_id], room, grid) for rx_id in ("u1", "r1", "u2")}
        order = [("ap1", "u1"), ("ap2", "r1"), ("ap2", "u1"), ("ap7", "u2"), ("ap2", "r1")]
        for tx_id, rx_id in order:
            tx, rx = terminal[tx_id], terminal[rx_id]
            shared = impulse_response(tx, rx, room, cfg, view[rx_id])
            fresh = impulse_response(tx, rx, room, cfg)
            assert shared.second_order_gain > 0.0
            assert np.array_equal(shared.gains, fresh.gains)
            for order_gain in ("los_gain", "first_order_gain", "second_order_gain"):
                assert getattr(shared, order_gain) == getattr(fresh, order_gain)

    def test_detector_seeing_no_tile(self):
        # an upward detector with a 0.5 degree field of view between the
        # ceiling tile centres sees neither the source nor any tile, so it
        # has no second order; the grid served a wide detector there first
        tx = make_tx((1, 1, 3))
        wide = make_rx((1.4, 1.2, 1.0))
        narrow = make_rx((1.4, 1.2, 1.0), fov_deg=0.5)
        grid = discretize_surfaces(ROOM, 0.20)
        wide_view = receiver_view(wide, ROOM, grid)
        assert impulse_response(tx, wide, ROOM, ChannelConfig(), wide_view).second_order_gain > 0.0
        narrow_view = receiver_view(narrow, ROOM, grid)
        assert narrow_view.tiles.centers.shape == (3, 0)
        cir = impulse_response(tx, narrow, ROOM, ChannelConfig(), narrow_view)
        one_bounce = impulse_response(tx, narrow, ROOM, ChannelConfig(max_bounces=1))
        assert cir.los_gain == 0.0
        assert cir.second_order_gain == 0.0
        assert np.array_equal(cir.gains, one_bounce.gains)
        assert (cir.los_gain, cir.first_order_gain) == (
            one_bounce.los_gain, one_bounce.first_order_gain,
        )


class TestBlockageConsistency:
    def test_residue_exits_behind_upward_detector(self):
        # beam aimed at the receiver keeps descending past it, so the wall
        # deposit sits well below an upward detector and stays invisible to
        # it until a second bounce
        tx = make_tx((1, 2, 2.6), steer_deg=80.0)
        rx = make_rx((3, 2, 1.4))
        cir = impulse_response(tx, rx, ROOM, ChannelConfig(max_bounces=2))
        assert cir.los_gain > 0.0
        assert cir.first_order_gain == 0.0
        assert cir.second_order_gain > 0.0


class TestEnergyBound:
    def test_grid_sum_with_first_bounce(self):
        # receivers tile a hemisphere of radius 0.4 m around a wall spot,
        # facing it, each served by its own source 0.6 m behind it on the
        # same ray: every beam meets the back of its receiver and lands whole
        # on the spot, whose re-emission the hemisphere catches
        spot = np.array([0.0, 4.013, 1.487])
        n_theta, n_phi = 6, 12
        edges = np.linspace(0.0, math.pi / 2, n_theta + 1)
        total = 0.0
        for t0, t1 in zip(edges[:-1], edges[1:]):
            theta = (t0 + t1) / 2
            solid_angle = (math.cos(t0) - math.cos(t1)) * 2 * math.pi / n_phi
            for j in range(n_phi):
                phi = (j + 0.5) * 2 * math.pi / n_phi
                u = np.array([
                    math.cos(theta),
                    math.sin(theta) * math.cos(phi),
                    math.sin(theta) * math.sin(phi),
                ])
                # aperture r^2 dOmega at r = 0.4 m, in cm^2
                rx = make_rx(spot + 0.4 * u, normal=-u, area_cm2=0.16e4 * solid_angle)
                tx = make_tx(spot + 1.0 * u, axis=-u)
                cir = impulse_response(tx, rx, ROOM, ChannelConfig(max_bounces=1))
                assert cir.los_gain == 0.0
                total += cir.dc_gain()
        # everything that arrives anywhere is at most the emitted power
        assert total <= 1.0 + 1e-3
        # and the tiling really does catch the wall's whole re-emission
        assert total == pytest.approx(ROOM.wall_reflectivity, rel=0.02)


def budget_scenario(room, request):
    """The default room, a test room file, or the dense seed 3 fixture."""
    if room == "default":
        return default_scenario()
    if room == "dense-seed-3":
        return request.getfixturevalue("dense_seed_3")
    return load_scenario(Path(__file__).with_name(f"{room.replace('-', '_')}.yaml"))


# SHA-256 over every budget link's id and the float.hex of its h, h_los and
# h_reflected, one line per link in link order, as first recorded
GAIN_DIGESTS = {
    "default": "ed32292e90bd689840fff9692d59b51c03a7abcd0d940f2304c9cd7259bdb24c",
    "dense-tile": "35e9d7ca9873ec15c66a7694edf6ce7d173fcd9e033a8ff118b2c1c41f872385",
    "tilted": "28e16ede0f53178e2ca53596a7db6a9e5c762ae8fb906aa6df60fde4c5dd9a37",
    "dense-seed-3": "42b465ac14d0c50767efb6141b64b22913bdc692f91adbc79c94dfc48fcf1a3d",
}


class TestLinkBudgetResponses:
    @pytest.mark.parametrize("room", list(GAIN_DIGESTS))
    def test_gains_pinned_to_the_bit(self, room, request):
        # the budget and a lone response share the Lambertian kernel, so
        # comparing them cannot see a change to it; these digests can
        digest = hashlib.sha256()
        for link in build_link_budget(budget_scenario(room, request)).links:
            gains = (link.h, link.h_los, link.h_reflected)
            digest.update(f"{link.link_id} {' '.join(g.hex() for g in gains)}\n".encode())
        assert digest.hexdigest() == GAIN_DIGESTS[room]

    @pytest.mark.parametrize("room", ["default", "dense-tile", "tilted", "dense-seed-3"])
    def test_gains_equal_responses_computed_alone(self, room, request):
        # the budget computes responses receiver by receiver, each through
        # one view of its receiver on one grid, and sums each link's
        # per-order totals without binning it; each link's gains must equal
        # its binned response computed alone on a fresh grid
        budget = build_link_budget(budget_scenario(room, request))
        assert [link.index for link in budget.links] == list(range(budget.link_count))
        for link in budget.links:
            cir = link_cir(budget, link.tx_id, link.rx_id)
            assert (link.h, link.h_los, link.h_reflected) == (
                cir.dc_gain(), cir.los_gain, cir.first_order_gain + cir.second_order_gain,
            )

    def test_responses_and_grids_compare_by_identity(self):
        # their fields are arrays, so a field-wise == of two responses with
        # more than one path, or of two grids, has no single truth value
        budget = build_link_budget(default_scenario())
        for tx_id, rx_id in [("ap5", "u4"), ("r1", "u1"), ("ap2", "u2"), ("ap1", "u1")]:
            one, other = (link_cir(budget, tx_id, rx_id) for _ in range(2))
            assert one == one and one != other
            assert len({one, other, one}) == 2
        grid, again = discretize_surfaces(ROOM, 0.20), discretize_surfaces(ROOM, 0.20)
        assert grid == grid and grid != again
        assert len({grid, again, grid}) == 2
        # and so do the views of a receiver and of the tiles it sees
        rx = make_rx((1.0, 2.0, 1.0))
        views = [receiver_view(rx, ROOM, g) for g in (grid, again)]
        for one, other in (views, [view.tiles for view in views]):
            assert one == one and one != other
            assert len({one, other, one}) == 2

    @pytest.mark.parametrize(
        "room, receivers, bounces",
        [
            pytest.param(
                room, receivers, bounces,
                id=f"{room}-{receivers}" + ("" if bounces == 2 else f"-{bounces}-bounces"),
            )
            for room, receivers in [("default", 14), ("dense-seed-3", 21)]
            for bounces in (2, 1, 0)
        ],
    )
    def test_each_receiver_worked_out_once(self, room, receivers, bounces, request, monkeypatch):
        # the budget's responses run receiver by receiver, each through one
        # view of its receiver, whatever the bounce count; the one grid the
        # views share is tiled only for second-order paths
        scenario = budget_scenario(room, request)
        scenario = dataclasses.replace(
            scenario, channel=dataclasses.replace(scenario.channel, max_bounces=bounces)
        )
        views, grids = Counter(), []
        view_of, tile = channel.receiver_view, channel.discretize_surfaces

        def counted_view(rx, *args):
            views[rx.id] += 1
            return view_of(rx, *args)

        def counted_grid(*args):
            grids.append(tile(*args))
            return grids[-1]

        for module in (channel, links):
            monkeypatch.setattr(module, "receiver_view", counted_view)
            monkeypatch.setattr(module, "discretize_surfaces", counted_grid)
        budget = build_link_budget(scenario)
        assert len(grids) == (1 if bounces == 2 else 0)
        assert set(views) == {link.rx_id for link in budget.links}
        assert len(views) == receivers
        assert set(views.values()) == {1}

    @pytest.mark.parametrize("bounces", [0, 1])
    def test_no_grid_below_two_bounces(self, bounces, monkeypatch):
        # without second-order paths the budget tiles nothing, and no
        # receiver is asked which tiles it sees
        view_of = channel.receiver_view

        def refused(*args):
            raise AssertionError("tiles worked out")

        def untiled_view(rx, room, grid=None):
            if grid is not None:
                refused()
            return view_of(rx, room)

        for module in (channel, links):
            monkeypatch.setattr(module, "receiver_view", untiled_view)
            monkeypatch.setattr(module, "discretize_surfaces", refused)
        scenario = scenario_from_dict({"channel": {"max_bounces": bounces}})
        budget = build_link_budget(scenario)
        assert budget.link_count == 32

    @pytest.mark.parametrize("bounces", [0, 1, 2])
    def test_view_tiled_exactly_for_second_order_paths(self, bounces):
        # a view's tiles carry the second-order paths, so a view without
        # them cannot serve two bounces, nor one with them fewer
        tx, rx = make_tx((1, 1, 3)), make_rx((1.0, 1.5, 0.1))
        cfg = ChannelConfig(max_bounces=bounces)
        grid = discretize_surfaces(ROOM, cfg.second_bounce_res_m)
        fits, misfits = receiver_view(rx, ROOM), receiver_view(rx, ROOM, grid)
        if bounces == 2:
            fits, misfits = misfits, fits
        cir = impulse_response(tx, rx, ROOM, cfg, fits)
        alone = impulse_response(tx, rx, ROOM, cfg)
        assert (cir.second_order_gain > 0.0) == (bounces == 2)
        assert np.array_equal(cir.path_gains, alone.path_gains)
        assert np.array_equal(cir.path_lengths, alone.path_lengths)
        with pytest.raises(ValueError, match="holds tiles exactly when max_bounces is 2"):
            impulse_response(tx, rx, ROOM, cfg, misfits)

    def test_lone_response_tiles_only_for_a_missed_beam(self, monkeypatch):
        # the README's lone response: the aperture catches the whole beam, so
        # there is no reflection and no grid is tiled; a beam the aperture
        # misses in part tiles one
        grids = []
        tile = channel.discretize_surfaces

        def counted_grid(*args):
            grids.append(tile(*args))
            return grids[-1]

        monkeypatch.setattr(channel, "discretize_surfaces", counted_grid)
        tx = ApConfig(id="ap1", position_m=(1.0, 1.0, 3.0))
        cir = impulse_response(tx, UserConfig(id="u1", position_m=(1.0, 1.0, 1.0)), ROOM,
                               ChannelConfig())
        assert (cir.los_gain, cir.first_order_gain, cir.second_order_gain) == (1.0, 0.0, 0.0)
        assert grids == []
        cir = impulse_response(tx, UserConfig(id="u1", position_m=(1.0, 1.5, 0.1)), ROOM,
                               ChannelConfig())
        assert len(grids) == 1 and cir.second_order_gain > 0.0

    def test_responses_bin_on_request(self, monkeypatch):
        # the budget reads no bin, and a response bins its paths on the
        # first read of its gains alone
        calls = []
        bin_paths = channel._bin

        def counted(*args):
            calls.append(args)
            return bin_paths(*args)

        monkeypatch.setattr(channel, "_bin", counted)
        budget = build_link_budget(default_scenario())
        assert budget.link_count > 0 and calls == []
        cir = link_cir(budget, "r1", "u1")
        assert calls == []
        assert cir.gains is cir.gains
        assert len(calls) == 1

    def test_bins_too_many_to_allocate_are_refused_by_the_budget(self):
        # the budget bins nothing, yet a response still refuses a bin count
        # that could never be allocated
        scenario = scenario_from_dict({"channel": {"bin_ns": 1e-15}})
        with pytest.raises(ValueError, match=r"^6\.028e\+16 bins of 1e-15 ns, more than 4194304$"):
            build_link_budget(scenario)

    @pytest.mark.parametrize("room", ["default", "tilted"])
    def test_each_link_aimed_once(self, room, monkeypatch):
        # the maps take steering from the budget's one table, so a link's
        # beam is aimed once, by its response, which needs the beam
        # direction anyway and names an unservable link itself
        scenario = scenario_named(room)
        calls = Counter()
        aim = channel._aim

        def counted(tx_pos, boresight, target):
            calls[tuple(tx_pos), tuple(target)] += 1
            return aim(tx_pos, boresight, target)

        monkeypatch.setattr(channel, "_aim", counted)
        budget = build_link_budget(scenario)
        position = {
            t.id: tuple(map(float, t.position_m))
            for t in (*scenario.aps, *scenario.relays, *scenario.users)
        }
        assert calls == Counter(
            (position[ln.tx_id], position[ln.rx_id]) for ln in budget.links
        )
        assert max(calls.values()) == 1

    def test_one_bin_grid_for_budget_and_direct_calls(self):
        # a budget link and a direct call under the same channel section
        # bin their paths on the same grid, bin_ns * 1e-9 seconds wide
        scenario = default_scenario()
        budget = build_link_budget(scenario)
        ap1, u1 = scenario.aps[0], scenario.users[0]
        direct = impulse_response(ap1, u1, scenario.room, scenario.channel)
        via_budget = link_cir(budget, "ap1", "u1")
        assert via_budget.gains.tobytes() == direct.gains.tobytes()
        assert via_budget.bin_duration == direct.bin_duration == scenario.channel.bin_ns * 1e-9

    def test_dc_gain_is_the_exact_sum_of_all_bins(self):
        bins = np.array([3, 100, 3999])
        cir = ChannelImpulseResponse(
            1e-11, np.array([1e-3, 1e-20, 0.5]), bins * SPEED_OF_LIGHT * 1e-11, 0.5, 1e-3, 1e-20
        )
        gains = cir.gains
        assert gains.size == 4000
        assert np.flatnonzero(gains).tolist() == bins.tolist()
        assert cir.dc_gain() == math.fsum(gains.tolist())
        assert cir.dc_gain() == 0.5 + 1e-3 + 1e-20


def steerable_alone(scenario):
    """Every (source or relay, target) pair of the scenario whose target
    lies inside the transmitter's cone, each pair aimed alone by the rule of
    a response's steering check."""
    txs = (*scenario.aps, *scenario.relays)
    targets = {tx.id: (*scenario.relays, *scenario.users) for tx in scenario.aps}
    targets.update({tx.id: scenario.users for tx in scenario.relays})
    return {
        (tx.id, t.id)
        for tx in txs
        for t in targets[tx.id]
        if channel._in_cone(
            tx,
            channel._aim(
                np.asarray(tx.position_m, dtype=float),
                pointing(tx, scenario.room),
                np.asarray(t.position_m, dtype=float),
            )[3],
        )
    }


def steering_scenarios(room, request):
    """The rooms of the steering table checks; "dense-seeds" is the dense
    room at seeds 0-49 with its associations and relay pairings removed, so
    that every map comes from the table."""
    if room != "dense-seeds":
        return [budget_scenario(room, request)]
    dense_room = request.getfixturevalue("dense_room")
    return [
        dataclasses.replace(dense_room(seed), associations=None, relay_pairings=None)
        for seed in range(50)
    ]


# SHA-256 over every budget link's id, one line per link in link order and an
# empty line after each room, as first recorded, before the maps took
# steering from one table
LINK_ID_DIGESTS = {
    "default": "d976db2c7ef6c78302e4681b90f099e4700c674605ab1dd5a17f6f309c206b1b",
    "tilted": "4c151cf5e6cbacebf3c7f376aa8ea27efd482de8145db2a86071d2a8205f38fc",
    "dense-tile": "35eb8f82f8abb9d72a62b712390ab9db10a0fa50336215f9e2df3a54d3c64561",
    "dense-seeds": "e6d8695458f6358d9fa4193d41cba999927718870188b53304428c23910619f3",
}


class TestSteeringTable:
    @pytest.mark.parametrize("room", list(LINK_ID_DIGESTS))
    def test_table_equals_each_pair_aimed_alone(self, room, request):
        for scenario in steering_scenarios(room, request):
            assert links._steering_table(scenario) == steerable_alone(scenario)

    @pytest.mark.parametrize("room", list(LINK_ID_DIGESTS))
    def test_link_ids_pinned(self, room, request):
        digest = hashlib.sha256()
        for scenario in steering_scenarios(room, request):
            for link in build_link_budget(scenario).links:
                digest.update(f"{link.link_id}\n".encode())
            digest.update(b"\n")
        assert digest.hexdigest() == LINK_ID_DIGESTS[room]

    def test_dense_room_without_maps_keeps_its_links(self, dense_seed_3):
        scenario = dataclasses.replace(dense_seed_3, associations=None, relay_pairings=None)
        assert build_link_budget(scenario).link_count == 93

    def test_cone_edges(self):
        # targets 1e-9 rad inside and outside the edge of a source's 40 deg
        # cone, straight down, and of a relay's 30 deg cone about a tilted axis
        def around_ap(name, angle, azimuth):
            r = 2.0 * math.tan(angle)
            return (name, (2.0 + r * math.cos(azimuth), 4.0 + r * math.sin(azimuth), 1.0))

        def around_relay(name, azimuth):
            return (name, (0.5 + 1.5 * math.cos(azimuth), 1.0 + 1.5 * math.sin(azimuth), 1.5))

        edge, tilt, step = math.radians(40.0), math.radians(30.0), 1e-9
        relays = [
            RelayConfig("r1", (0.5, 1.0, 1.5), max_steering_deg=30.0, axis=(1.0, 1.0, 0.0)),
            RelayConfig(*around_ap("r_in", edge - step, math.pi / 2)),
            RelayConfig(*around_ap("r_out", edge + step, -math.pi / 2)),
        ]
        users = [
            UserConfig(*around_ap("u_in", edge - step, 0.0)),
            UserConfig(*around_ap("u_out", edge + step, math.pi)),
            UserConfig(*around_relay("u_near", math.pi / 4 + tilt - step)),
            UserConfig(*around_relay("u_far", math.pi / 4 - tilt - step)),
        ]
        scenario = dataclasses.replace(
            default_scenario(),
            aps=(ApConfig("ap1", (2.0, 4.0, 3.0)),),
            relays=tuple(relays),
            users=tuple(users),
            associations=None,
            relay_pairings=None,
        )
        table = links._steering_table(scenario)
        assert table == steerable_alone(scenario)
        inside = {("ap1", "u_in"), ("ap1", "r_in"), ("r1", "u_near")}
        outside = {("ap1", "u_out"), ("ap1", "r_out"), ("r1", "u_far")}
        assert inside <= table and not outside & table


class TestReflections:
    @pytest.mark.parametrize("room", ["default", "dense_tile", "tilted"])
    def test_reflections_move_no_outage_row(self, room):
        # a cut link loses its whole gain, reflections included, and a clear
        # link's reflections add about 2e-6 of its gain at most, a 2e-5 dB
        # change of SINR: every outage row is the same without them
        scenario = (
            default_scenario() if room == "default"
            else load_scenario(Path(__file__).with_name(f"{room}.yaml"))
        )
        assert scenario.channel.max_bounces == 2
        los_only = dataclasses.replace(
            scenario, channel=dataclasses.replace(scenario.channel, max_bounces=0)
        )
        budgets = [build_link_budget(s) for s in (los_only, scenario)]
        assert all(link.h_reflected == 0.0 for link in budgets[0].links)
        assert any(link.h_reflected > 0.0 for link in budgets[1].links)
        assert all(link.h_reflected <= 1e-5 * link.h for link in budgets[1].links)

        def rows(budget):
            return [
                result_lines(report.rows)
                for report in (
                    outage_independent_approx(budget),
                    outage_monte_carlo(budget, 65_536, 7, blockage_model="joint"),
                    outage_monte_carlo(budget, 65_536, 7, blockage_model="independent"),
                )
            ]

        assert rows(budgets[0]) == rows(budgets[1])
