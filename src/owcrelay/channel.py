"""Optical channel model: steered narrow-beam line of sight plus up to two
diffuse reflections off the room surfaces.

The beam is a top-hat cone.  A receiver collects the overlap of its aperture
disk with the beam spot, as a fraction of the spot, projected onto its face.
Power that misses the aperture continues to the first surface the beam axis
hits, is deposited on the fine-grid surface element containing the hit point,
and re-radiates as a Lambertian source.  Second-order paths go through a
coarser grid covering every room surface.  Propagation delays are binned
into a fixed-width impulse response.

A blocking human is a solid vertical cylinder standing on the floor; when a
blocker position is supplied, every individual path leg is tested against it
and blocked legs contribute nothing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from owcrelay.geometry import CylinderSpec, Point3, segments_blocked

__all__ = [
    "SPEED_OF_LIGHT",
    "RoomModel",
    "SurfaceGrid",
    "TransmitterSpec",
    "ReceiverSpec",
    "UnservableLinkError",
    "ChannelImpulseResponse",
    "discretize_surfaces",
    "narrow_beam_los_gain",
    "lambertian_gain",
    "impulse_response",
    "cir_rows",
]

SPEED_OF_LIGHT = 2.99792458e8


class UnservableLinkError(ValueError):
    """A steering target lies outside the transmitter's steering cone."""


@dataclass(frozen=True)
class RoomModel:
    """Rectangular room, corner at the origin, z up.

    ``lambertian_mode`` is the cosine exponent of surface re-emission; one
    is ideal diffuse.
    """

    width: float = 4.0
    length: float = 8.0
    height: float = 3.0
    wall_reflectivity: float = 0.8
    ceiling_reflectivity: float = 0.8
    floor_reflectivity: float = 0.3
    lambertian_mode: float = 1.0

    def __post_init__(self):
        if min(self.width, self.length, self.height) <= 0:
            raise ValueError("room extents must be positive")
        for name in ("wall_reflectivity", "ceiling_reflectivity", "floor_reflectivity"):
            v = getattr(self, name)
            if not 0.0 <= v <= 1.0:
                raise ValueError(f"{name} must lie in [0, 1], got {v}")
        if self.lambertian_mode < 1.0:
            raise ValueError("lambertian_mode must be >= 1")

    def contains(self, p: Point3) -> bool:
        return (
            0.0 <= p.x <= self.width
            and 0.0 <= p.y <= self.length
            and 0.0 <= p.z <= self.height
        )


@dataclass(frozen=True)
class TransmitterSpec:
    """A beam-steered source.  ``axis`` is the boresight; a target may be
    served only within ``max_steering_rad`` of it."""

    position: Point3
    power_w: float = 1e-3
    divergence_rad: float = 2.1e-3
    axis: tuple[float, float, float] = (0.0, 0.0, -1.0)
    max_steering_rad: float = math.radians(30.0)

    def __post_init__(self):
        if self.power_w <= 0:
            raise ValueError("transmit power must be positive")
        if not 0.0 < self.divergence_rad < math.pi / 2:
            raise ValueError("beam half-angle must lie in (0, pi/2)")
        a = np.asarray(self.axis, dtype=float)
        n = np.linalg.norm(a)
        if n == 0.0 or not np.all(np.isfinite(a)):
            raise ValueError("axis must be a non-zero finite vector")
        object.__setattr__(self, "axis", tuple(a / n))

    def steering_angle_to(self, target: Point3) -> float:
        d = target.as_array() - self.position.as_array()
        n = np.linalg.norm(d)
        if n == 0.0:
            raise ValueError("steering target coincides with the transmitter")
        c = float(np.clip(np.dot(d / n, self.axis), -1.0, 1.0))
        return math.acos(c)

    def check_servable(self, target: Point3) -> None:
        ang = self.steering_angle_to(target)
        if ang > self.max_steering_rad + 1e-12:
            raise UnservableLinkError(
                f"target needs {math.degrees(ang):.2f} deg of steering, "
                f"limit is {math.degrees(self.max_steering_rad):.2f} deg"
            )


@dataclass(frozen=True)
class ReceiverSpec:
    """A flat photodetector."""

    position: Point3
    normal: tuple[float, float, float] = (0.0, 0.0, 1.0)
    area_m2: float = 1e-4
    fov_rad: float = math.pi / 2
    responsivity: float = 0.5

    def __post_init__(self):
        if self.area_m2 <= 0:
            raise ValueError("detector area must be positive")
        if not 0.0 < self.fov_rad <= math.pi / 2:
            raise ValueError("field of view must lie in (0, pi/2]")
        if self.responsivity <= 0:
            raise ValueError("responsivity must be positive")
        nv = np.asarray(self.normal, dtype=float)
        n = np.linalg.norm(nv)
        if n == 0.0 or not np.all(np.isfinite(nv)):
            raise ValueError("normal must be a non-zero finite vector")
        object.__setattr__(self, "normal", tuple(nv / n))


@dataclass(frozen=True)
class SurfaceGrid:
    """Flattened element arrays for the six room faces."""

    centers: np.ndarray
    normals: np.ndarray
    areas: np.ndarray
    reflectivities: np.ndarray
    resolution: float

    @property
    def element_count(self) -> int:
        return self.centers.shape[0]

    @property
    def total_area(self) -> float:
        return float(np.sum(self.areas))


def _face_layout(room: RoomModel):
    """(origin, u axis, u extent, v axis, v extent, normal, reflectivity)
    for each face, normals pointing into the room."""
    w, l, h = room.width, room.length, room.height
    ex = np.array([1.0, 0.0, 0.0])
    ey = np.array([0.0, 1.0, 0.0])
    ez = np.array([0.0, 0.0, 1.0])
    zero = np.zeros(3)
    return [
        (zero, ex, w, ey, l, ez, room.floor_reflectivity),
        (h * ez, ex, w, ey, l, -ez, room.ceiling_reflectivity),
        (zero, ey, l, ez, h, ex, room.wall_reflectivity),
        (w * ex, ey, l, ez, h, -ex, room.wall_reflectivity),
        (zero, ex, w, ez, h, ey, room.wall_reflectivity),
        (l * ey, ex, w, ez, h, -ey, room.wall_reflectivity),
    ]


def _axis_cells(extent: float, resolution: float):
    """Cell centre offsets and widths along one face axis.

    Full-width cells of the requested resolution, plus one narrower edge
    cell when the extent does not divide evenly; total width is exact.
    """
    n_full = int(extent / resolution + 1e-9)
    rem = extent - n_full * resolution
    centers = (np.arange(n_full) + 0.5) * resolution
    widths = np.full(n_full, resolution)
    if rem > 1e-9 * max(1.0, extent):
        centers = np.append(centers, n_full * resolution + rem / 2.0)
        widths = np.append(widths, rem)
    if centers.size == 0:
        centers = np.array([extent / 2.0])
        widths = np.array([extent])
    return centers, widths


def _surface_grid(room: RoomModel, resolution: float) -> SurfaceGrid:
    if resolution <= 0:
        raise ValueError("resolution must be positive")
    centers, normals, areas, rhos = [], [], [], []
    for origin, u, ue, v, ve, normal, rho in _face_layout(room):
        cu, wu = _axis_cells(ue, resolution)
        cv, wv = _axis_cells(ve, resolution)
        uu, vv = np.meshgrid(cu, cv, indexing="ij")
        ww = np.outer(wu, wv)
        pts = origin[None, :] + uu.reshape(-1, 1) * u[None, :] + vv.reshape(-1, 1) * v[None, :]
        centers.append(pts)
        normals.append(np.tile(normal, (pts.shape[0], 1)))
        areas.append(ww.reshape(-1))
        rhos.append(np.full(pts.shape[0], rho))
    return SurfaceGrid(
        centers=np.concatenate(centers),
        normals=np.concatenate(normals),
        areas=np.concatenate(areas),
        reflectivities=np.concatenate(rhos),
        resolution=resolution,
    )


def discretize_surfaces(
    room: RoomModel, first_res: float = 0.05, second_res: float = 0.20
) -> tuple[SurfaceGrid, SurfaceGrid]:
    """Tile all six faces at the first- and second-bounce resolutions.

    Returns the fine grid and the coarse grid, in that order.  Element
    areas on each grid sum to the exact interior surface area.
    """
    return _surface_grid(room, first_res), _surface_grid(room, second_res)


def _disk_overlap(dist: float, r1: float, r2: float) -> float:
    """Area of intersection of two disks with centre distance ``dist``."""
    if dist >= r1 + r2:
        return 0.0
    r_small, r_big = (r1, r2) if r1 <= r2 else (r2, r1)
    if dist <= r_big - r_small:
        return math.pi * r_small * r_small
    # lens of two circular segments
    d2, a2, b2 = dist * dist, r1 * r1, r2 * r2
    alpha = math.acos(np.clip((d2 + a2 - b2) / (2.0 * dist * r1), -1.0, 1.0))
    beta = math.acos(np.clip((d2 + b2 - a2) / (2.0 * dist * r2), -1.0, 1.0))
    return (
        a2 * (alpha - math.sin(2.0 * alpha) / 2.0)
        + b2 * (beta - math.sin(2.0 * beta) / 2.0)
    )


def narrow_beam_los_gain(tx: TransmitterSpec, rx: ReceiverSpec, aim: Point3 | None = None) -> float:
    """Fraction of transmit power collected by the detector over the direct
    path.

    The beam is steered at ``aim`` (the receiver's position when omitted);
    an aim outside the steering cone raises :class:`UnservableLinkError`.
    The captured fraction is the aperture-disk/top-hat-spot overlap as a
    fraction of the spot, times the incidence cosine; a detector whose
    aperture misses the spot entirely collects nothing.
    """
    target = aim if aim is not None else rx.position
    tx.check_servable(target)
    beam = target.as_array() - tx.position.as_array()
    bn = np.linalg.norm(beam)
    if bn == 0.0:
        raise ValueError("beam aim coincides with the transmitter")
    beam = beam / bn

    rel = rx.position.as_array() - tx.position.as_array()
    axial = float(np.dot(rel, beam))
    if axial <= 0.0:
        return 0.0
    offset = float(np.linalg.norm(rel - axial * beam))
    spot_radius = axial * math.tan(tx.divergence_rad)
    aperture_radius = math.sqrt(rx.area_m2 / math.pi)
    overlap = _disk_overlap(offset, spot_radius, aperture_radius)
    if overlap <= 0.0:
        return 0.0

    d = float(np.linalg.norm(rel))
    cos_in = float(np.dot(np.asarray(rx.normal), -rel / d))
    if cos_in < math.cos(rx.fov_rad) or cos_in <= 0.0:
        return 0.0
    spot_area = math.pi * spot_radius * spot_radius
    capture = min(1.0, overlap / spot_area)
    return capture * cos_in


def lambertian_gain(src_pos, src_normal, src_mode: float, rx: ReceiverSpec) -> float:
    """Point Lambertian source of the given cosine order to a small detector."""
    s = np.asarray(src_pos, dtype=float)
    r = rx.position.as_array() if isinstance(rx.position, Point3) else np.asarray(rx.position, float)
    sn = np.asarray(src_normal, dtype=float)
    rn = np.asarray(rx.normal, dtype=float)
    d = r - s
    dist = float(np.linalg.norm(d))
    if dist == 0.0:
        raise ValueError("source and receiver coincide")
    d = d / dist
    cos_e = float(np.dot(sn, d))
    cos_i = float(np.dot(rn, -d))
    if cos_e <= 0.0 or cos_i <= 0.0 or cos_i < math.cos(rx.fov_rad):
        return 0.0
    return (src_mode + 1) / (2.0 * math.pi * dist * dist) * cos_e**src_mode * cos_i * rx.area_m2


def _lambertian_to_many(src_pos, src_normal, src_mode, dst_pos, dst_normal, dst_area):
    """Vectorised transfer from one point source to many patches.

    Patches facing away on either end get exactly zero.
    """
    d = dst_pos - src_pos[None, :]
    dist2 = np.einsum("ij,ij->i", d, d)
    ok = dist2 > 0.0
    dist = np.sqrt(np.where(ok, dist2, 1.0))
    dhat = d / dist[:, None]
    cos_e = dhat @ np.asarray(src_normal, dtype=float)
    cos_i = -np.einsum("ij,ij->i", dhat, dst_normal)
    vis = ok & (cos_e > 0.0) & (cos_i > 0.0)
    out = np.zeros(dst_pos.shape[0])
    out[vis] = (
        (src_mode + 1)
        / (2.0 * math.pi * dist2[vis])
        * cos_e[vis] ** src_mode
        * cos_i[vis]
        * dst_area[vis]
    )
    return out, dist


def _beam_exit(room: RoomModel, origin: np.ndarray, direction: np.ndarray):
    """First boundary face hit by a ray from inside the room.

    Returns (face index into the _face_layout order, hit point).
    """
    w, l, h = room.width, room.length, room.height
    # plane constant and face index per (axis, side)
    planes = [
        (2, 0.0, 0), (2, h, 1),   # floor, ceiling
        (0, 0.0, 2), (0, w, 3),   # x walls
        (1, 0.0, 4), (1, l, 5),   # y walls
    ]
    best_t = math.inf
    best = None
    for axis, value, face in planes:
        dv = direction[axis]
        if abs(dv) < 1e-300:
            continue
        t = (value - origin[axis]) / dv
        if t <= 1e-9:
            continue
        if t < best_t:
            best_t = t
            best = face
    if best is None:
        raise ValueError("beam direction never leaves the room")
    return best, origin + best_t * direction


def _containing_cell(coord: float, widths: np.ndarray) -> int:
    edges = np.cumsum(widths)
    i = int(np.searchsorted(edges, coord, side="left"))
    return min(max(i, 0), widths.size - 1)


def _snap_to_face(room: RoomModel, face: int, hit: np.ndarray, resolution: float):
    """Element centre, normal, reflectivity of the element of ``face``
    containing the hit point, at the given tiling resolution."""
    origin, u, ue, v, ve, normal, rho = _face_layout(room)[face]
    cu_all, wu = _axis_cells(ue, resolution)
    cv_all, wv = _axis_cells(ve, resolution)
    cu = float(np.dot(hit - origin, u))
    cv = float(np.dot(hit - origin, v))
    iu = _containing_cell(cu, wu)
    iv = _containing_cell(cv, wv)
    center = origin + cu_all[iu] * u + cv_all[iv] * v
    return center, normal, rho


@dataclass(frozen=True)
class ChannelImpulseResponse:
    """Binned power gains plus the per-order totals they were built from.

    Bin ``k`` covers the instant ``origin_time + k * bin_duration``.
    """

    bin_duration: float
    gains: np.ndarray
    los_gain: float
    first_order_gain: float
    second_order_gain: float
    blocked: bool = False
    origin_time: float = 0.0

    def dc_gain(self) -> float:
        """Total power gain of the response: the exactly rounded sum of all bins."""
        return float(math.fsum(self.gains))


def cir_rows(cir: ChannelImpulseResponse) -> tuple[tuple[int, float, float], ...]:
    """(bin_index, time_s, gain) for every nonzero bin, in time order."""
    rows = []
    for k in np.flatnonzero(cir.gains):
        rows.append((int(k), cir.origin_time + int(k) * cir.bin_duration, float(cir.gains[k])))
    return tuple(rows)


def _bin_index(delay: float, bin_duration: float) -> int:
    return int(round(delay / bin_duration))


def impulse_response(
    tx: TransmitterSpec,
    rx: ReceiverSpec,
    room: RoomModel,
    max_bounces: int = 2,
    blockage=None,
    *,
    cylinder: CylinderSpec | None = None,
    aim: Point3 | None = None,
    first_res: float = 0.05,
    second_res: float = 0.20,
    bin_duration: float = 1e-11,
    second_grid: SurfaceGrid | None = None,
) -> ChannelImpulseResponse:
    """Impulse response of one steered link.

    ``blockage`` is an optional floor position (x, y) of a blocking human
    cylinder (``cylinder`` spec, default 1.8 m x 0.3 m).  Every path leg --
    direct, transmitter-to-surface, element-to-receiver, element-to-element
    and element-to-receiver on second-order paths -- is tested against the
    cylinder, and blocked legs contribute zero.

    Raises :class:`UnservableLinkError` when the aim point is outside the
    transmitter's steering cone.
    """
    if max_bounces not in (0, 1, 2):
        raise ValueError("max_bounces must be 0, 1 or 2")
    target = aim if aim is not None else rx.position
    tx.check_servable(target)

    cyl = cylinder if cylinder is not None else CylinderSpec()
    center = None if blockage is None else np.asarray(blockage, dtype=float).reshape(-1)[:2]

    def leg_blocked(a: np.ndarray, b: np.ndarray) -> bool:
        return center is not None and bool(segments_blocked(a, b, center, cyl)[0])

    tx_pos = tx.position.as_array()
    rx_pos = rx.position.as_array()
    beam = target.as_array() - tx_pos
    beam = beam / np.linalg.norm(beam)

    los_raw = narrow_beam_los_gain(tx, rx, aim=target)
    los_blocked = leg_blocked(tx_pos, rx_pos)
    los = 0.0 if los_blocked else los_raw

    d_direct = float(np.linalg.norm(rx_pos - tx_pos))
    bins: dict[int, float] = {}
    if los > 0.0:
        bins[_bin_index(d_direct / SPEED_OF_LIGHT, bin_duration)] = los

    first = 0.0
    second = 0.0
    if max_bounces >= 1:
        face, hit = _beam_exit(room, tx_pos, beam)
        residue = 0.0 if leg_blocked(tx_pos, hit) else 1.0 - los
        if residue > 0.0:
            e_center, e_normal, e_rho = _snap_to_face(room, face, hit, first_res)
            d0 = float(np.linalg.norm(e_center - tx_pos))
            mode = room.lambertian_mode

            if not leg_blocked(e_center, rx_pos):
                first = residue * e_rho * lambertian_gain(e_center, e_normal, mode, rx)
            if first > 0.0:
                d1 = float(np.linalg.norm(rx_pos - e_center))
                b = _bin_index((d0 + d1) / SPEED_OF_LIGHT, bin_duration)
                bins[b] = bins.get(b, 0.0) + first

            if max_bounces >= 2:
                grid = second_grid
                if grid is None or grid.resolution != second_res:
                    grid = _surface_grid(room, second_res)
                to_patch, d_ep = _lambertian_to_many(
                    e_center, e_normal, mode, grid.centers, grid.normals, grid.areas
                )
                rel = rx_pos[None, :] - grid.centers
                dist2 = np.einsum("ij,ij->i", rel, rel)
                live = (to_patch > 0.0) & (dist2 > 0.0)
                if center is not None and np.any(live):
                    live &= ~segments_blocked(e_center[None, :], grid.centers, center, cyl)
                    live &= ~segments_blocked(grid.centers, rx_pos[None, :], center, cyl)
                if np.any(live):
                    dist = np.sqrt(dist2[live])
                    dhat = rel[live] / dist[:, None]
                    cos_e = np.einsum("ij,ij->i", grid.normals[live], dhat)
                    cos_i = -(dhat @ np.asarray(rx.normal))
                    vis = (cos_e > 0.0) & (cos_i > 0.0) & (cos_i >= math.cos(rx.fov_rad))
                    if np.any(vis):
                        g2 = (
                            (mode + 1)
                            / (2.0 * math.pi * dist[vis] ** 2)
                            * cos_e[vis] ** mode
                            * cos_i[vis]
                            * rx.area_m2
                        )
                        contrib = (
                            residue
                            * e_rho
                            * to_patch[live][vis]
                            * grid.reflectivities[live][vis]
                            * g2
                        )
                        delays = (d0 + d_ep[live][vis] + dist[vis]) / SPEED_OF_LIGHT
                        idx = np.rint(delays / bin_duration).astype(int)
                        second = float(np.sum(contrib))
                        for b, c in zip(idx, contrib):
                            bins[int(b)] = bins.get(int(b), 0.0) + float(c)

    if bins:
        length = max(bins) + 1
        gains = np.zeros(length)
        for b, c in bins.items():
            gains[b] = c
    else:
        gains = np.zeros(0)
    return ChannelImpulseResponse(
        bin_duration=bin_duration,
        gains=gains,
        los_gain=los,
        first_order_gain=first,
        second_order_gain=second,
        blocked=los_blocked,
    )
