"""Optical channel model: steered narrow-beam line of sight plus up to two
diffuse reflections off the surfaces of the scenario's room section
(:class:`owcrelay.scenario.RoomConfig`), with the bounce count, grid tile
size and delay bins of its channel section
(:class:`owcrelay.scenario.ChannelConfig`).

Terminals are the scenario's AP, relay and user entries
(:mod:`owcrelay.scenario`), converted from the document's units where they
are used; :func:`pointing` gives each one's boresight, which a relay's
source and detector share.  One table of the room's six faces -- their
order, origin, axes, extents, inward normal and reflectivity -- drives the
tile grid, the face a beam's first bounce meets and a wall relay's default
boresight, the inward normal of its nearest face.  :func:`can_serve` says
whether a target lies inside a transmitter's steering cone, and a response
into a receiver outside it raises :class:`UnservableLinkError`, so every
response checks its own link's steering.

The beam is a top-hat cone steered at the receiver's centre.  The receiver
collects the share of the spot its centred aperture disk covers, projected
onto its face.  Power that misses the aperture continues along the beam axis
to the first face it meets and re-radiates from the hit point as a
Lambertian point source; a beam the aperture catches whole has no first
bounce.  Second-order paths go through a grid of tiles covering every room
surface.  A patch the receiver cannot see carries no path, so the grid
keeps the patches that the last receiver it served can see, with their
gains to it, and responses into that receiver run their hit-to-patch leg
over those alone.

Every diffuse leg -- hit point to detector, hit point to grid patch, grid
patch to detector -- is the same transfer from a Lambertian point source to
a small flat patch, computed by one vectorised kernel,
:func:`lambertian_gain`, on positions and normals held as columns, x, y and
z along the first axis.
Every path, direct or reflected, becomes a (gain, length) pair.  A response
keeps these pairs with the total gain of each bounce order, and bins them
by propagation delay, in one ``np.bincount``, only when its bins are read;
the link budget (:mod:`owcrelay.links`) sums the per-order totals and bins
nothing.

Responses are unobstructed: the channel knows nothing of pedestrians.
Whether a walker cuts a link is decided by the link's blocking region in
:mod:`owcrelay.geometry`, and a cut link loses its whole gain.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from owcrelay.scenario import ApConfig, ChannelConfig, RelayConfig, RoomConfig, UserConfig

__all__ = [
    "SPEED_OF_LIGHT",
    "SurfaceGrid",
    "UnservableLinkError",
    "pointing",
    "steering_angle",
    "can_serve",
    "ChannelImpulseResponse",
    "discretize_surfaces",
    "narrow_beam_los_gain",
    "lambertian_gain",
    "impulse_response",
    "cir_rows",
]

SPEED_OF_LIGHT = 2.99792458e8

_MAX_CELLS = 2**22  # most tiles along a face axis or in a grid, or delay bins of a response


class UnservableLinkError(ValueError):
    """A steering target lies outside the transmitter's steering cone."""


def _check_size(count, what: str) -> None:
    if not count <= _MAX_CELLS:
        raise ValueError(f"{count:.4g} {what}, more than {_MAX_CELLS}")


@functools.lru_cache
def _inward_axis(position, room: RoomConfig) -> np.ndarray:
    """Boresight of a wall node: the inward normal of its nearest face, walls
    first on a tie; cached, as every response of a relay asks for it again."""
    p = np.asarray(position, dtype=float)
    faces = _face_layout(room)
    nearest = min(faces[2:] + faces[:2], key=lambda f: float(np.dot(f[5], p - f[0])))
    return nearest[5]


def pointing(entry: ApConfig | RelayConfig | UserConfig, room: RoomConfig) -> np.ndarray:
    """Unit boresight of a terminal: an AP points straight down, a user
    along its elevation and azimuth, and a relay's source and detector share
    its ``axis``, or face away from the nearest room face."""
    if isinstance(entry, ApConfig):
        v = (0.0, 0.0, -1.0)
    elif isinstance(entry, UserConfig):
        el = math.radians(entry.elevation_deg)
        az = math.radians(entry.azimuth_deg)
        v = (math.cos(el) * math.cos(az), math.cos(el) * math.sin(az), math.sin(el))
    else:
        v = entry.axis if entry.axis is not None else _inward_axis(tuple(entry.position_m), room)
    a = np.asarray(v, dtype=float)
    return a / np.linalg.norm(a)


def steering_angle(tx: ApConfig | RelayConfig, target, room: RoomConfig) -> float:
    """Angle between the boresight of ``tx`` and the direction to ``target``."""
    d = np.asarray(target, dtype=float) - np.asarray(tx.position_m, dtype=float)
    n = np.linalg.norm(d)
    if n == 0.0:
        raise ValueError("steering target coincides with the transmitter")
    c = float(np.dot(d / n, pointing(tx, room)))
    return math.acos(min(1.0, max(-1.0, c)))


def can_serve(tx: ApConfig | RelayConfig, target, room: RoomConfig) -> bool:
    """Whether the point ``target`` lies inside the steering cone of ``tx``."""
    return steering_angle(tx, target, room) <= math.radians(tx.max_steering_deg) + 1e-12


@dataclass(frozen=True)
class VisibleTiles:
    """The tiles of a grid a detector sees: their centre and normal columns,
    ``(3, tiles)``, areas and reflectivities, and each one's gain to the
    detector and distance from it, in grid order."""

    centers: np.ndarray
    normals: np.ndarray
    areas: np.ndarray
    reflectivities: np.ndarray
    gains: np.ndarray
    distances: np.ndarray


@dataclass(frozen=True)
class SurfaceGrid:
    """Element arrays for the six room faces: centre and normal columns,
    ``(3, elements)``, and one area and reflectivity per element."""

    centers: np.ndarray
    normals: np.ndarray
    areas: np.ndarray
    reflectivities: np.ndarray
    # (detector, room) -> VisibleTiles of the last detector asked for
    _last: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def visible_to(self, rx: RelayConfig | UserConfig, room: RoomConfig) -> VisibleTiles:
        """The elements with a non-zero :func:`lambertian_gain`, as sources
        of the room's ``lambertian_mode``, to the detector of ``rx``; every
        other element adds nothing to a path ending there.  The last
        detector's set is kept, so responses into one receiver computed one
        after another share it."""
        key = (rx, room)
        if key not in self._last:
            gain, dist = lambertian_gain(
                self.centers, self.normals, room.lambertian_mode, rx.position_m,
                pointing(rx, room), rx.area_cm2 * 1e-4, math.cos(math.radians(rx.fov_deg)),
            )
            seen = np.flatnonzero(gain)
            self._last.clear()
            self._last[key] = VisibleTiles(
                centers=self.centers.take(seen, axis=1),
                normals=self.normals.take(seen, axis=1),
                areas=self.areas[seen],
                reflectivities=self.reflectivities[seen],
                gains=gain[seen],
                distances=dist[seen],
            )
        return self._last[key]


def _face_layout(room: RoomConfig):
    """(origin, u axis, u extent, v axis, v extent, normal, reflectivity)
    for each face, normals pointing into the room: floor, ceiling, the x
    walls, the y walls."""
    w, l, h = room.width_m, room.length_m, room.height_m
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
    _check_size(extent / resolution, f"tiles of {resolution:g} m along a face axis")
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


def discretize_surfaces(room: RoomConfig, resolution: float) -> SurfaceGrid:
    """Tile all six faces at the given resolution.

    Element areas sum to the exact interior surface area.
    """
    if resolution <= 0:
        raise ValueError("resolution must be positive")
    faces = _face_layout(room)
    axes = [(_axis_cells(f[2], resolution), _axis_cells(f[4], resolution)) for f in faces]
    _check_size(sum(u[0].size * v[0].size for u, v in axes), f"tiles of {resolution:g} m in a grid")
    centers, normals, areas, rhos = [], [], [], []
    for (origin, u, ue, v, ve, normal, rho), ((cu, wu), (cv, wv)) in zip(faces, axes):
        uu, vv = np.meshgrid(cu, cv, indexing="ij")
        ww = np.outer(wu, wv)
        pts = origin[:, None] + u[:, None] * uu.reshape(-1) + v[:, None] * vv.reshape(-1)
        centers.append(pts)
        normals.append(np.repeat(normal[:, None], pts.shape[1], axis=1))
        areas.append(ww.reshape(-1))
        rhos.append(np.full(pts.shape[1], rho))
    return SurfaceGrid(
        centers=np.concatenate(centers, axis=1),
        normals=np.concatenate(normals, axis=1),
        areas=np.concatenate(areas),
        reflectivities=np.concatenate(rhos),
    )


def narrow_beam_los_gain(
    tx: ApConfig | RelayConfig, rx: RelayConfig | UserConfig, room: RoomConfig
) -> float:
    """Fraction of transmit power collected by the detector over the direct
    path.

    The beam is steered at the receiver's centre, so the aperture disk sits
    centred in the top-hat spot; a receiver outside the steering cone raises
    :class:`UnservableLinkError`.  The captured fraction is the aperture's
    share of the spot, ``min(1, r_aperture^2 / r_spot^2)``, times the
    incidence cosine.
    """
    if not can_serve(tx, rx.position_m, room):
        raise UnservableLinkError(
            f"target needs {math.degrees(steering_angle(tx, rx.position_m, room)):.2f} deg "
            f"of steering, limit is {tx.max_steering_deg:.2f} deg"
        )
    rel = np.asarray(rx.position_m, dtype=float) - np.asarray(tx.position_m, dtype=float)
    d = float(np.linalg.norm(rel))
    axial = float(np.dot(rel, rel / d))
    spot_radius = axial * math.tan(tx.divergence_mrad * 1e-3)
    aperture_radius = math.sqrt(rx.area_cm2 * 1e-4 / math.pi)

    cos_in = float(np.dot(pointing(rx, room), -rel / d))
    if cos_in < math.cos(math.radians(rx.fov_deg)):
        return 0.0
    aperture_area = math.pi * aperture_radius * aperture_radius
    capture = min(1.0, aperture_area / (math.pi * spot_radius * spot_radius))
    return capture * cos_in


def _columns(a) -> np.ndarray:
    """``a`` as ``(3, N)`` float columns; a ``(3,)`` point is one column."""
    a = np.asarray(a, dtype=float)
    if a.ndim not in (1, 2) or a.shape[0] != 3:
        raise ValueError(f"expected x, y, z along the first axis, got shape {a.shape}")
    return a.reshape(3, -1)


def lambertian_gain(src, src_normal, mode: float, dst, dst_normal, dst_area, cos_fov: float = 0.0):
    """Transfer from Lambertian point sources of cosine order ``mode`` to
    small flat patches: ``(mode + 1) / (2 pi d^2) cos_e^mode cos_i area``.

    Positions and normals are columns, x, y and z along the first axis:
    shape ``(3,)`` for one point or ``(3, N)`` for N, and either end may be
    a single point.  A pair gets exactly zero unless both ends face each
    other and the incidence cosine reaches ``cos_fov`` (0 for room surfaces,
    ``cos(fov)`` for a detector).  Returns ``(gain, distance)``, one entry
    per pair, 1-D even for a single pair.
    """
    src, src_normal, dst, dst_normal = map(_columns, (src, src_normal, dst, dst_normal))
    dx, dy, dz = dst - src
    # each 3-term dot product adds x and z first, then y: the order numpy's
    # einsum takes over C-ordered (N, 3) rows, which gave the recorded gains;
    # summed in x, y, z order, some distances differ in their last bit
    dist2 = (dx * dx + dz * dz) + dy * dy
    ok = dist2 > 0.0
    dist = np.sqrt(np.where(ok, dist2, 1.0))
    ux, uy, uz = dx / dist, dy / dist, dz / dist
    cos_e = (ux * src_normal[0] + uz * src_normal[2]) + uy * src_normal[1]
    cos_i = -((ux * dst_normal[0] + uz * dst_normal[2]) + uy * dst_normal[1])
    vis = ok & (cos_e > 0.0) & (cos_i > 0.0) & (cos_i >= cos_fov)
    area = np.broadcast_to(dst_area, dist.shape)
    gain = np.zeros(dist.shape)
    gain[vis] = (
        (mode + 1) / (2.0 * math.pi * dist2[vis]) * cos_e[vis] ** mode * cos_i[vis] * area[vis]
    )
    return gain, dist


def _first_bounce(room: RoomConfig, origin, direction):
    """The first point where a ray from inside the room meets a face, with
    that face's inward normal and reflectivity; the earlier face in
    :func:`_face_layout` wins a tie."""
    best_t, best = math.inf, None
    for face in _face_layout(room):
        along = float(np.dot(face[5], direction))
        if abs(along) < 1e-300:
            continue
        t = float(np.dot(face[5], face[0] - origin)) / along
        if 1e-9 < t < best_t:
            best_t, best = t, face
    if best is None:
        raise ValueError("beam direction never leaves the room")
    *_, normal, rho = best
    return origin + best_t * direction, normal, rho


def _bin(path_gains: np.ndarray, path_lengths: np.ndarray, bin_duration: float) -> np.ndarray:
    """Path gains summed into bins ``bin_duration`` seconds wide by the
    rounded delay of each path."""
    bins = np.rint(path_lengths / SPEED_OF_LIGHT / bin_duration).astype(int)
    # an empty bincount comes back as integers
    return np.bincount(bins, weights=path_gains).astype(float, copy=False)


@dataclass(frozen=True)
class ChannelImpulseResponse:
    """The paths of one link, as gains and lengths, plus the per-order
    totals of their gains.

    The paths are binned on the first read of :attr:`gains`; bin ``k``
    covers the instant ``k * bin_duration``.
    """

    bin_duration: float
    path_gains: np.ndarray
    path_lengths: np.ndarray
    los_gain: float
    first_order_gain: float
    second_order_gain: float

    @functools.cached_property
    def gains(self) -> np.ndarray:
        """Binned power gains, one entry per delay bin up to the last path."""
        return _bin(self.path_gains, self.path_lengths, self.bin_duration)

    def dc_gain(self) -> float:
        """Total power gain of the response: the exactly rounded sum of all
        bins, taken over the non-zero ones."""
        return math.fsum(self.gains[np.flatnonzero(self.gains)].tolist())


def cir_rows(cir: ChannelImpulseResponse) -> tuple[tuple[int, float, float], ...]:
    """(bin_index, time_s, gain) for every nonzero bin, in time order."""
    return tuple(
        (int(k), int(k) * cir.bin_duration, float(cir.gains[k])) for k in np.flatnonzero(cir.gains)
    )


def impulse_response(
    tx: ApConfig | RelayConfig,
    rx: RelayConfig | UserConfig,
    room: RoomConfig,
    channel: ChannelConfig,
    second_grid: SurfaceGrid | None = None,
) -> ChannelImpulseResponse:
    """Unobstructed impulse response of one steered link under the
    scenario's channel section, binned at ``channel.bin_ns`` when its gains
    are first read.  A bin count too large to allocate is refused here, not
    at that read.

    The first bounce re-radiates from the point where the beam leaves the
    room; second-order paths go through ``second_grid``, tiled at
    ``channel.second_bounce_res_m`` by :func:`discretize_surfaces` when not
    given.

    Raises :class:`UnservableLinkError` when the receiver is outside the
    transmitter's steering cone.
    """
    los = narrow_beam_los_gain(tx, rx, room)

    tx_pos = np.asarray(tx.position_m, dtype=float)
    rx_pos = np.asarray(rx.position_m, dtype=float)
    rx_normal = pointing(rx, room)
    cos_fov = math.cos(math.radians(rx.fov_deg))
    beam = rx_pos - tx_pos
    beam = beam / np.linalg.norm(beam)

    # every path as (gain, length), stacked at the end
    path_gains: list = []
    path_lengths: list = []
    if los > 0.0:
        path_gains.append(los)
        path_lengths.append(float(np.linalg.norm(rx_pos - tx_pos)))

    first = 0.0
    second = 0.0
    residue = 1.0 - los
    if channel.max_bounces >= 1 and residue > 0.0:
        hit, hit_normal, hit_rho = _first_bounce(room, tx_pos, beam)
        d0 = float(np.linalg.norm(hit - tx_pos))
        mode = room.lambertian_mode

        g1, d1 = lambertian_gain(
            hit, hit_normal, mode, rx_pos, rx_normal, rx.area_cm2 * 1e-4, cos_fov
        )
        first = residue * hit_rho * float(g1[0])
        if first > 0.0:
            path_gains.append(first)
            path_lengths.append(d0 + d1)

        if channel.max_bounces >= 2:
            grid = second_grid
            if grid is None:
                grid = discretize_surfaces(room, channel.second_bounce_res_m)
            seen = grid.visible_to(rx, room)
            to_patch, d_ep = lambertian_gain(
                hit, hit_normal, mode, seen.centers, seen.normals, seen.areas
            )
            live = to_patch > 0.0
            rho, to_rx = seen.reflectivities[live], seen.gains[live]
            contrib = residue * hit_rho * to_patch[live] * rho * to_rx
            second = float(np.sum(contrib))
            path_gains.append(contrib)
            path_lengths.append(d0 + d_ep[live] + seen.distances[live])

    lengths = np.hstack(path_lengths) if path_lengths else np.zeros(0)
    # counted in nanoseconds: a width of a few 1e-315 ns underflows to 0 s
    delay_ns = float(lengths.max(initial=0)) / SPEED_OF_LIGHT * 1e9
    _check_size(delay_ns / channel.bin_ns + 1, f"bins of {channel.bin_ns:g} ns")
    return ChannelImpulseResponse(
        bin_duration=channel.bin_ns * 1e-9,
        path_gains=np.hstack(path_gains) if path_gains else np.zeros(0),
        path_lengths=lengths,
        los_gain=los,
        first_order_gain=first,
        second_order_gain=second,
    )
