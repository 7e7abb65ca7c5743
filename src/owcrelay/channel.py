"""Optical channel model: steered narrow-beam line of sight plus up to two
diffuse reflections off the surfaces of the scenario's room section
(:class:`owcrelay.scenario.RoomConfig`), with the bounce count, grid tile
size and delay bins of its channel section
(:class:`owcrelay.scenario.ChannelConfig`).

Terminals are the scenario's AP, relay and user entries
(:mod:`owcrelay.scenario`), converted from the document's units where they
are used; :func:`pointing` gives each one's boresight, which a relay's
source and detector share.  One table of the room's six faces -- their
order, the axis each lies across, its inward normal and reflectivity --
drives the tile grid, the face a beam's first bounce meets and a wall
relay's default boresight, the inward normal of its nearest face.
:func:`can_serve` says whether a target lies inside a transmitter's
steering cone, and a response into a receiver outside it raises
:class:`UnservableLinkError`, so every response checks its own link's
steering.

The beam is a top-hat cone steered at the receiver's centre.  The receiver
collects the share of the spot its centred aperture disk covers, projected
onto its face.  Power that misses the aperture continues along the beam axis
to the first face it meets and re-radiates from the hit point as a
Lambertian point source; a beam the aperture catches whole has no first
bounce.  Second-order paths go through a grid of tiles covering every room
surface.  A receiver's view (:func:`receiver_view`) holds what every
response into it shares: its position, boresight, field of view and
aperture and, given a grid, the tiles it can see with their gains to it,
since a tile it cannot see carries no path.  Responses given that view run
their hit-to-tile leg over those tiles alone.

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
from dataclasses import dataclass

import numpy as np

from owcrelay.scenario import ApConfig, ChannelConfig, RelayConfig, RoomConfig, UserConfig

__all__ = [
    "SPEED_OF_LIGHT",
    "SurfaceGrid",
    "UnservableLinkError",
    "pointing",
    "can_serve",
    "ChannelImpulseResponse",
    "discretize_surfaces",
    "receiver_view",
    "lambertian_gain",
    "impulse_response",
    "cir_rows",
]

SPEED_OF_LIGHT = 2.99792458e8

_MAX_CELLS = 2**22  # most tiles along a face axis or in a grid, or delay bins of a response

# The room's six faces in table order -- floor, ceiling, the walls at x = 0
# and x = W, the walls at y = 0 and y = L -- each as (k, s, reflectivity
# field): the face lies across axis k, at 0 when s is +1 and at the room's
# extent along k when s is -1, and its inward normal is s along axis k.
# A dot product with an axis-aligned normal is exact, so a point's
# distance to a face along its normal is one signed coordinate difference.
_FACES = (
    (2, 1.0, "floor_reflectivity"),
    (2, -1.0, "ceiling_reflectivity"),
    (0, 1.0, "wall_reflectivity"),
    (0, -1.0, "wall_reflectivity"),
    (1, 1.0, "wall_reflectivity"),
    (1, -1.0, "wall_reflectivity"),
)
_NORMALS = np.array([s * np.eye(3)[k] for k, s, _ in _FACES])
_NORMALS.flags.writeable = False
# an AP's boresight; it and the face normals are unit vectors as they stand
_DOWN = np.array([0.0, 0.0, -1.0])
_DOWN.flags.writeable = False


class UnservableLinkError(ValueError):
    """A steering target lies outside the transmitter's steering cone."""


def _check_size(count, what: str) -> None:
    if not count <= _MAX_CELLS:
        raise ValueError(f"{count:.4g} {what}, more than {_MAX_CELLS}")


def _face_offsets(room: RoomConfig) -> tuple[float, ...]:
    """Where each face of the table lies along the axis it lies across."""
    extent = (room.width_m, room.length_m, room.height_m)
    return tuple(0.0 if s > 0 else extent[k] for k, s, _ in _FACES)


def _inward_axis(position, room: RoomConfig) -> np.ndarray:
    """Boresight of a wall node: the inward normal of its nearest face, walls
    first on a tie."""
    p, offset = [float(c) for c in position], _face_offsets(room)
    nearest = min((2, 3, 4, 5, 0, 1), key=lambda i: _FACES[i][1] * (p[_FACES[i][0]] - offset[i]))
    return _NORMALS[nearest]


def pointing(entry: ApConfig | RelayConfig | UserConfig, room: RoomConfig) -> np.ndarray:
    """Unit boresight of a terminal: an AP points straight down, a user
    along its elevation and azimuth, and a relay's source and detector share
    its ``axis``, or face away from the nearest room face.  The array may be
    a shared read-only constant."""
    if isinstance(entry, ApConfig):
        return _DOWN
    if isinstance(entry, UserConfig):
        el = math.radians(entry.elevation_deg)
        az = math.radians(entry.azimuth_deg)
        v = (math.cos(el) * math.cos(az), math.cos(el) * math.sin(az), math.sin(el))
    elif entry.axis is None:
        return _inward_axis(entry.position_m, room)
    else:
        v = entry.axis
    a = np.asarray(v, dtype=float)
    return a / np.linalg.norm(a)


def _in_cone(tx: ApConfig | RelayConfig, angle: float) -> bool:
    return angle <= math.radians(tx.max_steering_deg) + 1e-12


def _aim(tx_pos: np.ndarray, boresight: np.ndarray, target: np.ndarray):
    """A beam from ``tx_pos`` steered at ``target``: the offset, its length,
    the unit beam direction and its angle from the unit ``boresight``."""
    rel = target - tx_pos
    length = float(np.linalg.norm(rel))
    if length == 0.0:
        raise ValueError("steering target coincides with the transmitter")
    beam = rel / length
    return rel, length, beam, math.acos(min(1.0, max(-1.0, float(np.dot(beam, boresight)))))


def can_serve(tx: ApConfig | RelayConfig, target, room: RoomConfig) -> bool:
    """Whether the point ``target`` lies inside the steering cone of ``tx``."""
    tx_pos = np.asarray(tx.position_m, dtype=float)
    return _in_cone(tx, _aim(tx_pos, pointing(tx, room), np.asarray(target, dtype=float))[3])


@dataclass(frozen=True, eq=False)
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


@dataclass(frozen=True, eq=False)
class Receiver:
    """A detector as every response into it sees it: its position and unit
    boresight, ``(3,)`` arrays, the cosine of its field of view, its
    aperture area in m^2 and, when built with a grid, the tiles of the grid
    it sees.

    ``ends`` are the far ends of the diffuse legs from a first-bounce hit
    point, one kernel call's worth: the detector, then each tile it sees,
    as centre and normal columns, areas, and the cosine each one's
    incidence must reach, its field of view for the detector and 0 for a
    tile."""

    position: np.ndarray
    normal: np.ndarray
    cos_fov: float
    area: float
    tiles: VisibleTiles | None
    ends: tuple


@dataclass(frozen=True, eq=False)
class SurfaceGrid:
    """Element arrays for the six room faces: centre and normal columns,
    ``(3, elements)``, and one area and reflectivity per element."""

    centers: np.ndarray
    normals: np.ndarray
    areas: np.ndarray
    reflectivities: np.ndarray


def receiver_view(
    rx: RelayConfig | UserConfig, room: RoomConfig, grid: SurfaceGrid | None = None
) -> Receiver:
    """The view of ``rx`` that responses into it share.  Given a grid, it
    holds the tiles with a non-zero :func:`lambertian_gain` to the detector,
    as sources of the room's ``lambertian_mode``, appended to its ends;
    every other tile adds nothing to a path ending there.  The tiles'
    centres, normals and areas are views of those ends."""
    position = np.asarray(rx.position_m, dtype=float)
    normal = pointing(rx, room)
    cos_fov = math.cos(math.radians(rx.fov_deg))
    area = rx.area_cm2 * 1e-4
    ends = (position.reshape(3, 1), normal.reshape(3, 1), area, cos_fov)
    if grid is None:
        return Receiver(position, normal, cos_fov, area, None, ends)
    gain, dist = lambertian_gain(
        grid.centers, grid.normals, room.lambertian_mode, position, normal, area, cos_fov
    )
    seen = np.flatnonzero(gain)
    ends = (
        np.hstack((ends[0], grid.centers.take(seen, axis=1))),
        np.hstack((ends[1], grid.normals.take(seen, axis=1))),
        np.hstack((area, grid.areas[seen])),
        np.hstack((cos_fov, np.zeros(seen.size))),
    )
    tiles = VisibleTiles(
        centers=ends[0][:, 1:],
        normals=ends[1][:, 1:],
        areas=ends[2][1:],
        reflectivities=grid.reflectivities[seen],
        gains=gain[seen],
        distances=dist[seen],
    )
    return Receiver(position, normal, cos_fov, area, tiles, ends)


def _face_layout(room: RoomConfig):
    """(origin, u axis, u extent, v axis, v extent, normal, reflectivity)
    for each face of the table; its tiles run along the other two axes in
    increasing order."""
    extent = (room.width_m, room.length_m, room.height_m)
    unit = np.eye(3)
    layout = []
    for (k, _, rho), offset, normal in zip(_FACES, _face_offsets(room), _NORMALS):
        u, v = (a for a in range(3) if a != k)
        layout.append(
            (offset * unit[k], unit[u], extent[u], unit[v], extent[v], normal, getattr(room, rho))
        )
    return layout


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


def _direct(tx: ApConfig | RelayConfig, tx_pos: np.ndarray, boresight: np.ndarray, rx: Receiver):
    """The steering check and line of sight of one link: its LOS gain, the
    unit beam direction and the link's length."""
    rel, d, beam, angle = _aim(tx_pos, boresight, rx.position)
    if not _in_cone(tx, angle):
        raise UnservableLinkError(
            f"target needs {math.degrees(angle):.2f} deg "
            f"of steering, limit is {tx.max_steering_deg:.2f} deg"
        )
    cos_in = float(np.dot(rx.normal, -beam))
    if cos_in < rx.cos_fov:
        return 0.0, beam, d
    spot_radius = float(np.dot(rel, beam)) * math.tan(tx.divergence_mrad * 1e-3)
    aperture_radius = math.sqrt(rx.area / math.pi)
    aperture_area = math.pi * aperture_radius * aperture_radius
    capture = min(1.0, aperture_area / (math.pi * spot_radius * spot_radius))
    return capture * cos_in, beam, d


def lambertian_gain(src, src_normal, mode: float, dst, dst_normal, dst_area, cos_fov: float = 0.0):
    """Transfer from Lambertian point sources of cosine order ``mode`` to
    small flat patches: ``(mode + 1) / (2 pi d^2) cos_e^mode cos_i area``.

    Positions and normals are columns, x, y and z along the first axis:
    shape ``(3,)`` for one point or ``(3, N)`` for N, and either end may be
    a single point.  A pair gets exactly zero unless both ends face each
    other and the incidence cosine reaches ``cos_fov`` (0 for room surfaces,
    ``cos(fov)`` for a detector).  Returns ``(gain, distance)``, one entry
    per pair, 1-D even for a single pair.  ``cos_fov`` and ``dst_area``
    may also hold one entry per pair.

    The kernel works in place on the x, y and z rows of its ends, a single
    point's rows being scalars, and zeroes the pairs that do not see each
    other in one selection at the end.
    """
    columns = [np.asarray(a, dtype=float) for a in (src, src_normal, dst, dst_normal)]
    for a in columns:
        if a.ndim not in (1, 2) or a.shape[0] != 3:
            raise ValueError(f"expected x, y, z along the first axis, got shape {a.shape}")
    (sx, sy, sz), (snx, sny, snz), (x, y, z), (nx, ny, nz) = (
        columns[0], columns[1], columns[2].reshape(3, -1), columns[3],
    )
    dx, dy, dz = x - sx, y - sy, z - sz
    # each 3-term dot product adds x and z first, then y: the order numpy's
    # einsum takes over C-ordered (N, 3) rows, which gave the recorded gains;
    # summed in x, y, z order, some distances differ in their last bit
    dist2 = dx * dx
    term = dz * dz
    dist2 += term
    dist2 += np.multiply(dy, dy, out=term)
    ok = dist2 > 0.0
    safe2 = np.where(ok, dist2, 1.0)
    dist = np.sqrt(safe2)
    dx /= dist
    dy /= dist
    dz /= dist
    cos_e = dx * snx
    cos_e += np.multiply(dz, snz, out=term)
    cos_e += np.multiply(dy, sny, out=term)
    cos_i = dx * nx
    cos_i += np.multiply(dz, nz, out=term)
    cos_i += np.multiply(dy, ny, out=term)
    np.negative(cos_i, out=cos_i)
    vis = cos_e > 0.0
    vis &= ok
    vis &= cos_i > 0.0
    vis &= cos_i >= cos_fov
    np.maximum(cos_e, 0.0, out=cos_e)
    gain = np.multiply(2.0 * math.pi, safe2, out=safe2)
    np.divide(mode + 1, gain, out=gain)
    gain *= cos_e ** mode
    gain *= cos_i
    gain *= dst_area
    return np.where(vis, gain, 0.0), dist


def _first_bounce(room: RoomConfig, origin: np.ndarray, direction: np.ndarray):
    """The first point where a ray from inside the room meets a face, with
    that face's inward normal and reflectivity; the earlier face in the
    table wins a tie."""
    o, u = origin.tolist(), direction.tolist()
    best_t, best = math.inf, None
    for i, ((k, s, _), offset) in enumerate(zip(_FACES, _face_offsets(room))):
        along = s * u[k]
        if abs(along) < 1e-300:
            continue
        t = s * (offset - o[k]) / along
        if 1e-9 < t < best_t:
            best_t, best = t, i
    if best is None:
        raise ValueError("beam direction never leaves the room")
    return origin + best_t * direction, _NORMALS[best], getattr(room, _FACES[best][2])


def _bin(path_gains: np.ndarray, path_lengths: np.ndarray, bin_duration: float) -> np.ndarray:
    """Path gains summed into bins ``bin_duration`` seconds wide by the
    rounded delay of each path."""
    bins = np.rint(path_lengths / SPEED_OF_LIGHT / bin_duration).astype(int)
    # an empty bincount comes back as integers
    return np.bincount(bins, weights=path_gains).astype(float, copy=False)


@dataclass(frozen=True, eq=False)
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
    view: Receiver | None = None,
) -> ChannelImpulseResponse:
    """Unobstructed impulse response of one steered link under the
    scenario's channel section, binned at ``channel.bin_ns`` when its gains
    are first read.  A bin count too large to allocate is refused here, not
    at that read.

    The first bounce re-radiates from the point where the beam leaves the
    room; second-order paths go through the tiles held by ``view``, the
    :func:`receiver_view` of ``rx``.  A response given no view builds its
    own, tiled at ``channel.second_bounce_res_m`` only when the aperture
    misses part of the beam and ``channel.max_bounces`` is 2; a given view
    must hold tiles exactly then, or a ``ValueError`` is raised.

    Raises :class:`UnservableLinkError` when the receiver is outside the
    transmitter's steering cone.
    """
    if view is None:
        view = receiver_view(rx, room)
    elif (view.tiles is not None) != (channel.max_bounces >= 2):
        raise ValueError("a receiver view holds tiles exactly when max_bounces is 2")
    tx_pos = np.asarray(tx.position_m, dtype=float)
    los, beam, length = _direct(tx, tx_pos, pointing(tx, room), view)

    # every path as (gain, length), stacked at the end
    path_gains: list = []
    path_lengths: list = []
    if los > 0.0:
        path_gains.append(los)
        path_lengths.append(length)

    first = 0.0
    second = 0.0
    residue = 1.0 - los
    if channel.max_bounces >= 1 and residue > 0.0:
        if channel.max_bounces >= 2 and view.tiles is None:
            view = receiver_view(rx, room, discretize_surfaces(room, channel.second_bounce_res_m))
        hit, hit_normal, hit_rho = _first_bounce(room, tx_pos, beam)
        d0 = float(np.linalg.norm(hit - tx_pos))
        # one kernel call: the hit point to the detector, then to each tile it sees
        gain, dist = lambertian_gain(hit, hit_normal, room.lambertian_mode, *view.ends)
        first = residue * hit_rho * float(gain[0])
        if first > 0.0:
            path_gains.append(first)
            path_lengths.append(d0 + dist[:1])

        tiles = view.tiles
        if tiles is not None:
            to_patch, d_ep = gain[1:], dist[1:]
            live = to_patch > 0.0
            contrib = residue * hit_rho * to_patch[live]
            contrib *= tiles.reflectivities[live]
            contrib *= tiles.gains[live]
            second = float(np.sum(contrib))
            via_patch = d0 + d_ep[live]
            via_patch += tiles.distances[live]
            path_gains.append(contrib)
            path_lengths.append(via_patch)

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
