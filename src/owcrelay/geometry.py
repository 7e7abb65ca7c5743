"""Geometry of the cylindrical blocker model: the one place that decides
which pedestrian positions cut which link.

A standing person is modelled as a vertical solid cylinder resting on the
floor, with the ``height_m`` and ``radius_m`` of the scenario's walker
section (:class:`owcrelay.scenario.HumanConfig`).  For a fixed link the
set of floor positions of the cylinder axis that break the link is a stadium
shape (a segment inflated by the cylinder radius), obtained by clipping the
link to the height band the cylinder can reach and projecting the surviving
piece onto the floor.  The stadium is not
cut at the walls: where the pedestrian can stand belongs to the mobility law
(:mod:`owcrelay.mobility`), whose density is zero off the floor and whose
sampler never leaves it.

:func:`blocked_region` clips one link, given by its two ``(x, y, z)`` ends,
with the z-band clip, and returns the empty region when the room holds no
pedestrian (``human.count == 0``);
:meth:`StadiumRegion.contains`, :func:`regions_contain`,
:meth:`StadiumRegion.signed_distance`, :class:`FloorCells` and the
region integral of :mod:`owcrelay.mobility` all measure from the clipped spine
through one point-to-spine offset kernel, and every exact membership answer
comes from one comparison, :func:`_covers`.
:class:`FloorCells` tiles the floor of a room at a cell size it takes from
the walker's radius and decides whole cells at once where no region
boundary comes near them.  It keeps each cell's regions packed into 64-bit
words, the one bit layout of this module's packing helpers, in which
:mod:`owcrelay.outage` also packs link states.  That engine numbers the
cells' states, and tests a point of any other cell with :func:`_covers`
against that cell's undecided regions only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from owcrelay.scenario import HumanConfig, RoomConfig

__all__ = [
    "Rect",
    "StadiumRegion",
    "regions_contain",
    "FloorCells",
    "blocked_region",
]


@dataclass(frozen=True)
class Rect:
    """Closed axis-aligned rectangle on the floor plane."""

    x0: float
    y0: float
    x1: float
    y1: float

    def __post_init__(self):
        if not (self.x0 <= self.x1 and self.y0 <= self.y1):
            raise ValueError(f"empty rectangle bounds {self!r}")


def _clip_to_band(a: np.ndarray, b: np.ndarray, height: float):
    """Floor projection (p0, p1) of the part of segment a-b with
    0 <= z <= height, or None when the segment never enters the band.
    ``a`` and ``b`` are 3-vectors."""
    az = a[2]
    dz = b[2] - az
    if dz == 0.0:
        if not 0.0 <= az <= height:
            return None
        lo, hi = 0.0, 1.0
    else:
        t0 = (0.0 - az) / dz
        t1 = (height - az) / dz
        lo = max(min(t0, t1), 0.0)
        hi = min(max(t0, t1), 1.0)
        if lo > hi:
            return None
    dxy = b[:2] - a[:2]
    return a[:2] + lo * dxy, a[:2] + hi * dxy


def _spine_offset(px, py, p0x, p0y, wx, wy):
    """Offset (ox, oy) from each point (px, py) to its closest point on the
    spine p0 + t w, t in [0, 1].  All arguments broadcast; a zero-length
    spine (ww == 0) takes t = 0."""
    dx = px - p0x
    dy = py - p0y
    ww = wx * wx + wy * wy
    with np.errstate(divide="ignore", invalid="ignore"):
        t = np.clip((dx * wx + dy * wy) / ww, 0.0, 1.0)
    t = np.where(ww > 0.0, t, 0.0)
    return dx - t * wx, dy - t * wy


class StadiumRegion:
    """Floor positions of the cylinder axis that block a given link.

    Membership is ``distance(point, spine) <= radius``, off the floor too.
    An empty region (link entirely above the cylinder, or no pedestrian in
    the room) contains nothing.
    """

    def __init__(self, spine_p0, spine_p1, radius: float, empty: bool = False):
        if radius < 0:
            raise ValueError(f"region radius must be >= 0, got {radius}")
        self.empty = bool(empty)
        self.radius = float(radius)
        if self.empty:
            self.p0 = None
            self.p1 = None
        else:
            self.p0 = np.asarray(spine_p0, dtype=float)
            self.p1 = np.asarray(spine_p1, dtype=float)

    @classmethod
    def empty_region(cls) -> "StadiumRegion":
        return cls(None, None, 0.0, empty=True)

    def contains(self, points) -> np.ndarray | bool:
        out = regions_contain((self,), points)[0]
        return bool(out[0]) if np.ndim(points) == 1 else out

    def signed_distance(self, points):
        """Distance to the stadium boundary, negative inside, with the unit
        outward gradient."""
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        if self.empty:
            sd = np.full(pts.shape[0], np.inf)
            grad = np.zeros((pts.shape[0], 2))
            grad[:, 0] = 1.0
            return sd, grad
        p0x, p0y, wx, wy, radius = _spine(self)
        ox, oy = _spine_offset(pts[:, 0], pts[:, 1], p0x, p0y, wx, wy)
        dist = np.hypot(ox, oy)
        return dist - radius, np.column_stack(_outward(ox, oy, dist))

    def bbox(self) -> Rect | None:
        """Bounding box of the stadium, or None when it is empty."""
        if self.empty:
            return None
        r = self.radius
        return Rect(
            min(self.p0[0], self.p1[0]) - r,
            min(self.p0[1], self.p1[1]) - r,
            max(self.p0[0], self.p1[0]) + r,
            max(self.p0[1], self.p1[1]) + r,
        )


def _spine(region: StadiumRegion) -> tuple:
    """(p0x, p0y, wx, wy, radius) of a non-empty region: its spine is
    p0 + t w, t in [0, 1]."""
    wx, wy = region.p1 - region.p0
    return region.p0[0], region.p0[1], wx, wy, region.radius


def _outward(ox, oy, dist):
    """Unit outward gradient of the distance to a spine, from the offset
    (ox, oy) of length ``dist`` to the closest spine point; (1, 0) on the
    spine itself."""
    pos = dist > 0.0
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(pos, ox / dist, 1.0), np.where(pos, oy / dist, 0.0)


def _covers(x, y, p0x, p0y, wx, wy, radius) -> np.ndarray:
    """The exact membership test: squared distance from (x, y) to the spine
    at most radius squared.  All arguments broadcast, so one call can test
    each point against its own region."""
    ox, oy = _spine_offset(x, y, p0x, p0y, wx, wy)
    return ox * ox + oy * oy <= radius * radius


def regions_contain(regions, points) -> np.ndarray:
    """Membership of floor points in stadium regions, boolean (len(regions),
    n): row j is ``regions[j].contains(points)``.  One spine-offset pass per
    region over contiguous x and y columns."""
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    x = np.ascontiguousarray(pts[:, 0])
    y = np.ascontiguousarray(pts[:, 1])
    out = np.zeros((len(regions), x.size), dtype=bool)
    for j, region in enumerate(regions):
        if not region.empty:
            out[j] = _covers(x, y, *_spine(region))
    return out


# Boolean rows, such as a link state or a cell's regions, are packed by
# ``np.packbits`` into whole 64-bit words, at least one a row, zero-padded.


def _zero_words(n: int, columns: int) -> np.ndarray:
    return np.zeros((n, max(1, -(-columns // 64))), dtype=np.uint64)


def _pack_rows(rows: np.ndarray, words: np.ndarray) -> None:
    """Pack the boolean ``rows`` into ``words`` from :func:`_zero_words`."""
    packed = np.packbits(rows, axis=1)
    words.view(np.uint8)[:, : packed.shape[1]] = packed


def _unpack_rows(words: np.ndarray, columns: int) -> np.ndarray:
    """The boolean rows, of ``columns`` booleans, packed in ``words``."""
    return np.unpackbits(words.view(np.uint8), axis=1, count=columns).view(bool)


# Slack of the cell classification beyond half a cell diagonal: rounding in
# a cell lookup or a centre distance is far below it, so a point of a
# decided cell is never near enough a boundary for its exact test to differ.
_CELL_MARGIN = 1e-9

_CELLS_PER_RADIUS = 6
_MAX_CELLS = 2**16


class FloorCells:
    """The floor of ``room`` tiled by square cells of side ``size``, a sixth
    of the walker's radius or larger where that would make more than 2^16
    cells, each classified against every region by the distance d from its
    centre to the region's spine.

    With half-diagonal hd, a cell lies inside a region where
    d <= radius - hd - 1e-9 m and outside it where d >= radius + hd + 1e-9 m;
    otherwise the pair is undecided.  Only the cells within two cells of a
    region's bounding box are measured; every other cell is farther than
    radius + hd from the spine.  ``words`` holds each cell's row of the
    regions it lies inside, packed by :func:`_pack_rows`; the undecided
    regions of cell c are ``near[start[c]:start[c + 1]]``, and ``decided``
    marks the cells with none.  The cells decide membership only; numbering
    their link states is the outage engine's.  Cell c covers column
    ``c % nx`` and row ``c // nx``.
    """

    def __init__(self, regions, room: RoomConfig, human: HumanConfig):
        width, length = room.width_m, room.length_m
        size = max(human.radius_m / _CELLS_PER_RADIUS, math.sqrt(width * length / _MAX_CELLS))
        self.size = size
        self.nx = math.ceil(width / size)
        self.ny = math.ceil(length / size)
        half = size * math.sqrt(0.5)
        # (5, regions): one column of spine parameters per region, zero
        # where the region is empty and so never undecided
        self.spines = np.zeros((5, len(regions)))
        inside = np.zeros((self.count, len(regions)), dtype=bool)
        undecided = np.zeros_like(inside)
        for j, region in enumerate(regions):
            if region.empty:
                continue
            self.spines[:, j] = _spine(region)
            p0x, p0y, wx, wy, r = self.spines[:, j]
            box = region.bbox()
            ix, iy = (
                np.arange(max(math.floor(lo / size) - 2, 0), min(math.ceil(hi / size) + 2, n))
                for lo, hi, n in ((box.x0, box.x1, self.nx), (box.y0, box.y1, self.ny))
            )
            cell = (iy[:, None] * self.nx + ix).ravel()
            cx, cy = (ix + 0.5) * size, (iy[:, None] + 0.5) * size
            d = np.hypot(*_spine_offset(cx, cy, p0x, p0y, wx, wy)).ravel()
            inner = d <= r - half - _CELL_MARGIN
            inside[cell[inner], j] = True
            undecided[cell[~inner & (d < r + half + _CELL_MARGIN)], j] = True
        self.words = _zero_words(self.count, len(regions))
        _pack_rows(inside, self.words)
        pair_cell, self.near = np.nonzero(undecided)
        self.start = np.searchsorted(pair_cell, np.arange(self.count + 1))
        self.decided = self.start[1:] == self.start[:-1]

    @property
    def count(self) -> int:
        return self.nx * self.ny

    def cell_of(self, x, y) -> np.ndarray:
        """Cell index of each floor point; x = width and y = length fall in
        the last column and row."""
        ix = np.minimum((x / self.size).astype(np.intp), self.nx - 1)
        iy = np.minimum((y / self.size).astype(np.intp), self.ny - 1)
        return iy * self.nx + ix


def blocked_region(a, b, human: HumanConfig) -> StadiumRegion:
    """Stadium region of blocker positions for the link between the
    ``(x, y, z)`` points ``a`` and ``b``, in meters in the room frame."""
    if human.count == 0:  # no pedestrian: nothing blocks
        return StadiumRegion.empty_region()
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    spine = _clip_to_band(a, b, human.height_m)
    if spine is None:
        return StadiumRegion.empty_region()
    return StadiumRegion(*spine, human.radius_m)
