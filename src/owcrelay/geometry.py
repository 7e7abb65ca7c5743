"""Exact geometry for line-of-sight links and the cylindrical blocker model.

A standing person is modelled as a vertical solid cylinder resting on the
floor.  For a fixed link the set of floor positions of the cylinder axis that
break the link is a stadium shape (a segment inflated by the cylinder
radius), obtained by clipping the link to the height band the cylinder can
reach and projecting the surviving piece onto the floor.

One vectorised z-band clip and one point-to-spine offset kernel do all of
this arithmetic: :func:`blocked_region` clips one link, while
:func:`segments_blocked` (and :func:`segment_intersects_cylinder`, one row of
it) clips many; :meth:`StadiumRegion.contains` and
:meth:`StadiumRegion.signed_distance` measure from the clipped spine.
Membership and the direct predicate therefore agree bit-for-bit by
construction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "Point3",
    "Segment3",
    "CylinderSpec",
    "Rect",
    "StadiumRegion",
    "segment_intersects_cylinder",
    "segments_blocked",
    "blocked_region",
]


@dataclass(frozen=True)
class Point3:
    """A point in the corner-origin room frame, coordinates in meters."""

    x: float
    y: float
    z: float

    def __post_init__(self):
        for name in ("x", "y", "z"):
            v = getattr(self, name)
            if not math.isfinite(v):
                raise ValueError(f"non-finite coordinate {name}={v!r}")

    def as_array(self) -> np.ndarray:
        return np.array([self.x, self.y, self.z], dtype=float)

    def xy(self) -> tuple[float, float]:
        return (self.x, self.y)

    def distance_to(self, other: "Point3") -> float:
        return math.dist((self.x, self.y, self.z), (other.x, other.y, other.z))


@dataclass(frozen=True)
class Segment3:
    """A closed straight segment with distinct endpoints."""

    a: Point3
    b: Point3

    def __post_init__(self):
        if (self.a.x, self.a.y, self.a.z) == (self.b.x, self.b.y, self.b.z):
            raise ValueError("degenerate segment: endpoints coincide")

    def length(self) -> float:
        return self.a.distance_to(self.b)


@dataclass(frozen=True)
class CylinderSpec:
    """Solid vertical cylinder standing on the floor (axis footprint point,
    occupied heights 0..height)."""

    height: float = 1.8
    radius: float = 0.3

    def __post_init__(self):
        if not (self.height > 0 and math.isfinite(self.height)):
            raise ValueError(f"cylinder height must be positive, got {self.height}")
        if not (self.radius > 0 and math.isfinite(self.radius)):
            raise ValueError(f"cylinder radius must be positive, got {self.radius}")


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

    @property
    def width(self) -> float:
        return self.x1 - self.x0

    @property
    def height(self) -> float:
        return self.y1 - self.y0

    @property
    def area(self) -> float:
        return self.width * self.height

    def contains(self, points) -> np.ndarray | bool:
        p = np.asarray(points, dtype=float)
        scalar = p.ndim == 1
        p = np.atleast_2d(p)
        ok = (
            (p[:, 0] >= self.x0)
            & (p[:, 0] <= self.x1)
            & (p[:, 1] >= self.y0)
            & (p[:, 1] <= self.y1)
        )
        return bool(ok[0]) if scalar else ok

    def intersect(self, other: "Rect") -> "Rect | None":
        x0 = max(self.x0, other.x0)
        y0 = max(self.y0, other.y0)
        x1 = min(self.x1, other.x1)
        y1 = min(self.y1, other.y1)
        if x0 > x1 or y0 > y1:
            return None
        return Rect(x0, y0, x1, y1)


def _clip_to_band(a: np.ndarray, b: np.ndarray, height: float):
    """Floor projection of the part of each segment a-b with 0 <= z <= height.

    ``a`` and ``b`` are (N, 3) arrays, or one of them (1, 3).  Returns the spine endpoints p0 and p1
    as (N, 2) arrays and a boolean (N,) that is False where the segment
    never enters the band.
    """
    az = a[:, 2]
    dz = b[:, 2] - az
    flat = dz == 0.0
    with np.errstate(divide="ignore", invalid="ignore"):
        t0 = (0.0 - az) / dz
        t1 = (height - az) / dz
    lo = np.where(flat, 0.0, np.maximum(np.minimum(t0, t1), 0.0))
    hi = np.where(flat, 1.0, np.minimum(np.maximum(t0, t1), 1.0))
    valid = np.where(flat, (az >= 0.0) & (az <= height), lo <= hi)
    dxy = b[:, :2] - a[:, :2]
    return a[:, :2] + lo[:, None] * dxy, a[:, :2] + hi[:, None] * dxy, valid


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


def segments_blocked(a_pts, b_pts, center, cyl: CylinderSpec) -> np.ndarray:
    """Which segments a-b meet the cylinder standing at ``center``.

    ``a_pts`` and ``b_pts`` broadcast to (N, 3); returns a boolean (N,).
    """
    a = np.atleast_2d(np.asarray(a_pts, dtype=float))
    b = np.atleast_2d(np.asarray(b_pts, dtype=float))
    p0, p1, valid = _clip_to_band(a, b, cyl.height)
    w = p1 - p0
    c = np.asarray(center, dtype=float)
    ox, oy = _spine_offset(c[0], c[1], p0[:, 0], p0[:, 1], w[:, 0], w[:, 1])
    return valid & (ox * ox + oy * oy <= cyl.radius * cyl.radius)


def segment_intersects_cylinder(link: Segment3, center, cyl: CylinderSpec) -> bool:
    """True iff the closed segment meets the closed solid cylinder whose
    axis footprint is at ``center`` (floor xy)."""
    return bool(segments_blocked(link.a.as_array(), link.b.as_array(), center, cyl)[0])


class StadiumRegion:
    """Floor positions of the cylinder axis that block a given link.

    Membership is ``distance(point, spine) <= radius`` and point inside the
    clip rectangle.  An empty region (link entirely above the cylinder)
    contains nothing.
    """

    def __init__(self, spine_p0, spine_p1, radius: float, clip: Rect, empty: bool = False):
        if radius < 0:
            raise ValueError(f"region radius must be >= 0, got {radius}")
        self.empty = bool(empty)
        self.radius = float(radius)
        self.clip = clip
        if self.empty:
            self.p0 = None
            self.p1 = None
        else:
            self.p0 = np.asarray(spine_p0, dtype=float)
            self.p1 = np.asarray(spine_p1, dtype=float)

    @classmethod
    def empty_region(cls, clip: Rect) -> "StadiumRegion":
        return cls(None, None, 0.0, clip, empty=True)

    @property
    def is_empty(self) -> bool:
        return self.empty

    def spine_length(self) -> float:
        if self.empty:
            return 0.0
        return float(np.hypot(*(self.p1 - self.p0)))

    def _offset(self, pts: np.ndarray):
        wx, wy = self.p1 - self.p0
        return _spine_offset(pts[:, 0], pts[:, 1], self.p0[0], self.p0[1], wx, wy)

    def contains(self, points) -> np.ndarray | bool:
        pts = np.asarray(points, dtype=float)
        scalar = pts.ndim == 1
        pts = np.atleast_2d(pts)
        if self.empty:
            out = np.zeros(pts.shape[0], dtype=bool)
            return bool(out[0]) if scalar else out
        ox, oy = self._offset(pts)
        out = (ox * ox + oy * oy <= self.radius * self.radius) & self.clip.contains(pts)
        return bool(out[0]) if scalar else out

    def signed_distance(self, points):
        """Distance to the stadium boundary, negative inside, with the unit
        outward gradient.  The clip rectangle is not part of this distance
        field; quadrature restricts its domain to ``bbox()`` instead."""
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        if self.empty:
            sd = np.full(pts.shape[0], np.inf)
            grad = np.zeros((pts.shape[0], 2))
            grad[:, 0] = 1.0
            return sd, grad
        ox, oy = self._offset(pts)
        dist = np.hypot(ox, oy)
        pos = dist > 0.0
        with np.errstate(divide="ignore", invalid="ignore"):
            grad = np.column_stack([np.where(pos, ox / dist, 1.0), np.where(pos, oy / dist, 0.0)])
        return dist - self.radius, grad

    def bbox(self) -> Rect | None:
        """Bounding box of the region intersected with the clip rectangle."""
        if self.empty:
            return None
        r = self.radius
        raw = Rect(
            min(self.p0[0], self.p1[0]) - r,
            min(self.p0[1], self.p1[1]) - r,
            max(self.p0[0], self.p1[0]) + r,
            max(self.p0[1], self.p1[1]) + r,
        )
        return raw.intersect(self.clip)


def blocked_region(link: Segment3, cyl: CylinderSpec, footprint: Rect) -> StadiumRegion:
    """Stadium region of blocker positions for one link, clipped to the
    room footprint."""
    p0, p1, valid = _clip_to_band(link.a.as_array()[None], link.b.as_array()[None], cyl.height)
    if not valid[0]:
        return StadiumRegion.empty_region(footprint)
    return StadiumRegion(p0[0], p1[0], cyl.radius, footprint)

