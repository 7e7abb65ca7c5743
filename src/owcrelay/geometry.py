"""Geometry of the cylindrical blocker model: the one place that decides
which pedestrian positions cut which link.

A standing person is modelled as a vertical solid cylinder resting on the
floor.  For a fixed link the set of floor positions of the cylinder axis that
break the link is a stadium shape (a segment inflated by the cylinder
radius), obtained by clipping the link to the height band the cylinder can
reach and projecting the surviving piece onto the floor.  The stadium is not
cut at the walls: where the pedestrian can stand belongs to the mobility law
(:mod:`owcrelay.mobility`), whose density is zero off the floor and whose
sampler never leaves it.

:func:`blocked_region` clips one link with the z-band clip;
:meth:`StadiumRegion.contains`, :func:`regions_contain` and
:meth:`StadiumRegion.signed_distance` all measure from the clipped spine
through one point-to-spine offset kernel.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "Point3",
    "CylinderSpec",
    "Rect",
    "StadiumRegion",
    "regions_contain",
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

    def distance_to(self, other: "Point3") -> float:
        return math.dist((self.x, self.y, self.z), (other.x, other.y, other.z))


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
        wx, wy = self.p1 - self.p0
        ox, oy = _spine_offset(pts[:, 0], pts[:, 1], self.p0[0], self.p0[1], wx, wy)
        dist = np.hypot(ox, oy)
        pos = dist > 0.0
        with np.errstate(divide="ignore", invalid="ignore"):
            grad = np.column_stack([np.where(pos, ox / dist, 1.0), np.where(pos, oy / dist, 0.0)])
        return dist - self.radius, grad

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


def regions_contain(regions, points) -> np.ndarray:
    """Membership of floor points in stadium regions, boolean (len(regions),
    n): row j is ``regions[j].contains(points)``.  One spine-offset pass per
    region over contiguous x and y columns."""
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    x = np.ascontiguousarray(pts[:, 0])
    y = np.ascontiguousarray(pts[:, 1])
    out = np.zeros((len(regions), x.size), dtype=bool)
    for j, region in enumerate(regions):
        if region.empty:
            continue
        wx, wy = region.p1 - region.p0
        ox, oy = _spine_offset(x, y, region.p0[0], region.p0[1], wx, wy)
        out[j] = ox * ox + oy * oy <= region.radius * region.radius
    return out


def blocked_region(a: Point3, b: Point3, cyl: CylinderSpec) -> StadiumRegion:
    """Stadium region of blocker positions for the link from ``a`` to ``b``."""
    p0, p1, valid = _clip_to_band(a.as_array()[None], b.as_array()[None], cyl.height)
    if not valid[0]:
        return StadiumRegion.empty_region()
    return StadiumRegion(p0[0], p1[0], cyl.radius)
