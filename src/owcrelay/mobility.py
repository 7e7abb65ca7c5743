"""Stationary blocker position statistics under random waypoint motion.

A single pedestrian moves between uniformly drawn waypoints on the floor
rectangle.  Observed at a random instant, each coordinate of the position
follows the classical parabolic stationary density, and the two coordinates
are independent, so the plane density is the product of two parabolas.  The
blocking probability of a link is the integral of that density over the
link's stadium region.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from owcrelay.geometry import Rect, StadiumRegion
from owcrelay.quadrature import integrate_region

__all__ = [
    "RwpDistribution",
    "region_probability",
    "sample_human_positions",
]

_SAMPLE_CHUNK = 65536


def _axis_pdf(coord, extent: float) -> np.ndarray:
    """Marginal density 6/L^3 * (L^2/4 - s^2), s centred on the axis."""
    s = np.asarray(coord, dtype=float) - extent / 2.0
    val = (6.0 / extent**3) * (extent**2 / 4.0 - s * s)
    return np.where(np.abs(s) <= extent / 2.0, np.maximum(val, 0.0), 0.0)


@dataclass(frozen=True)
class RwpDistribution:
    """Product-form stationary density on the floor rectangle
    ``[0, x_extent] x [0, y_extent]`` of the corner-origin room frame."""

    x_extent: float = 4.0
    y_extent: float = 8.0

    def __post_init__(self):
        if self.x_extent <= 0 or self.y_extent <= 0:
            raise ValueError("floor extents must be positive")

    @property
    def floor_rect(self) -> Rect:
        return Rect(0.0, 0.0, self.x_extent, self.y_extent)

    @property
    def peak_density(self) -> float:
        # both parabolas peak at the centre: (3/2L)^2 scaled by 1/L
        return 2.25 / (self.x_extent * self.y_extent)

    @property
    def variances(self) -> tuple[float, float]:
        """Per-axis variance of the stationary position, L^2/20."""
        return (self.x_extent**2 / 20.0, self.y_extent**2 / 20.0)

    def pdf(self, points) -> np.ndarray:
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        return self.pdf_xy(pts[:, 0], pts[:, 1])

    def pdf_xy(self, x, y) -> np.ndarray:
        return _axis_pdf(x, self.x_extent) * _axis_pdf(y, self.y_extent)


def region_probability(
    region: StadiumRegion, dist: RwpDistribution, rel_tol: float = 1e-4
) -> float:
    """Probability mass of one stadium region under the stationary density."""
    if region.is_empty or region.radius == 0.0:
        return 0.0
    box = region.bbox()
    if box is None:
        return 0.0
    box = box.intersect(dist.floor_rect)
    if box is None:
        return 0.0
    return integrate_region(
        region.signed_distance,
        dist.pdf,
        (box.x0, box.y0, box.x1, box.y1),
        rel_tol=rel_tol,
        cut_scale=region.radius / 4.0,
    )


def sample_human_positions(dist: RwpDistribution, n: int, rng) -> np.ndarray:
    """Draw ``n`` stationary positions, shape (n, 2), by rejection against a
    uniform envelope at the peak density.

    ``rng`` is a seed or a numpy Generator.  The chunked draw pattern is
    fixed, so a given generator state always yields the same output.
    """
    if n < 0:
        raise ValueError("sample count must be non-negative")
    gen = np.random.default_rng(rng)
    peak = dist.peak_density
    out = np.empty((n, 2))
    filled = 0
    while filled < n:
        draw = gen.random((_SAMPLE_CHUNK, 3))
        xs = dist.x_extent * draw[:, 0]
        ys = dist.y_extent * draw[:, 1]
        keep = draw[:, 2] * peak <= dist.pdf_xy(xs, ys)
        kx = xs[keep]
        ky = ys[keep]
        take = min(kx.size, n - filled)
        out[filled : filled + take, 0] = kx[:take]
        out[filled : filled + take, 1] = ky[:take]
        filled += take
    return out

