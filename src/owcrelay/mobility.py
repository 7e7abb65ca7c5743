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

from owcrelay.geometry import Rect
from owcrelay.quadrature import integrate_region

__all__ = [
    "RwpDistribution",
    "walker_law",
    "region_probabilities",
    "sample_human_positions",
]

# Candidate rows per draw; the output depends only on the generator's
# stream, not on this size.
_SAMPLE_CHUNK = 8192


def _axis_pdf(coord, extent: float) -> np.ndarray:
    """Marginal density 6/L^3 * (L^2/4 - s^2), s centred on the axis."""
    s = np.asarray(coord, dtype=float) - extent / 2.0
    val = (6.0 / extent**3) * (extent**2 / 4.0 - s * s)
    return np.where(np.abs(s) <= extent / 2.0, np.maximum(val, 0.0), 0.0)


def _axis_mass(coord, half, extent: float) -> np.ndarray:
    """Integral of the axis density over [coord - half, coord + half], an
    interval on the axis: 2 half * 6/L^3 * (L^2/4 - s^2 - half^2/3)."""
    s = coord - extent / 2.0
    return (12.0 / extent**3) * half * (extent**2 / 4.0 - s * s - half * half / 3.0)


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

    def cell_mass(self, x, y, hx, hy) -> np.ndarray:
        """Probability of the floor cells [x - hx, x + hx] x [y - hy, y + hy],
        exactly: the 2x2 Gauss rule gives the same for this density."""
        return _axis_mass(x, hx, self.x_extent) * _axis_mass(y, hy, self.y_extent)


def walker_law(scenario) -> RwpDistribution:
    """Stationary position law of the scenario's pedestrian on its floor."""
    return RwpDistribution(x_extent=scenario.room.width_m, y_extent=scenario.room.length_m)


def region_probabilities(regions, dist: RwpDistribution, rel_tol: float = 1e-4) -> np.ndarray:
    """Probability mass of each stadium region under the stationary density,
    integrated over the part of the region on the floor; all regions in one
    quadrature pass."""
    return integrate_region(regions, dist.floor_rect, dist.pdf_xy, dist.cell_mass, rel_tol=rel_tol)


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

