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


def _parabola(s, extent: float):
    """6/L^3 * (L^2/4 - s^2), the axis density at offset s from the centre
    of the axis for |s| <= L/2."""
    return (6.0 / extent**3) * (extent**2 / 4.0 - s * s)


def _axis_pdf(coord, extent: float) -> np.ndarray:
    """Marginal density: the parabola on the axis, zero off it."""
    s = np.asarray(coord, dtype=float) - extent / 2.0
    return np.where(np.abs(s) <= extent / 2.0, np.maximum(_parabola(s, extent), 0.0), 0.0)


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
    """Draw ``n`` stationary positions by rejection against a uniform
    envelope at the peak density.  The result has shape (n, 2) and is the
    transpose of a (2, n) array, so each coordinate column is contiguous.

    ``rng`` is a seed or a numpy Generator.  The chunked draw pattern is
    fixed, so a given generator state always yields the same output.
    Candidates lie on the floor, where the density is the product of the two
    parabolas, so the sampler skips the clamps of :meth:`RwpDistribution.pdf_xy`.
    """
    if n < 0:
        raise ValueError("sample count must be non-negative")
    gen = np.random.default_rng(rng)
    lx, ly = dist.x_extent, dist.y_extent
    out = np.empty((2, n))
    draw = np.empty((_SAMPLE_CHUNK, 3))
    # the chunk's x, y and acceptance columns, each contiguous
    cols = np.empty((3, _SAMPLE_CHUNK))
    xs, ys, u = cols
    filled = 0
    while filled < n:
        np.copyto(cols.T, gen.random(out=draw))
        xs *= lx
        ys *= ly
        u *= dist.peak_density
        keep = np.flatnonzero(u <= _parabola(xs - lx / 2.0, lx) * _parabola(ys - ly / 2.0, ly))
        keep = keep[: n - filled]
        np.take(xs, keep, out=out[0, filled : filled + keep.size])
        np.take(ys, keep, out=out[1, filled : filled + keep.size])
        filled += keep.size
    return out.T
