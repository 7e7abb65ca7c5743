"""Stationary blocker position statistics under random waypoint motion.

A single pedestrian moves between uniformly drawn waypoints on the floor
rectangle ``[0, width_m] x [0, length_m]`` of the scenario's room section
(:class:`owcrelay.scenario.RoomConfig`), whose corner is the origin.
Observed at a random instant, each coordinate of the position follows the
classical parabolic stationary density, and the two coordinates are
independent, so the plane density is the product of two parabolas.  The
blocking probability of a link is the integral of that density over the
link's stadium region.  The floor's width and length, read from the room,
are the law's only parameters.
"""

from __future__ import annotations

import functools

import numpy as np

from owcrelay.geometry import Rect
from owcrelay.quadrature import integrate_region
from owcrelay.scenario import RoomConfig

__all__ = [
    "pdf_xy",
    "cell_mass",
    "peak_density",
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


def pdf_xy(room: RoomConfig, x, y) -> np.ndarray:
    """Stationary density at the points (x, y), zero off the floor."""
    return _axis_pdf(x, room.width_m) * _axis_pdf(y, room.length_m)


def cell_mass(room: RoomConfig, x, y, hx, hy) -> np.ndarray:
    """Probability of the floor cells [x - hx, x + hx] x [y - hy, y + hy],
    exactly: the 2x2 Gauss rule gives the same for this density."""
    return _axis_mass(x, hx, room.width_m) * _axis_mass(y, hy, room.length_m)


def peak_density(room: RoomConfig) -> float:
    """The density at the floor's centre, where both parabolas peak:
    (3/2L)^2 scaled by 1/L."""
    return 2.25 / (room.width_m * room.length_m)


def region_probabilities(regions, room: RoomConfig, rel_tol: float = 1e-4) -> np.ndarray:
    """Probability mass of each stadium region under the stationary density,
    integrated over the part of the region on the floor; all regions in one
    quadrature pass."""
    return integrate_region(
        regions,
        Rect(0.0, 0.0, room.width_m, room.length_m),
        functools.partial(pdf_xy, room),
        functools.partial(cell_mass, room),
        rel_tol=rel_tol,
    )


def sample_human_positions(room: RoomConfig, n: int, rng) -> np.ndarray:
    """Draw ``n`` stationary positions by rejection against a uniform
    envelope at the peak density.  The result has shape (n, 2) and is the
    transpose of a (2, n) array, so each coordinate column is contiguous.

    ``rng`` is a seed or a numpy Generator.  The chunked draw pattern is
    fixed, so a given generator state always yields the same output.
    Candidates lie on the floor, where the density is the product of the two
    parabolas, so the sampler skips the clamps of :func:`pdf_xy`.
    """
    if n < 0:
        raise ValueError("sample count must be non-negative")
    gen = np.random.default_rng(rng)
    lx, ly = room.width_m, room.length_m
    peak = peak_density(room)
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
        u *= peak
        keep = np.flatnonzero(u <= _parabola(xs - lx / 2.0, lx) * _parabola(ys - ly / 2.0, ly))
        keep = keep[: n - filled]
        np.take(xs, keep, out=out[0, filled : filled + keep.size])
        np.take(ys, keep, out=out[1, filled : filled + keep.size])
        filled += keep.size
    return out.T
