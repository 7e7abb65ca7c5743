"""Stationary blocker position statistics under random waypoint motion,
and their integral over the blocking regions.

A single pedestrian moves between uniformly drawn waypoints on the floor
rectangle ``[0, width_m] x [0, length_m]`` of the scenario's room section
(:class:`owcrelay.scenario.RoomConfig`), whose corner is the origin.
Observed at a random instant, each coordinate of the position follows the
classical parabolic stationary density, and the two coordinates are
independent, so the plane density is the product of two parabolas.  The
blocking probability of a link is the integral of that density over the
link's stadium region.  The floor's width and length, read from the room,
are the law's only parameters.

:func:`integrate_region` is that integral, an adaptive quadtree quadrature
over all regions in one level loop.  Each region starts from one root cell,
the part of its bounding box on the floor.  Cells wholly inside the region
take their exact cell mass (:func:`cell_mass`); cells crossing the boundary
are either split further or, once they are small relative to the local
boundary curvature, closed with an exact area fraction for a linear cut
times the density at their centre.

One pass over a level's cells refines every region at once.  The cells stay
grouped by region, so a region's cells are a run and its sums are run sums.
Each region keeps its own cell sizes, convergence history and cell budget,
exactly as if it were integrated alone, and drops out once it settles.
Memory stays bounded: a level's cells are built ``SLICE_CELLS`` at a time
from their parent boundary cells, and a batch of regions holding more than
``SLICE_CELLS`` boundary cells is split into groups of consecutive regions
that are finished one after another.  The slice size sets only how the
per-slice partial sums are grouped, never which cells are evaluated or at
which level a region settles, so every size gives the same integrals
within a unit in the last place.  Its value trades the per-slice Python
work against the process peak; the sweep behind it is at the constant.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

from owcrelay.geometry import _outward, _spine, _spine_offset
from owcrelay.scenario import RoomConfig

__all__ = [
    "QuadratureError",
    "pdf_xy",
    "cell_mass",
    "peak_density",
    "integrate_region",
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


# Convergence is relative to max(|estimate|, _ABS_FLOOR), so a region of
# (near) zero mass still settles.
_ABS_FLOOR = 1e-12

# Cells one region may evaluate over all levels before the integrator gives
# up.
MAX_CELLS = 6_000_000

# Levels one region may refine before the integrator gives up.
_MAX_LEVELS = 48

# Most cells of one level evaluated at once, and most boundary cells a batch
# of regions carries into its next level before it is split; together they
# bound the memory of a large level.  Chosen as the largest size of a sweep
# whose peak RSS of a bare ``owcrelay simulate --method exact`` run on the
# 93-link dense room (perfbench seed 3) stays within 2% of 3,072 cells'.
# Medians of 15 alternating runs on a 2-core Xeon, Python 3.11, numpy 2.4:
# CPU ms of integrate_region on that room and on the default one, its
# tracemalloc peak on that room, and the CLI run's peak RSS:
#
#     cells    dense ms  default ms  tracemalloc MB  CLI peak MiB
#     3,072     155.9      43.6         0.81          35.0
#     4,096     137.8      37.0         1.04          35.0  (-0.1%)
#     6,144     108.1      32.0         1.47          35.4  (+1.0%)
#     7,168     101.5      31.1         1.67          34.9  (-0.4%)
#     8,192     103.9      28.0         1.87          35.8  (+2.1%)
#    12,288      95.5      26.9         2.77          36.2  (+3.4%)
#    16,384      93.5      25.5         3.42          36.5  (+4.3%)
#    32,768      96.5      27.3         6.35          40.4  (+15%)
#
# The CLI peak follows the allocator's layout as much as the size: on dense
# seeds 11 and 27, 8,192 cells stay within 0.5% of 3,072.
SLICE_CELLS = 7 * 2**10

# Child offsets of a cell, in half-sizes of the child: the four quadrants.
_CHILD_X = np.array([-1.0, 1.0, -1.0, 1.0])
_CHILD_Y = np.array([-1.0, -1.0, 1.0, 1.0])


class QuadratureError(ValueError):
    """Raised when refinement stalls; carries the best estimate so far."""

    def __init__(self, message: str, best_estimate: float):
        super().__init__(message)
        self.best_estimate = best_estimate


def _cut_fraction(sd, gx, gy, hx, hy):
    """Fraction of a 2*hx by 2*hy cell on the inside of the boundary.

    The boundary through the cell is replaced by its tangent line
    ``n . q = -sd`` in cell-centred coordinates, with ``n = (gx, gy)`` the
    outward unit gradient.  The inside fraction of that half plane is exact.
    """
    nx = np.abs(gx)
    ny = np.abs(gy)
    swap = nx > ny
    nmax = np.where(swap, nx, ny)
    nmin = np.where(swap, ny, nx)
    hx_ = np.where(swap, hy, hx)
    hy_ = np.where(swap, hx, hy)

    u = -sd / nmax
    a = nmin / nmax

    with np.errstate(divide="ignore", invalid="ignore"):
        x1 = np.clip((u - hy_) / a, -hx_, hx_)
        x2 = np.clip((u + hy_) / a, -hx_, hx_)
        area_gen = (
            2.0 * hy_ * (x1 + hx_)
            + (u + hy_) * (x2 - x1)
            - 0.5 * a * (x2 * x2 - x1 * x1)
        )
    area_flat = 2.0 * hx_ * np.clip(u + hy_, 0.0, 2.0 * hy_)
    area = np.where(a > 0.0, area_gen, area_flat)
    return np.clip(area / (4.0 * hx_ * hy_), 0.0, 1.0)


def _run_sums(values, counts) -> np.ndarray:
    """Sum of each run of ``counts[i]`` consecutive ``values``."""
    out = np.zeros(counts.size)
    if values.size:
        full = counts > 0
        out[full] = np.add.reduceat(values, (np.cumsum(counts) - counts)[full])
    return out


@dataclass
class _Batch:
    """Regions refined together, all at the same level.

    ``x`` and ``y`` are the cells the batch holds, grouped by region in
    batch order: the roots at level 0, after it the previous level's
    boundary cells.  Every other field has one entry per region.
    """

    x: np.ndarray
    y: np.ndarray
    level: int
    ids: np.ndarray  # index in the caller's list of regions
    spines: np.ndarray  # (5, regions): p0x, p0y, wx, wy, radius
    hx: np.ndarray  # half-sizes of the current level's cells
    hy: np.ndarray
    counts: np.ndarray  # cells held
    cells: np.ndarray  # cells evaluated so far
    inside: np.ndarray  # mass of the inside cells so far
    e1: np.ndarray  # estimate of the last level
    e0: np.ndarray  # estimate of the level before
    ok1: np.ndarray  # last level's cells within a quarter of the radius

    def take(self, sel, x, y) -> "_Batch":
        """The regions ``sel`` of this batch, holding the cells (x, y)."""
        per_region = {f.name: getattr(self, f.name)[..., sel] for f in fields(self)[3:]}
        return _Batch(x, y, self.level, **per_region)


def _level_slices(b: _Batch):
    """The cells of a batch's current level, at most ``SLICE_CELLS`` at a
    time, with how many of them belong to each region: the roots at level
    0, else the four children of each held cell."""
    if b.level == 0:
        yield b.x, b.y, b.counts
        return
    step = max(1, SLICE_CELLS // 4)
    ends = np.cumsum(b.counts)
    starts = ends - b.counts
    for lo in range(0, b.x.size, step):
        hi = lo + step
        n = np.clip(ends, lo, hi) - np.clip(starts, lo, hi)
        hx = np.repeat(b.hx, n)[:, None]
        hy = np.repeat(b.hy, n)[:, None]
        yield (
            (b.x[lo:hi, None] + _CHILD_X * hx).ravel(),
            (b.y[lo:hi, None] + _CHILD_Y * hy).ravel(),
            4 * n,
        )


def _classify(b: _Batch, x, y, n, halfdiag):
    """Inside and boundary cells of a slice whose first ``n[0]`` cells are
    the batch's first region's, and so on: (inner, n_in, edge, n_edge), the
    indices of each kind and how many each region has, then the signed
    distance and the unit outward gradient at each boundary cell."""
    p0x, p0y, wx, wy, radius = b.spines
    # measured from each region's p0, so the kernel holds two spine
    # parameters per cell, not four
    ox, oy = _spine_offset(
        x - np.repeat(p0x, n), y - np.repeat(p0y, n), 0.0, 0.0, np.repeat(wx, n), np.repeat(wy, n)
    )
    dist = np.hypot(ox, oy)
    sd = dist - np.repeat(radius, n)
    hd = np.repeat(halfdiag, n)
    bounds = np.concatenate(([0], np.cumsum(n)))
    inner = np.flatnonzero(sd <= -hd)
    edge = np.flatnonzero(np.abs(sd) < hd)
    n_in = np.diff(np.searchsorted(inner, bounds))
    n_edge = np.diff(np.searchsorted(edge, bounds))
    return inner, n_in, edge, n_edge, sd[edge], *_outward(ox[edge], oy[edge], dist[edge])


def integrate_region(regions, room: RoomConfig, rel_tol: float = 1e-4) -> np.ndarray:
    """Probability mass of each stadium region of ``regions`` under the
    walker's stationary density on the floor of ``room``, all regions in one
    pass; one value per region, 0 for an empty region or one off the floor.

    Inside cells take :func:`cell_mass`, boundary cells their cut fraction
    times the density at their centre, which never leaves the floor.  A
    region's boundary cells are split until their half-diagonal is at most a
    quarter of its radius and its estimate has settled to ``rel_tol``.

    Raises :class:`QuadratureError` when a region exhausts its budget of
    ``MAX_CELLS`` cells before its estimate settles.
    """
    out = np.zeros(len(regions))
    ids, spines, boxes = [], [], []
    for j, region in enumerate(regions):
        if region.empty or region.radius == 0.0:
            continue
        box = region.bbox()
        x0, y0 = max(box.x0, 0.0), max(box.y0, 0.0)
        x1, y1 = min(box.x1, room.width_m), min(box.y1, room.length_m)
        if not (x1 > x0 and y1 > y0):
            continue
        ids.append(j)
        spines.append(_spine(region))
        boxes.append((x0, y0, x1, y1))
    if not ids:
        return out
    x0, y0, x1, y1 = np.array(boxes).T
    n = len(ids)
    zeros = np.zeros(n)
    ones = np.ones(n, dtype=np.int64)
    stack = [
        _Batch(
            x=(x0 + x1) / 2.0, y=(y0 + y1) / 2.0, level=0, ids=np.array(ids),
            spines=np.array(spines).T, hx=(x1 - x0) / 2.0, hy=(y1 - y0) / 2.0,
            counts=ones, cells=ones, inside=zeros, e1=zeros, e0=zeros, ok1=zeros > 0.0,
        )
    ]
    while stack:
        stack.extend(reversed(_refine(stack.pop(), out, room, rel_tol)))
    return out


def _refine(b: _Batch, out, room: RoomConfig, rel_tol: float) -> list:
    """Evaluate levels of batch ``b``, writing each region's integral into
    ``out`` as it settles, until all have settled or the batch holds more
    than ``SLICE_CELLS`` boundary cells; then return the unsettled regions as
    consecutive parts to finish in order."""
    w, l = room.width_m, room.length_m
    while True:
        if b.level:
            b.hx = b.hx / 2.0
            b.hy = b.hy / 2.0
        halfdiag = np.hypot(b.hx, b.hy)
        k = halfdiag.size
        inside = np.zeros(k)
        cut = np.zeros(k)
        counts = np.zeros(k, dtype=np.int64)
        bx, by = [], []
        for x, y, n in _level_slices(b):
            inner, n_in, edge, n_edge, sd, gx, gy = _classify(b, x, y, n, halfdiag)
            mass = cell_mass(room, x[inner], y[inner], np.repeat(b.hx, n_in), np.repeat(b.hy, n_in))
            inside += _run_sums(mass, n_in)
            xb = x[edge]
            yb = y[edge]
            frac = _cut_fraction(sd, gx, gy, np.repeat(b.hx, n_edge), np.repeat(b.hy, n_edge))
            # the centres lie on the floor, where the density is the bare
            # product of the parabolas, taken before the fraction as in pdf_xy
            density = _parabola(xb - w / 2.0, w) * _parabola(yb - l / 2.0, l)
            cut += _run_sums(frac * density, n_edge)
            bx.append(xb)
            by.append(yb)
            counts += n_edge

        b.x = np.concatenate(bx)
        b.y = np.concatenate(by)
        # the slices' boundary cells now live in b.x and b.y alone
        del bx, by
        b.counts = counts
        b.level += 1
        b.inside = b.inside + inside
        est = b.inside + cut * 4.0 * b.hx * b.hy
        ok = halfdiag <= b.spines[4] / 4.0
        tol = 0.3 * rel_tol * np.maximum(np.abs(est), _ABS_FLOOR)
        settled = (counts == 0) | (
            (b.level >= 3) & ok & b.ok1
            & (np.abs(est - b.e1) <= tol) & (np.abs(b.e1 - b.e0) <= tol)
        )
        out[b.ids[settled]] = est[settled]
        b.e0, b.e1, b.ok1 = b.e1, est, ok
        if settled.all():
            return []

        # checked before the next level is built, so a level over the
        # budget is never allocated
        b.cells = b.cells + 4 * counts
        over = np.flatnonzero(~settled & (b.cells > MAX_CELLS))
        if over.size:
            raise QuadratureError(
                f"cell budget {MAX_CELLS} exhausted before convergence",
                best_estimate=float(est[over[0]]),
            )
        if b.level == _MAX_LEVELS:
            raise QuadratureError(
                "refinement depth exhausted", best_estimate=float(est[~settled][0])
            )

        if settled.any():
            keep = np.flatnonzero(np.repeat(~settled, counts))
            b = b.take(np.flatnonzero(~settled), b.x[keep], b.y[keep])
        if b.x.size > SLICE_CELLS and b.counts.size > 1:
            # consecutive regions holding at most SLICE_CELLS cells together,
            # or one region alone
            ends = np.cumsum(b.counts)
            parts = []
            lo = 0
            while lo < ends.size:
                base = ends[lo - 1] if lo else 0
                hi = np.searchsorted(ends, base + SLICE_CELLS, side="right")
                hi = max(lo + 1, int(hi))
                top = ends[hi - 1]
                # copies, so no waiting part keeps the whole level alive
                parts.append(b.take(slice(lo, hi), b.x[base:top].copy(), b.y[base:top].copy()))
                lo = hi
            return parts
