"""Adaptive quadtree quadrature of a plane density over stadium regions,
all regions in one level loop.

Each region starts from one root cell, the part of its bounding box on the
floor.  Cells wholly inside the region take the density's cell mass, its
tensor 2x2 Gauss integral (exact for the polynomial densities used
elsewhere in this package); cells crossing the boundary are either split
further or, once they are small relative to the local boundary curvature,
closed with an exact area fraction for a linear cut.

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

__all__ = ["QuadratureError", "integrate_region"]

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
# CPU ms of region_probabilities on that room and on the default one, its
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


class QuadratureError(RuntimeError):
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


def integrate_region(regions, floor, density, cell_mass, rel_tol: float = 1e-4) -> np.ndarray:
    """Integral of a density over each stadium region of ``regions``,
    restricted to the floor rectangle ``floor``; one value per region, 0 for
    an empty region or one off the floor.

    ``density(x, y)`` is the density at the points (x, y), and
    ``cell_mass(x, y, hx, hy)`` its 2x2 Gauss integral over the cells of
    centres (x, y) and half-sizes (hx, hy).  A region's boundary cells are
    split until their half-diagonal is at most a quarter of its radius and
    its estimate has settled to ``rel_tol``.

    Raises :class:`QuadratureError` when a region exhausts its budget of
    ``MAX_CELLS`` cells before its estimate settles.
    """
    out = np.zeros(len(regions))
    ids, spines, boxes = [], [], []
    for j, region in enumerate(regions):
        if region.empty or region.radius == 0.0:
            continue
        box = region.bbox().intersect(floor)
        if box is None or not (box.x1 > box.x0 and box.y1 > box.y0):
            continue
        ids.append(j)
        spines.append(_spine(region))
        boxes.append((box.x0, box.y0, box.x1, box.y1))
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
        stack.extend(reversed(_refine(stack.pop(), out, density, cell_mass, rel_tol)))
    return out


def _refine(b: _Batch, out, density, cell_mass, rel_tol: float) -> list:
    """Evaluate levels of batch ``b``, writing each region's integral into
    ``out`` as it settles, until all have settled or the batch holds more
    than ``SLICE_CELLS`` boundary cells; then return the unsettled regions as
    consecutive parts to finish in order."""
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
            mass = cell_mass(x[inner], y[inner], np.repeat(b.hx, n_in), np.repeat(b.hy, n_in))
            inside += _run_sums(mass, n_in)
            xb = x[edge]
            yb = y[edge]
            frac = _cut_fraction(sd, gx, gy, np.repeat(b.hx, n_edge), np.repeat(b.hy, n_edge))
            cut += _run_sums(frac * density(xb, yb), n_edge)
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
