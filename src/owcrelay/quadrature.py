"""Adaptive quadtree quadrature over implicitly defined plane regions.

The integrand is ``density`` restricted to the set where a signed distance
field is non-positive.  Cells wholly inside the region are integrated with a
tensor 2x2 Gauss rule (exact for the polynomial densities used elsewhere in
this package); cells crossing the boundary are either split further or, once
they are small relative to the local boundary curvature, closed with an
exact area fraction for a linear cut.
"""

from __future__ import annotations

import numpy as np

__all__ = ["QuadratureError", "integrate_region"]

_GAUSS = 1.0 / np.sqrt(3.0)

# Convergence is relative to max(|estimate|, _ABS_FLOOR), so a region of
# (near) zero mass still settles.
_ABS_FLOOR = 1e-12

# Cells evaluated over all levels before the integrator gives up.
MAX_CELLS = 6_000_000

# Most cells of one level evaluated at once, which bounds the memory of a
# large level.
SLICE_CELLS = 2**17


class QuadratureError(RuntimeError):
    """Raised when refinement stalls; carries the best estimate so far."""

    def __init__(self, message: str, best_estimate: float):
        super().__init__(message)
        self.best_estimate = best_estimate


def _cut_fraction(sd, grad, hx, hy):
    """Fraction of a 2*hx by 2*hy cell on the inside of the boundary.

    The boundary through the cell is replaced by its tangent line
    ``n . q = -sd`` in cell-centred coordinates, with ``n`` the outward
    unit gradient.  The inside fraction of that half plane is exact.
    """
    nx = np.abs(grad[:, 0])
    ny = np.abs(grad[:, 1])
    nrm = np.hypot(nx, ny)
    nrm[nrm == 0.0] = 1.0
    nx = nx / nrm
    ny = ny / nrm

    swap = nx > ny
    nmax = np.where(swap, nx, ny)
    nmin = np.where(swap, ny, nx)
    hx_ = np.where(swap, hy, hx)
    hy_ = np.where(swap, hx, hy)

    u = -np.asarray(sd, dtype=float) / nmax
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


def integrate_region(sdf, density, bbox, cut_scale: float, rel_tol: float = 1e-4) -> float:
    """Integrate ``density`` over ``{p : sdf(p) <= 0}``
    intersected with the axis-aligned box ``bbox = (x0, y0, x1, y1)``.

    ``sdf`` maps an (N, 2) array to ``(signed_distance, unit_gradient)``.
    The signed distance must be a true Euclidean distance so that the
    half-diagonal test classifies cells safely.  ``density`` maps an (N, 2)
    array to N values.  ``cut_scale`` forbids convergence while boundary
    cells are still larger than it; pass roughly a quarter of the smallest
    boundary feature radius.  A level is evaluated ``SLICE_CELLS`` cells at
    a time, and the slice totals are summed in order.

    Raises :class:`QuadratureError` when the cell budget is exhausted
    before the estimate settles.
    """
    x0, y0, x1, y1 = (float(v) for v in bbox)
    if not (x1 > x0 and y1 > y0):
        return 0.0

    centers = np.array([[(x0 + x1) / 2.0, (y0 + y1) / 2.0]])
    hx = (x1 - x0) / 2.0
    hy = (y1 - y0) / 2.0

    inside_total = 0.0
    history: list[tuple[float, bool]] = []
    total_cells = 1
    best = 0.0

    for _ in range(48):
        halfdiag = float(np.hypot(hx, hy))
        bdy_est = 0.0
        bdy_parts = []
        for start in range(0, centers.shape[0], SLICE_CELLS):
            cells = centers[start : start + SLICE_CELLS]
            sd, grad = sdf(cells)
            sd = np.asarray(sd, dtype=float)
            is_in = sd <= -halfdiag
            is_bdy = ~(is_in | (sd >= halfdiag))

            if np.any(is_in):
                offs = np.array([[-hx, -hy], [hx, -hy], [-hx, hy], [hx, hy]]) * _GAUSS
                pts = (cells[is_in][:, None, :] + offs[None, :, :]).reshape(-1, 2)
                inside_total += float(np.sum(density(pts))) * hx * hy

            bdy_parts.append(cells[is_bdy])
            if bdy_parts[-1].shape[0]:
                frac = _cut_fraction(sd[is_bdy], grad[is_bdy], hx, hy)
                bdy_est += float(np.sum(frac * density(bdy_parts[-1]))) * 4.0 * hx * hy
        bdy_count = sum(part.shape[0] for part in bdy_parts)

        est = inside_total + bdy_est
        best = est
        history.append((est, halfdiag <= cut_scale))

        if bdy_count == 0:
            return est
        if len(history) >= 3:
            (e2, ok2), (e1, ok1) = history[-1], history[-2]
            e0 = history[-3][0]
            tol = 0.3 * rel_tol * max(abs(e2), _ABS_FLOOR)
            if ok2 and ok1 and abs(e2 - e1) <= tol and abs(e1 - e0) <= tol:
                return e2

        # checked before the next level is built, so a level over the
        # budget is never allocated
        total_cells += 4 * bdy_count
        if total_cells > MAX_CELLS:
            raise QuadratureError(
                f"cell budget {MAX_CELLS} exhausted before convergence",
                best_estimate=best,
            )
        hx /= 2.0
        hy /= 2.0
        offs = np.array([[-hx, -hy], [hx, -hy], [-hx, hy], [hx, hy]])
        bdy = bdy_parts[0] if len(bdy_parts) == 1 else np.concatenate(bdy_parts)
        centers = (bdy[:, None, :] + offs[None, :, :]).reshape(-1, 2)

    raise QuadratureError("refinement depth exhausted", best_estimate=best)
