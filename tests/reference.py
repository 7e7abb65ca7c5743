"""Reference implementations the package is tested against.

The scalar SINR functions below evaluate one user and one link state at a
time with plain loops over the multiplexing allocation.  They are the oracle
for the vectorised :func:`owcrelay.links.evaluate_sinr`; :func:`reference_sinr`
rebuilds their inputs from a link budget's gains and scenario, independently
of the budget's compiled weight arrays.  :func:`point_source_gain` is the
one-pair scalar form of the channel's vectorised Lambertian kernel.
:func:`segment_meets_cylinder` is the blocker predicate, written with
scalar arithmetic and no geometry internals, that the stadium regions of
:mod:`owcrelay.geometry` must reproduce.
:func:`integrate_one_region` is the adaptive quadrature one region at a
time, the oracle for the package's batched level loop;
:func:`region_area` applies it to a region's indicator over a floor
rectangle and :func:`region_probabilities_one_by_one` to the walker law.
:func:`joint_state_outage` is the independent-link enumeration over joint
link states that the split enumeration must reproduce.
:func:`sample_positions_65536` is the position sampler as it drew 65,536
candidate rows at a time; the package draws smaller chunks of the same
stream and must return the same positions.
:func:`classify_full_floor` classifies every floor cell against every
region, the loop :class:`owcrelay.geometry.FloorCells` runs only near each
region.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from owcrelay.geometry import _CELL_MARGIN, Rect, StadiumRegion, _spine, _spine_offset
from owcrelay.links import evaluate_sinr, noise_variance, order_users_and_allocate
from owcrelay.mobility import MAX_CELLS, QuadratureError, pdf_xy, peak_density
from owcrelay.outage import ensure_marginals, is_outage
from owcrelay.scenario import RoomConfig

_GAUSS = 1.0 / math.sqrt(3.0)


@dataclass(frozen=True)
class NomaAllocation:
    """Each source's power split, user -> watts in decoding order (weakest
    first), as :func:`owcrelay.links.order_users_and_allocate` returns it."""

    by_ap: Mapping[str, Mapping[str, float]]
    power_ratio: float

    def serving_aps(self, user_id: str) -> tuple[str, ...]:
        return tuple(ap_id for ap_id, alloc in self.by_ap.items() if user_id in alloc)


def users_after(alloc: Mapping[str, float], user_id: str) -> tuple[str, ...]:
    """Users of one source's split decoded after ``user_id``: its residual
    interferers."""
    order = tuple(alloc)
    return order[order.index(user_id) + 1 :]


def _ratio(num: float, den: float) -> float:
    """An SINR term; 0/0 is 0, because nothing reaches the user."""
    return num / den if num else 0.0


def sinr_direct(
    user_id: str,
    allocation: NomaAllocation,
    gains: Mapping[tuple[str, str], float],
    blockage: Mapping[tuple[str, str], float],
    responsivity: float,
    noise_var: float,
) -> float:
    """First-phase electrical SINR of one user.

    ``gains`` maps (ap, user) to channel gain and ``blockage`` maps the same
    keys to a clear/blocked factor in {0, 1}.  Each beam contributes its
    squared electrical signal term; residual interference from a later-decoded
    user k is gated by the blockage state of the (ap, k) link.
    """
    num = 0.0
    den = noise_var
    for ap_id in allocation.serving_aps(user_id):
        alloc = allocation.by_ap[ap_id]
        h = gains[(ap_id, user_id)]
        s = blockage[(ap_id, user_id)] * alloc[user_id] * responsivity * h
        num += s * s
        for k in users_after(alloc, user_id):
            t = blockage[(ap_id, k)] * alloc[k] * responsivity * h
            den += t * t
    return _ratio(num, den)


def relay_second_phase_sinr(
    user_id: str,
    branches: Sequence[tuple[str, str]],
    branch_factors: Mapping[tuple[str, str], float],
    allocation: NomaAllocation,
    feeder_gains: Mapping[tuple[str, str], float],
    delivery_gains: Mapping[tuple[str, str], float],
    responsivity: float,
    noise_var: float,
    relay_noise: Mapping[str, float],
    combining: str = "summed",
) -> float:
    """Second-phase SINR through forwarding relays.

    A branch is an (ap, relay) pair whose end-to-end gain is the product of
    the feeder gain (ap, relay) and the delivery gain (relay, user).  The
    branch factor is 1 only when both hops are clear; it gates the signal,
    the residual interference, and the forwarded relay noise of that branch.

    ``combining`` selects how branch terms aggregate: "summed" forms one
    ratio from the summed numerators and denominators, "per_branch" sums
    the per-branch ratios.
    """
    if combining not in ("summed", "per_branch"):
        raise ValueError(f"unknown combining mode {combining!r}")
    num = 0.0
    den = noise_var
    total = 0.0
    for ap_id, relay_id in branches:
        g = branch_factors[(ap_id, relay_id)]
        alloc = allocation.by_ap[ap_id]
        h2 = feeder_gains[(ap_id, relay_id)] * delivery_gains[(relay_id, user_id)]
        s = g * alloc[user_id] * responsivity * h2
        b_num = s * s
        b_int = 0.0
        for k in users_after(alloc, user_id):
            t = g * alloc[k] * responsivity * h2
            b_int += t * t
        b_noise = g * relay_noise[relay_id]
        if combining == "per_branch":
            total += _ratio(b_num, noise_var + b_int + b_noise)
        else:
            num += b_num
            den += b_int + b_noise
    if combining == "per_branch":
        return total
    return _ratio(num, den)


def sinr_mrc(direct: float, relayed: float) -> float:
    """Combiner output: the two phase SINRs add."""
    return direct + relayed


@dataclass(frozen=True)
class SinrBreakdown:
    """Per-user phase SINRs plus the clear/blocked factors that shaped them."""

    direct: float
    relayed: float
    direct_factors: tuple[float, ...] = ()
    branch_factors: tuple[float, ...] = ()

    @property
    def combined(self) -> float:
        return sinr_mrc(self.direct, self.relayed)

    def combined_db(self) -> float:
        c = self.combined
        return -math.inf if c <= 0.0 else 10.0 * math.log10(c)


def point_source_gain(src, src_normal, mode, dst, dst_normal, dst_area, cos_fov=0.0) -> float:
    """Lambertian point source of cosine order ``mode`` to one small flat
    patch, evaluated with scalar arithmetic; a source on the patch centre
    gives 0, as the channel kernel does."""
    d = [b - a for a, b in zip(src, dst)]
    dist = math.sqrt(sum(c * c for c in d))
    if dist == 0.0:
        return 0.0
    u = [c / dist for c in d]
    cos_e = sum(n * c for n, c in zip(src_normal, u))
    cos_i = -sum(n * c for n, c in zip(dst_normal, u))
    if cos_e <= 0.0 or cos_i <= 0.0 or cos_i < cos_fov:
        return 0.0
    return (mode + 1) / (2.0 * math.pi * dist * dist) * cos_e**mode * cos_i * dst_area


def segment_meets_cylinder(a, b, center, cyl) -> bool:
    """Whether the closed segment a-b passes through the solid vertical
    cylinder ``cyl`` (height_m, radius_m) standing on the floor at ``center``.

    The segment parameter t in [0, 1] is first limited to the heights the
    cylinder occupies, 0 <= z <= height_m; the squared horizontal distance to
    the cylinder axis, a quadratic in t, is then minimised over what is left.
    """
    ax, ay, az = (float(v) for v in a)
    bx, by, bz = (float(v) for v in b)
    dz = bz - az
    if dz == 0.0:
        if not 0.0 <= az <= cyl.height_m:
            return False
        lo, hi = 0.0, 1.0
    else:
        t_floor = -az / dz
        t_top = (cyl.height_m - az) / dz
        lo = max(0.0, min(t_floor, t_top))
        hi = min(1.0, max(t_floor, t_top))
        if lo > hi:
            return False
    ux, uy = bx - ax, by - ay
    fx, fy = ax - float(center[0]), ay - float(center[1])
    # |f + t u|^2 is smallest at t = -(f . u) / (u . u), held inside [lo, hi]
    uu = ux * ux + uy * uy
    t = lo if uu == 0.0 else min(hi, max(lo, -(fx * ux + fy * uy) / uu))
    gx, gy = fx + t * ux, fy + t * uy
    return gx * gx + gy * gy <= cyl.radius_m * cyl.radius_m


def _one_region(region: StadiumRegion, density, floor, rel_tol: float) -> float:
    """:func:`integrate_one_region` of ``density`` over the part of a region
    on the floor rectangle ``(x0, y0, x1, y1)``, its bounding box cut with
    min and max; 0 for an empty region or one of radius 0."""
    if region.empty or region.radius == 0.0:
        return 0.0
    box = region.bbox()
    x0, y0, x1, y1 = floor
    return integrate_one_region(
        region.signed_distance, density,
        (max(box.x0, x0), max(box.y0, y0), min(box.x1, x1), min(box.y1, y1)),
        cut_scale=region.radius / 4.0, rel_tol=rel_tol,
    )


def region_area(region: StadiumRegion, floor: Rect, rel_tol: float = 1e-4) -> float:
    """Area of the part of a stadium region on ``floor``, by the adaptive
    quadrature of its indicator."""
    return _one_region(
        region, lambda pts: np.ones(len(pts)), (floor.x0, floor.y0, floor.x1, floor.y1), rel_tol
    )


def _cut_fraction(sd, grad, hx, hy):
    """Fraction of a 2*hx by 2*hy cell on the inside of the tangent line
    ``n . q = -sd`` of the boundary, ``n`` the normalised ``grad``."""
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


def integrate_one_region(sdf, density, bbox, cut_scale: float, rel_tol: float = 1e-4) -> float:
    """Integral of ``density`` over ``{p : sdf(p) <= 0}`` within ``bbox =
    (x0, y0, x1, y1)``, one region at a time: the per-region level loop the
    batched :func:`owcrelay.mobility.integrate_region` must reproduce.

    Each level's cells are classified by the signed distance of their
    centres against the half-diagonal; inside cells take the 2x2 Gauss rule,
    boundary cells the linear cut fraction times the centre density, and
    boundary cells are split into four.  The estimate settles once the last
    two levels' cells are within ``cut_scale`` and the last three estimates
    agree to ``0.3 rel_tol``.
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
    for _ in range(48):
        halfdiag = float(np.hypot(hx, hy))
        sd, grad = sdf(centers)
        is_in = sd <= -halfdiag
        is_bdy = ~(is_in | (sd >= halfdiag))
        offs = np.array([[-hx, -hy], [hx, -hy], [-hx, hy], [hx, hy]]) * _GAUSS
        pts = (centers[is_in][:, None, :] + offs[None, :, :]).reshape(-1, 2)
        inside_total += float(np.sum(density(pts))) * hx * hy
        bdy = centers[is_bdy]
        frac = _cut_fraction(sd[is_bdy], grad[is_bdy], hx, hy)
        est = inside_total + float(np.sum(frac * density(bdy))) * 4.0 * hx * hy
        history.append((est, halfdiag <= cut_scale))
        if bdy.shape[0] == 0:
            return est
        if len(history) >= 3:
            (e2, ok2), (e1, ok1) = history[-1], history[-2]
            tol = 0.3 * rel_tol * max(abs(e2), 1e-12)
            if ok2 and ok1 and abs(e2 - e1) <= tol and abs(e1 - history[-3][0]) <= tol:
                return e2
        total_cells += 4 * bdy.shape[0]
        if total_cells > MAX_CELLS:
            raise QuadratureError(f"cell budget {MAX_CELLS} exhausted before convergence", est)
        hx /= 2.0
        hy /= 2.0
        offs = np.array([[-hx, -hy], [hx, -hy], [-hx, hy], [hx, hy]])
        centers = (bdy[:, None, :] + offs[None, :, :]).reshape(-1, 2)
    raise QuadratureError("refinement depth exhausted", est)


def region_probabilities_one_by_one(regions, room: RoomConfig, rel_tol: float = 1e-4):
    """Probability mass of each stadium region's part on the floor of
    ``room`` under the walker law, from :func:`integrate_one_region` on its
    bounding box cut to the floor; 0 for an empty region or one off the
    floor."""

    def density(pts):
        return pdf_xy(room, pts[:, 0], pts[:, 1])

    floor = (0.0, 0.0, room.width_m, room.length_m)
    return np.array([_one_region(region, density, floor, rel_tol) for region in regions])


def reference_sinr(budget, clear: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(direct, relayed) SINR of every user for a batch of link states, from
    the scalar functions above.

    ``clear`` has shape (link_count, n) with 1 where a link is unobstructed;
    both outputs have shape (user_count, n) in scenario user order.  The
    allocation, noise variances and branches are recomputed from the
    budget's links and scenario.
    """
    sc = budget.scenario
    ap_entry = {ap.id: ap for ap in sc.aps}
    ap_power = {ap.id: ap.power_mw * 1e-3 for ap in sc.aps}
    relay_resp = {rl.id: rl.responsivity_a_per_w for rl in sc.relays}
    key = {(ln.tx_id, ln.rx_id): ln.index for ln in budget.links}
    gains = {(ln.tx_id, ln.rx_id): ln.h for ln in budget.links}
    direct_links = [ln for ln in budget.links if ln.kind == "direct"]
    feeder_of = {ln.rx_id: ln.tx_id for ln in budget.links if ln.kind == "feeder"}

    served: dict[str, dict[str, float]] = {}
    for ln in direct_links:
        served.setdefault(ln.tx_id, {})[ln.rx_id] = ln.h
    allocation = NomaAllocation(
        by_ap={
            ap: order_users_and_allocate(ap_entry[ap], tuple(g), g, sc.noma)
            for ap, g in served.items()
        },
        power_ratio=sc.noma.power_ratio,
    )
    relay_noise = {
        rid: noise_variance(sc.noise, ap_power[ap] * gains[(ap, rid)], relay_resp[rid])
        for rid, ap in feeder_of.items()
    }

    users = []
    for user in sc.users:
        uid = user.id
        resp = user.responsivity_a_per_w
        p_rx = sum(ap_power[ln.tx_id] * ln.h for ln in direct_links if ln.rx_id == uid)
        branches = [
            (feeder_of[ln.tx_id], ln.tx_id)
            for ln in budget.links
            if ln.kind == "delivery" and ln.rx_id == uid
        ]
        users.append((uid, resp, noise_variance(sc.noise, p_rx, resp), branches))

    n = clear.shape[1]
    direct = np.empty((len(users), n))
    relayed = np.empty((len(users), n))
    for j in range(n):
        state = {k: float(clear[idx, j]) for k, idx in key.items()}
        for i, (uid, resp, noise_var, branches) in enumerate(users):
            factors = {(ap, rid): state[(ap, rid)] * state[(rid, uid)] for ap, rid in branches}
            direct[i, j] = sinr_direct(uid, allocation, gains, state, resp, noise_var)
            relayed[i, j] = relay_second_phase_sinr(
                uid, branches, factors, allocation, gains, gains, resp, noise_var,
                relay_noise, combining=sc.noma.combining,
            )
    return direct, relayed


def joint_state_outage(budget) -> np.ndarray:
    """Independent-link outage probabilities, shape (users, 2), by walking
    all 2^m joint clear/blocked states of the m links entering each user's
    SINR, as the enumeration engine did before it split direct and relay
    links."""
    p = ensure_marginals(budget)
    p_out = np.empty((len(budget.user_terms), 2))
    for i, t in enumerate(budget.user_terms):
        involved = np.unique(
            np.concatenate([t.direct_idx, t.int_idx, t.branch_feeder_idx, t.branch_delivery_idx])
        )
        combos = np.arange(1 << involved.size)
        clear = np.ones((budget.link_count, combos.size))
        prob = np.ones(combos.size)
        for j, link_idx in enumerate(involved):
            bit = (combos >> j) & 1
            clear[link_idx] = bit
            prob *= np.where(bit == 1, 1.0 - p[link_idx], p[link_idx])
        for k, sinr in enumerate(evaluate_sinr(budget, clear)):
            p_out[i, k] = np.sum(prob[is_outage(sinr[i], budget.scenario.noma.threshold_db)])
    return p_out


def sample_positions_65536(room: RoomConfig, n: int, rng) -> np.ndarray:
    """``n`` stationary positions on the floor of ``room`` by rejection
    against a uniform envelope at the peak density, drawing candidates
    65,536 rows at a time."""
    gen = np.random.default_rng(rng)
    out = np.empty((n, 2))
    filled = 0
    while filled < n:
        draw = gen.random((65536, 3))
        xs = room.width_m * draw[:, 0]
        ys = room.length_m * draw[:, 1]
        keep = draw[:, 2] * peak_density(room) <= pdf_xy(room, xs, ys)
        take = min(int(np.count_nonzero(keep)), n - filled)
        out[filled : filled + take, 0] = xs[keep][:take]
        out[filled : filled + take, 1] = ys[keep][:take]
        filled += take
    return out


def classify_full_floor(regions, width: float, length: float, size: float):
    """(inside, undecided, decided) of the floor cells of side ``size``:
    boolean (regions, cells) tables and a (cells,) mask, from the distance of
    every cell centre to every region's spine."""
    nx, ny = math.ceil(width / size), math.ceil(length / size)
    cx = (np.tile(np.arange(nx), ny) + 0.5) * size
    cy = (np.repeat(np.arange(ny), nx) + 0.5) * size
    half = size * math.sqrt(0.5)
    inside = np.zeros((len(regions), cx.size), dtype=bool)
    undecided = np.zeros_like(inside)
    for j, region in enumerate(regions):
        if region.empty:
            continue
        p0x, p0y, wx, wy, r = _spine(region)
        d = np.hypot(*_spine_offset(cx, cy, p0x, p0y, wx, wy))
        inside[j] = d <= r - half - _CELL_MARGIN
        undecided[j] = ~inside[j] & (d < r + half + _CELL_MARGIN)
    return inside, undecided, ~undecided.any(axis=0)
