"""Reference implementations the package is tested against.

The scalar SINR functions below evaluate one user and one link state at a
time with plain loops over the multiplexing allocation.  They are the oracle
for the vectorised :func:`owcrelay.links.evaluate_sinr`; :func:`reference_sinr`
rebuilds their inputs from a link budget's gains and scenario, independently
of the budget's compiled weight arrays.  :func:`region_area` integrates a
region's indicator with the package quadrature.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from owcrelay.geometry import StadiumRegion
from owcrelay.noma import ApAllocation, NoiseModel, noise_variance, order_users_and_allocate
from owcrelay.quadrature import integrate_region


@dataclass(frozen=True)
class NomaAllocation:
    by_ap: Mapping[str, ApAllocation]
    power_ratio: float

    def serving_aps(self, user_id: str) -> tuple[str, ...]:
        return tuple(
            ap_id for ap_id, alloc in self.by_ap.items() if user_id in alloc.ordered_users
        )


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
        s = blockage[(ap_id, user_id)] * alloc.power_of(user_id) * responsivity * h
        num += s * s
        for k in alloc.interferers_of(user_id):
            t = blockage[(ap_id, k)] * alloc.power_of(k) * responsivity * h
            den += t * t
    return num / den


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
        s = g * alloc.power_of(user_id) * responsivity * h2
        b_num = s * s
        b_int = 0.0
        for k in alloc.interferers_of(user_id):
            t = g * alloc.power_of(k) * responsivity * h2
            b_int += t * t
        b_noise = g * relay_noise[relay_id]
        if combining == "per_branch":
            total += b_num / (noise_var + b_int + b_noise)
        else:
            num += b_num
            den += b_int + b_noise
    if combining == "per_branch":
        return total
    return num / den


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


def region_area(region: StadiumRegion, rel_tol: float = 1e-4) -> float:
    """Area of a stadium region by adaptive quadrature of its indicator."""
    if region.is_empty or region.radius == 0.0:
        return 0.0
    box = region.bbox()
    if box is None:
        return 0.0
    return integrate_region(
        region.signed_distance,
        lambda pts: np.ones(len(pts)),
        (box.x0, box.y0, box.x1, box.y1),
        rel_tol=rel_tol,
        cut_scale=region.radius / 4.0,
    )


def reference_sinr(budget, clear: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(direct, relayed) SINR of every user for a batch of link states, from
    the scalar functions above.

    ``clear`` has shape (link_count, n) with 1 where a link is unobstructed;
    both outputs have shape (user_count, n) in scenario user order.  The
    allocation, noise variances and branches are recomputed from the
    budget's links and scenario.
    """
    sc = budget.scenario
    ap_power = {ap.id: ap.power_mw * 1e-3 for ap in sc.aps}
    relay_resp = {rl.id: rl.responsivity_a_per_w for rl in sc.relays}
    noise = NoiseModel(
        bandwidth_hz=sc.noise.bandwidth_ghz * 1e9,
        noise_density_a2_per_hz=sc.noise.noise_density_a2hz,
        background_current_a=sc.noise.background_current_a,
    )
    key = {(ln.tx_id, ln.rx_id): ln.index for ln in budget.links}
    gains = {(ln.tx_id, ln.rx_id): ln.h for ln in budget.links}
    direct_links = [ln for ln in budget.links if ln.kind == "direct"]
    feeder_of = {ln.rx_id: ln.tx_id for ln in budget.links if ln.kind == "feeder"}

    served: dict[str, dict[str, float]] = {}
    for ln in direct_links:
        served.setdefault(ln.tx_id, {})[ln.rx_id] = ln.h
    allocation = NomaAllocation(
        by_ap={
            ap: order_users_and_allocate(
                ap, tuple(g), g, power_ratio=sc.noma.power_ratio, budget_w=ap_power[ap]
            )
            for ap, g in served.items()
        },
        power_ratio=sc.noma.power_ratio,
    )
    relay_noise = {
        rid: noise_variance(noise, ap_power[ap] * gains[(ap, rid)], relay_resp[rid])
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
        users.append((uid, resp, noise_variance(noise, p_rx, resp), branches))

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
                relay_noise, combining=budget.combining,
            )
    return direct, relayed
