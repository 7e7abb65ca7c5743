"""Static link budget of a scenario: terminals, associations, channel gains,
power allocation, noise, and per-link blocker regions.

Everything random happens elsewhere; given a scenario this module produces
the deterministic quantities the outage engines consume, including compiled
per-user weight arrays so that :func:`evaluate_sinr` turns a batch of
blocked/clear states into SINR values with a handful of matrix products.
Terminals are the scenario's AP, relay and user entries, keyed by id; the
channel (:mod:`owcrelay.channel`) takes them as they are, with the room and
channel sections, and each link's response, which checks its steering, is
computed once.  The links come from the scenario's explicit maps or, where
it has none, from one steering table per build.  The budget keeps its
scenario, whose sections hold the threshold and the combining rule.

Each access point splits its power over the users it serves with
geometrically decaying weights, largest share to the weakest channel
(:func:`order_users_and_allocate`).  Successive decoding removes every
weaker user's signal, so only users decoded later interfere.
:func:`noise_variance` is a detector's shot and excess noise.

A relay forwards and retransmits from one point on a wall.  Its electrical
gain keeps the retransmitted power at its cap whatever the received level,
so the gain cancels between the signal and forwarded-noise terms of the
second phase.  A relay's transmit level is therefore not a parameter of the
model: the relayed terms come from the AP's power split and the feeder and
delivery gains.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Mapping, Sequence

import numpy as np

from owcrelay.channel import (
    UnservableLinkError,
    discretize_surfaces,
    impulse_response,
    pointing,
    receiver_view,
)
from owcrelay.geometry import StadiumRegion, blocked_region
from owcrelay.scenario import ApConfig, NoiseConfig, NomaConfig, Scenario

__all__ = [
    "ELECTRON_CHARGE",
    "Link",
    "LinkBudget",
    "build_link_budget",
    "evaluate_sinr",
    "link_cir",
    "noise_variance",
    "order_users_and_allocate",
]

ELECTRON_CHARGE = 1.602176634e-19


def noise_variance(noise: NoiseConfig, received_power_w: float, responsivity: float) -> float:
    """Electrical noise variance at a detector seeing the given optical power:
    shot noise from the mean photocurrent plus a flat excess floor."""
    if received_power_w < 0:
        raise ValueError("received power must be non-negative")
    bandwidth_hz = noise.bandwidth_ghz * 1e9
    photocurrent = responsivity * received_power_w
    shot = 2.0 * ELECTRON_CHARGE * (photocurrent + noise.background_current_a) * bandwidth_hz
    return shot + noise.noise_density_a2hz * bandwidth_hz


def order_users_and_allocate(
    ap: ApConfig, served_users: Sequence[str], gains: Mapping[str, float], noma: NomaConfig
) -> dict[str, float]:
    """Split the power of the source ``ap`` over the users it serves.

    Returns each user's watts in decoding order: ascending channel gain,
    ties by user id, so the first user is the weakest, and a user's
    residual interferers are the users after it.  With n users the shares
    are proportional to r^(n-1), ..., r, 1 in that order, where r is
    ``noma.power_ratio``, so the weakest channel receives the largest share.
    """
    if not served_users:
        raise ValueError(f"access point {ap.id!r} serves no users")
    for u in served_users:
        if gains[u] < 0.0:
            raise ValueError(f"negative channel gain for user {u!r}")
    ordered = sorted(served_users, key=lambda u: (gains[u], u))
    n = len(ordered)
    weights = [noma.power_ratio ** (n - 1 - j) for j in range(n)]
    total = sum(weights)
    return {u: ap.power_mw * 1e-3 * w / total for u, w in zip(ordered, weights)}


def _decoded_after(alloc: dict[str, float], user_id: str) -> list[str]:
    """Users of a power split decoded after ``user_id``: its residual interferers."""
    return list(alloc)[list(alloc).index(user_id) + 1 :]


@dataclass(frozen=True)
class Link:
    index: int
    link_id: str
    kind: str  # "direct", "feeder" or "delivery"
    tx_id: str
    rx_id: str
    h: float
    h_los: float
    h_reflected: float


@dataclass
class UserTerms:
    """Compiled SINR ingredients of one user.

    Direct phase: ``num = direct_w . clear[direct_idx]`` and the
    interference adds ``int_w . clear[int_idx]`` to the noise floor.
    Relay phase: branch b is live when both ``clear[branch_feeder_idx[b]]``
    and ``clear[branch_delivery_idx[b]]`` hold, and then contributes its
    signal weight and its interference-plus-forwarded-noise weight.
    """

    user_id: str
    noise_var: float
    direct_idx: np.ndarray
    direct_w: np.ndarray
    int_idx: np.ndarray
    int_w: np.ndarray
    branch_feeder_idx: np.ndarray
    branch_delivery_idx: np.ndarray
    branch_sig_w: np.ndarray
    branch_den_w: np.ndarray


@dataclass
class LinkBudget:
    scenario: Scenario
    links: tuple[Link, ...]
    regions: tuple[StadiumRegion, ...]
    user_terms: tuple[UserTerms, ...]
    marginals: np.ndarray | None = field(default=None)

    @property
    def link_count(self) -> int:
        return len(self.links)

    def link_index(self, tx_id: str, rx_id: str) -> int:
        for ln in self.links:
            if ln.tx_id == tx_id and ln.rx_id == rx_id:
                return ln.index
        raise KeyError(f"no link {tx_id!r} -> {rx_id!r}")


def _terminals(scenario: Scenario) -> dict:
    """Every AP, relay and user entry of the scenario by id, in scenario
    order; ids are unique across the three kinds."""
    return {t.id: t for t in (*scenario.aps, *scenario.relays, *scenario.users)}


def _steering_table(scenario: Scenario) -> set[tuple[str, str]]:
    """(transmitter id, target id) of every source-to-relay, source-to-user
    and relay-to-user beam whose target lies inside the transmitter's
    steering cone, decided in one array pass by the rule of the channel's
    steering check: the beam's angle to the transmitter's boresight at most
    its ``max_steering_deg`` plus 1e-12 rad.  Terminals of two kinds never
    share a point, so every beam has a length."""
    aps, relays, users = scenario.aps, scenario.relays, scenario.users
    txs, targets = (*aps, *relays), (*relays, *users)
    # a source aims at relays and users, a relay at users only
    pair = np.ones((len(txs), len(targets)), dtype=bool)
    pair[len(aps) :, : len(relays)] = False
    tx_of, target_of = np.nonzero(pair)
    position = np.array([t.position_m for t in (*txs, *users)], dtype=float)
    boresight = np.array([pointing(t, scenario.room) for t in txs])
    limit = np.array([math.radians(t.max_steering_deg) + 1e-12 for t in txs])
    rel = position[target_of + len(aps)] - position[tx_of]
    beam = rel / np.sqrt(np.einsum("ij,ij->i", rel, rel))[:, None]
    cos = np.clip(np.einsum("ij,ij->i", beam, boresight[tx_of]), -1.0, 1.0)
    inside = np.arccos(cos) <= limit[tx_of]
    return {
        (txs[i].id, targets[j].id)
        for i, j in zip(tx_of[inside].tolist(), target_of[inside].tolist())
    }


def _association_map(scenario: Scenario, steerable: set) -> dict[str, tuple[str, ...]]:
    """Users served by each source: the scenario's explicit map when present,
    each user once in its first place, otherwise every user inside the
    source's steering cone, by the ``steerable`` table of
    :func:`_steering_table`, in scenario order."""
    if scenario.associations is not None:
        return {
            ap.id: tuple(dict.fromkeys(scenario.associations.get(ap.id, ())))
            for ap in scenario.aps
        }
    return {
        ap.id: tuple(u.id for u in scenario.users if (ap.id, u.id) in steerable)
        for ap in scenario.aps
    }


def _relay_pairing_map(scenario: Scenario, steerable: set) -> dict[str, str]:
    """Feeder source of each relay: the scenario's explicit map when present,
    otherwise the nearest source able to steer onto the relay, the first
    in scenario order on a tie."""
    if scenario.relay_pairings is not None:
        return dict(scenario.relay_pairings)
    out: dict[str, str] = {}
    for relay in scenario.relays:
        rp = relay.position_m
        feeders = [ap for ap in scenario.aps if (ap.id, relay.id) in steerable]
        if feeders:
            out[relay.id] = min(feeders, key=lambda ap: math.dist(ap.position_m, rp)).id
    return out


def _relay_branch_map(
    scenario: Scenario,
    associations: dict[str, tuple[str, ...]],
    pairings: dict[str, str],
    steerable: set,
) -> dict[str, tuple[tuple[str, str], ...]]:
    """Second-phase branches per user as (feeder source, relay) pairs.

    A relay forwards to a user when the user sits inside its steering cone
    and its feeder source serves that user in the first phase; a relay
    without a feeder serves nobody.
    """
    return {
        u.id: tuple(
            (pairings[r.id], r.id)
            for r in scenario.relays
            if u.id in associations.get(pairings.get(r.id), ()) and (r.id, u.id) in steerable
        )
        for u in scenario.users
    }


def _links(scenario: Scenario, ends) -> dict[tuple[str, str], Link]:
    """The link of each entry (tx_id, rx_id) -> (kind, tx, rx) of ``ends``,
    keyed and ordered the same way, with its unobstructed gains.
    The responses are computed receiver by receiver, each through one
    :func:`receiver_view` of its receiver, which holds the tiles it sees of
    the one second-bounce grid of the build; below two bounces there is no
    grid.  An unservable link is named by the first response that meets
    it.  A link's gain is the sum of its response's per-order totals, so no
    response is binned."""
    room, channel = scenario.room, scenario.channel
    grid = None
    if channel.max_bounces >= 2:
        grid = discretize_surfaces(room, channel.second_bounce_res_m)
    index = {key: i for i, key in enumerate(ends)}
    links = {}
    receiver = view = None
    for tx_id, rx_id in sorted(ends, key=lambda key: key[1]):
        kind, tx, rx = ends[tx_id, rx_id]
        if rx_id != receiver:
            receiver, view = rx_id, receiver_view(rx, room, grid)
        try:
            cir = impulse_response(tx, rx, room, channel, view)
        except UnservableLinkError as exc:
            raise UnservableLinkError(f"link {tx_id}->{rx_id}: {exc}") from None
        links[tx_id, rx_id] = Link(
            index=index[tx_id, rx_id],
            link_id=f"{tx_id}->{rx_id}",
            kind=kind,
            tx_id=tx_id,
            rx_id=rx_id,
            h=(cir.los_gain + cir.first_order_gain) + cir.second_order_gain,
            h_los=cir.los_gain,
            h_reflected=cir.first_order_gain + cir.second_order_gain,
        )
    return {key: links[key] for key in ends}


def build_link_budget(scenario: Scenario) -> LinkBudget:
    """Evaluate every deterministic quantity the outage engines need."""
    terminal = _terminals(scenario)
    steerable = _steering_table(scenario)
    associations = _association_map(scenario, steerable)
    pairings = _relay_pairing_map(scenario, steerable)
    branches = _relay_branch_map(scenario, associations, pairings, steerable)

    # (tx_id, rx_id) -> (kind, tx entry, rx entry) of every link, in link order
    ends: dict[tuple[str, str], tuple] = {}
    for ap_id, served in associations.items():
        for uid in served:
            ends[ap_id, uid] = ("direct", terminal[ap_id], terminal[uid])
    used = {r for brs in branches.values() for _, r in brs}
    for relay in scenario.relays:
        if relay.id in used:
            ends[pairings[relay.id], relay.id] = ("feeder", terminal[pairings[relay.id]], relay)
    for uid, brs in branches.items():
        for _, rid in brs:
            ends[rid, uid] = ("delivery", terminal[rid], terminal[uid])

    links = _links(scenario, ends)
    regions = [
        blocked_region(tx.position_m, rx.position_m, scenario.human) for _, tx, rx in ends.values()
    ]
    allocation = {
        ap_id: order_users_and_allocate(
            terminal[ap_id], served, {uid: links[ap_id, uid].h for uid in served}, scenario.noma
        )
        for ap_id, served in associations.items()
        if served
    }

    terms: list[UserTerms] = []
    for user in scenario.users:
        uid, resp = user.id, user.responsivity_a_per_w
        p_rx = 0.0  # unblocked first-phase power, which sets the shot noise
        d_idx, d_w, i_idx, i_w = [], [], [], []
        for ap_id, alloc in allocation.items():
            if uid not in alloc:
                continue
            h = links[ap_id, uid].h
            p_rx += terminal[ap_id].power_mw * 1e-3 * h
            s = alloc[uid] * resp * h
            d_idx.append(links[ap_id, uid].index)
            d_w.append(s * s)
            for k in _decoded_after(alloc, uid):
                t = alloc[k] * resp * h
                i_idx.append(links[ap_id, k].index)
                i_w.append(t * t)
        bf_idx, bd_idx, b_sig, b_den = [], [], [], []
        for ap_id, rid in branches[uid]:
            alloc = allocation[ap_id]
            feeder, delivery = links[ap_id, rid], links[rid, uid]
            h2 = feeder.h * delivery.h
            s = alloc[uid] * resp * h2
            b_sig.append(s * s)
            interference = sum((alloc[k] * resp * h2) ** 2 for k in _decoded_after(alloc, uid))
            relay_noise = noise_variance(
                scenario.noise,
                terminal[ap_id].power_mw * 1e-3 * feeder.h,
                terminal[rid].responsivity_a_per_w,
            )
            b_den.append(interference + relay_noise)
            bf_idx.append(feeder.index)
            bd_idx.append(delivery.index)
        terms.append(
            UserTerms(
                user_id=uid,
                noise_var=noise_variance(scenario.noise, p_rx, resp),
                direct_idx=np.asarray(d_idx, dtype=np.intp),
                direct_w=np.asarray(d_w, dtype=float),
                int_idx=np.asarray(i_idx, dtype=np.intp),
                int_w=np.asarray(i_w, dtype=float),
                branch_feeder_idx=np.asarray(bf_idx, dtype=np.intp),
                branch_delivery_idx=np.asarray(bd_idx, dtype=np.intp),
                branch_sig_w=np.asarray(b_sig, dtype=float),
                branch_den_w=np.asarray(b_den, dtype=float),
            )
        )

    return LinkBudget(
        scenario=scenario,
        links=tuple(links.values()),
        regions=tuple(regions),
        user_terms=tuple(terms),
    )


def _zero_over_zero_is_zero(num: np.ndarray, den: np.ndarray) -> np.ndarray:
    return np.divide(num, den, out=np.zeros(den.shape), where=num != 0.0)


def evaluate_sinr(budget: LinkBudget, clear: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """SINR of every user for a batch of link states.

    ``clear`` is a boolean (link_count, n) array, True where a link is
    unobstructed; only its last slice is ever copied (see below), and only
    the rows a user gathers meet the float weights, inside the matrix
    products, 2^14 columns (a Monte Carlo block) at a time, which bounds
    their float copies.  Returns
    (direct, combined), each (user_count, n).  The factors are binary, so
    squaring commutes with the gating; an empty index array sums to 0.

    A state's SINR does not depend on where it sits in the batch.  BLAS sums
    a product's last n % 4 columns in another order than the rest, so the
    products run on whole 4-column groups only: a last slice that is no
    whole number of groups is copied into whole groups, padded with blocked
    states.

    A 0/0 term is 0: nothing reaches the user.  Every denominator holds the
    user's noise floor, so only a noise-free user's ratios are guarded.
    """
    clear = np.asarray(clear)
    n = clear.shape[1]
    direct, combined = np.empty((2, len(budget.user_terms), n))
    for lo in range(0, n, 1 << 14):
        part = clear[:, lo : lo + (1 << 14)]
        m = part.shape[1]
        if m % 4:
            part = np.zeros((clear.shape[0], (m + 3) & -4), dtype=clear.dtype)
            part[:, :m] = clear[:, lo:]
        d_out, c_out = direct[:, lo : lo + m], combined[:, lo : lo + m]
        for i, t in enumerate(budget.user_terms):
            div = _zero_over_zero_is_zero if t.noise_var == 0.0 else np.true_divide
            d = div(t.direct_w @ part[t.direct_idx], t.noise_var + t.int_w @ part[t.int_idx])
            gamma = part[t.branch_feeder_idx] * part[t.branch_delivery_idx]
            if budget.scenario.noma.combining == "per_branch":
                # a live branch adds sig / (noise + den), a dead one adds 0
                r = div(t.branch_sig_w, t.noise_var + t.branch_den_w) @ gamma
            else:
                r = div(t.branch_sig_w @ gamma, t.noise_var + t.branch_den_w @ gamma)
            d_out[i] = d[:m]
            np.add(d[:m], r[:m], out=c_out[i])
    return direct, combined


def link_cir(budget: LinkBudget, tx_id: str, rx_id: str):
    """Recompute the unobstructed impulse response of one budget link.

    The budget keeps only the integrated gains; this rebuilds the full
    response, whose paths are binned when its gains are read, for
    inspection or dumping.
    """
    budget.link_index(tx_id, rx_id)  # raises KeyError when absent
    sc = budget.scenario
    terminal = _terminals(sc)
    return impulse_response(terminal[tx_id], terminal[rx_id], sc.room, sc.channel)
