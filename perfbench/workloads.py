"""Workload definitions and the seeded input generator of the outage benchmark.

Every workload is a closed loop with one client: the next run starts only
after the previous one has finished.  The workload seed is the only source of
variation; the program receives the generated inputs (a master seed, or a
scenario file), never the workload name.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass

import numpy as np
import yaml

from owcrelay.outage import BLOCK_SIZE

# Tiles of the dense room: 3 x 31 = 93 links and 3 x 4 x 2^16 = 786,432
# enumerated states, small enough for seven repetitions in a 30 s run.
DENSE_TILES = 3

# The max_links ceiling of outage_independent_approx: the generated room must
# keep every user at or below it.
MAX_LINKS_PER_USER = 16


@dataclass(frozen=True)
class Workload:
    name: str
    method: str  # "mc" or "exact"
    blockage_model: str  # "joint" or "independent"
    samples: int  # Monte Carlo sample count; 0 for enumeration
    smoke_samples: int
    pool: bool  # run the CLI and the timed estimate with all cores
    dense: bool  # generated room written as YAML, else the built-in default room

    @property
    def needs_marginals(self) -> bool:
        return self.blockage_model == "independent"


# Why each workload exists is in BENCHMARK.json and README.md.
WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="joint-mc",
            method="mc",
            blockage_model="joint",
            samples=500_000,
            smoke_samples=65_536,
            pool=False,
            dense=False,
        ),
        Workload(
            name="independent-mc-pool",
            method="mc",
            blockage_model="independent",
            samples=1_000_000,
            smoke_samples=65_536,
            pool=True,
            dense=False,
        ),
        Workload(
            name="dense-exact",
            method="exact",
            blockage_model="independent",
            samples=0,
            smoke_samples=0,
            pool=False,
            dense=True,
        ),
    )
}


def usable_cores() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def worker_count(workload: Workload) -> int:
    """All usable cores for the pool workload, capped so a large host does
    not start dozens of worker processes."""
    return min(usable_cores(), 4) if workload.pool else 1


# Each tile is a 2x2 rectangle of ceiling sources over a 2x2 rectangle of
# desk users, mirrored so every user is nearest one source.  The distance
# ranking from each source is then the same for every jitter the generator
# draws, so every user has one interferer more at each source as it gets
# farther away (0 + 1 + 2 + 3), four direct links and three relay branches:
# 4 + 6 + 2 * 3 = 16 links, and the enumeration cost is the same for every
# seed.
_CORNERS = ((-1, -1), (1, -1), (-1, 1), (1, 1))
_TILE_CENTERS = ((1.5, 3.0), (1.5, 9.0), (4.5, 3.0), (4.5, 9.0))


def dense_scenario_doc(seed: int, tiles: int = DENSE_TILES) -> dict:
    """Scenario document of the dense room for one workload seed.

    A 6 x 12 x 3 m room with ``tiles`` groups of four sources, four users and
    three wall relays.  The seed jitters tile centres, user and relay
    positions, and the multiplexing power ratio; the link structure is fixed.
    """
    if not 1 <= tiles <= len(_TILE_CENTERS):
        raise ValueError(f"tiles must lie in [1, {len(_TILE_CENTERS)}]")
    rng = np.random.default_rng([seed, 0x0DE5])
    aps, relays, users = [], [], []
    associations, pairings = {}, {}
    for t, (cx, cy) in enumerate(_TILE_CENTERS[:tiles]):
        wall = 0.0 if cx < 3.0 else 6.0
        cx += rng.uniform(-0.1, 0.1)
        cy += rng.uniform(-0.3, 0.3)
        ap_ids = []
        for k, (sx, sy) in enumerate(_CORNERS):
            ap_id = f"ap{t}{k}"
            ap_ids.append(ap_id)
            aps.append({"id": ap_id, "position_m": [_r(cx + 0.8 * sx), _r(cy + 0.5 * sy), 3.0]})
        user_ids = []
        for k, (sx, sy) in enumerate(_CORNERS):
            user_id = f"u{t}{k}"
            user_ids.append(user_id)
            x = cx + 0.4 * sx + rng.uniform(-0.05, 0.05)
            y = cy + 0.2 * sy + rng.uniform(-0.05, 0.05)
            users.append({"id": user_id, "position_m": [_r(x), _r(y), 1.0]})
        for ap_id in ap_ids:
            associations[ap_id] = list(user_ids)
        # the two sources on the wall side feed the tile's relays
        near = (ap_ids[0], ap_ids[2]) if wall == 0.0 else (ap_ids[1], ap_ids[3])
        for k, dy in enumerate((-0.9, 0.0, 0.9)):
            relay_id = f"r{t}{k}"
            y = cy + dy + rng.uniform(-0.1, 0.1)
            z = rng.uniform(1.3, 1.6)
            relays.append({"id": relay_id, "position_m": [wall, _r(y), _r(z)]})
            pairings[relay_id] = near[0] if k == 0 else near[1] if k == 2 else near[t % 2]
    return {
        "name": f"dense-{seed}",
        "description": "generated benchmark room: tiles of four sources, four users, three relays",
        "room": {"width_m": 6.0, "length_m": 12.0, "height_m": 3.0},
        "noma": {"power_ratio": _r(rng.uniform(7.0, 9.0))},
        "aps": aps,
        "relays": relays,
        "users": users,
        "associations": associations,
        "relay_pairings": pairings,
    }


def _r(x: float) -> float:
    return round(float(x), 4)


def write_dense_scenario(seed: int, path, tiles: int = DENSE_TILES) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        yaml.safe_dump(dense_scenario_doc(seed, tiles), fh, sort_keys=False)


def links_per_user(budget) -> list[int]:
    """Number of distinct links entering each user's SINR (m)."""
    return [
        int(
            np.unique(
                np.concatenate(
                    [t.direct_idx, t.int_idx, t.branch_feeder_idx, t.branch_delivery_idx]
                )
            ).size
        )
        for t in budget.user_terms
    ]


def input_properties(workload: Workload, budget, samples: int, workers: int) -> dict:
    """Input properties that decide the work of one run.

    ``states`` is the number of link-state columns the estimator must
    evaluate: the sample count for Monte Carlo, sum of 2^m for enumeration.
    ``blocks`` is the number of Monte Carlo blocks, or of per-user
    enumeration batches.
    """
    ms = links_per_user(budget)
    if workload.method == "exact":
        if max(ms) > MAX_LINKS_PER_USER:
            raise ValueError(f"a user depends on {max(ms)} links (ceiling {MAX_LINKS_PER_USER})")
        states = sum(1 << m for m in ms)
        blocks = len(ms)
    else:
        states = samples
        blocks = math.ceil(samples / BLOCK_SIZE)
    return {
        "links": budget.link_count,
        "users": len(ms),
        "max_m": max(ms),
        "sum_2_pow_m": sum(1 << m for m in ms),
        "samples": samples,
        "states": states,
        "blocks": blocks,
        "workers": workers,
    }
