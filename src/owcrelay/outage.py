"""Outage statistics of the direct and relay-combined links.

Two engines share the compiled link budget.  The Monte Carlo engine draws
blocker positions (or, optionally, independent per-link states) in fixed
blocks with per-block seeds derived from the master seed, so the result is
identical no matter how many worker processes execute the blocks.  The
enumeration engine walks every clear/blocked combination of the links a user
depends on, weighting by quadrature marginals, under the independent-link
model.
"""

from __future__ import annotations

import functools
import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

from owcrelay.links import LinkBudget, evaluate_sinr
from owcrelay.mobility import RwpDistribution, region_probability, sample_human_positions

__all__ = [
    "BLOCK_SIZE",
    "MAX_LINKS",
    "OutageRow",
    "OutageReport",
    "is_outage",
    "outage_monte_carlo",
    "outage_independent_approx",
]

# Monte Carlo work is split into fixed blocks; block b is always generated
# from seed sequence [master_seed, b], so worker count cannot change results.
BLOCK_SIZE = 16384

# Enumeration visits 2^m link states for a user that depends on m links.
MAX_LINKS = 16


def threshold_linear(threshold_db: float) -> float:
    return 10.0 ** (threshold_db / 10.0)


def is_outage(sinr, threshold_db: float):
    """SINR at or below the threshold counts as outage."""
    return np.asarray(sinr) <= threshold_linear(threshold_db)


@dataclass(frozen=True)
class OutageRow:
    user_id: str
    mode: str  # "direct" or "coop"
    p_out: float
    stderr: float
    n_samples: int
    threshold_db: float
    seed: int


@dataclass(frozen=True)
class OutageReport:
    rows: tuple[OutageRow, ...]
    method: str
    blockage_model: str

    def by_user(self, user_id: str, mode: str) -> OutageRow:
        for row in self.rows:
            if row.user_id == user_id and row.mode == mode:
                return row
        raise KeyError(f"no row for {user_id!r} / {mode!r}")


def _report(budget, p_out, method, model, n_samples=0, seed=0) -> OutageReport:
    """Direct and coop rows of every user from ``p_out`` of shape (users, 2);
    the Monte Carlo standard error when ``n_samples`` is set, else 0."""
    rows = []
    for t, pair in zip(budget.user_terms, p_out):
        for mode, p in zip(("direct", "coop"), pair):
            se = math.sqrt(p * (1.0 - p) / n_samples) if n_samples else 0.0
            rows.append(
                OutageRow(
                    user_id=t.user_id,
                    mode=mode,
                    p_out=float(p),
                    stderr=float(se),
                    n_samples=n_samples,
                    threshold_db=budget.threshold_db,
                    seed=seed,
                )
            )
    return OutageReport(rows=tuple(rows), method=method, blockage_model=model)


def _mobility(budget: LinkBudget) -> RwpDistribution:
    return RwpDistribution(x_extent=budget.room.width, y_extent=budget.room.length)


def ensure_marginals(budget: LinkBudget) -> np.ndarray:
    """Per-link blocking probabilities under the stationary mobility law,
    computed once per budget at the default relative tolerance (1e-4) of
    :func:`~owcrelay.mobility.region_probability` and cached on it."""
    if budget.marginals is None:
        if budget.scenario.human.count == 0:
            budget.marginals = np.zeros(budget.link_count)
        else:
            dist = _mobility(budget)
            budget.marginals = np.array([region_probability(r, dist) for r in budget.regions])
    return budget.marginals


def _run_block(budget, dist, master_seed, model, block_index, n):
    """Direct and coop outage counts of every user, shape (users, 2), over
    block ``block_index`` of ``n`` samples."""
    rng = np.random.default_rng([master_seed, block_index])
    links = budget.link_count
    if budget.scenario.human.count == 0:
        clear = np.ones((links, n))
    elif model == "joint":
        pts = sample_human_positions(dist, n, rng)
        clear = np.empty((links, n))
        for j, region in enumerate(budget.regions):
            clear[j] = ~region.contains(pts)
    else:
        u = rng.random((n, links))
        clear = (u >= budget.marginals[None, :]).T.astype(float)
    return np.stack(
        [np.sum(is_outage(s, budget.threshold_db), axis=1) for s in evaluate_sinr(budget, clear)],
        axis=1,
    ).astype(np.int64)


def outage_monte_carlo(
    budget: LinkBudget,
    n_samples: int | None = None,
    master_seed: int | None = None,
    workers: int = 1,
    blockage_model: str | None = None,
) -> OutageReport:
    """Monte Carlo outage probabilities, direct and coop, per user.

    ``blockage_model`` is "joint" (one pedestrian position drives all links
    of a sample, the physical model) or "independent" (each link flips its
    own coin with the quadrature marginal).  Sample count, seed, and model
    default to the scenario's sampler block.
    """
    sampler = budget.scenario.sampler
    n_total = int(n_samples if n_samples is not None else sampler.samples)
    seed = int(master_seed if master_seed is not None else sampler.seed)
    model = blockage_model if blockage_model is not None else sampler.blockage_model
    if model not in ("joint", "independent"):
        raise ValueError(f"unknown blockage model {model!r}")
    if n_total < 1:
        raise ValueError("sample count must be at least 1")
    if model == "independent":
        ensure_marginals(budget)

    sizes = [min(BLOCK_SIZE, n_total - start) for start in range(0, n_total, BLOCK_SIZE)]
    run = functools.partial(_run_block, budget, _mobility(budget), seed, model)
    if workers <= 1:
        counts = sum(map(run, range(len(sizes)), sizes))
    else:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            counts = sum(pool.map(run, range(len(sizes)), sizes))
    return _report(budget, counts / n_total, "mc", model, n_samples=n_total, seed=seed)


def outage_independent_approx(budget: LinkBudget) -> OutageReport:
    """Exact outage probabilities, direct and coop, under the
    independent-link model.

    For each user, every clear/blocked combination of the links entering its
    SINR is enumerated and weighted by the product of quadrature marginals.
    Exact for a user hanging off a single link; elsewhere it ignores the
    correlation one walking blocker induces across links.  Raises when a
    user depends on more than ``MAX_LINKS`` links; use the Monte Carlo
    engine there instead.
    """
    p = ensure_marginals(budget)
    p_out = np.empty((len(budget.user_terms), 2))
    for i, t in enumerate(budget.user_terms):
        involved = np.unique(
            np.concatenate(
                [t.direct_idx, t.int_idx, t.branch_feeder_idx, t.branch_delivery_idx]
            )
        )
        m = involved.size
        if m > MAX_LINKS:
            raise ValueError(
                f"user {t.user_id!r} depends on {m} links (limit {MAX_LINKS}); "
                "use outage_monte_carlo with blockage_model='independent'"
            )
        size = 1 << m
        combos = np.arange(size)
        clear = np.ones((budget.link_count, size))
        prob = np.ones(size)
        for j, link_idx in enumerate(involved):
            bit = (combos >> j) & 1
            clear[link_idx] = bit
            prob *= np.where(bit == 1, 1.0 - p[link_idx], p[link_idx])
        for k, sinr in enumerate(evaluate_sinr(budget, clear)):
            p_out[i, k] = np.sum(prob[is_outage(sinr[i], budget.threshold_db)])
    return _report(budget, p_out, "exact", "independent")
