"""Outage statistics of the direct and relay-combined links.

Two engines share the compiled link budget.  The Monte Carlo engine draws
blocker positions (or, optionally, independent per-link states) in fixed
blocks with per-block seeds derived from the master seed, so the result is
identical no matter how many worker processes execute the blocks.  Under
the joint model :class:`~owcrelay.geometry.FloorCells` finds the floor
cells that no region boundary crosses, and a run decides, once, the outage
of each distinct link state of those cells; a sample there is counted by
its cell's state, and only the other samples are tested exactly and go
through the SINR.  Under the independent model a block draws its uniforms
in row slices of about 1 MB, and compares and packs each slice into 64-bit
words while it is still in cache.  It then evaluates each distinct link
state of its draws once, counting it as often as it was drawn: the default
room's 16,384-sample block holds about 960.  A row of at most 64 links is
its own 64-bit key, so :func:`_distinct_rows` counts such states by sorting
the keys alone; wider rows, and the joint model's numbering of its cells,
go through an argsort of folded keys, :func:`_sorted_runs`.  A process
pool, of at most one worker per block and per usable core, gives each
worker one run of blocks.
The enumeration engine works under the independent-link model, weighting by
the link marginals that :mod:`owcrelay.mobility` integrates: a user's
direct SINR and relayed SINR hang off disjoint links, so it takes the
clear/blocked states of each half separately, side by side in one SINR pass
for that user alone, and merges the two through one sorted cumulative sum.
"""

from __future__ import annotations

import functools
import math
import os
from dataclasses import dataclass, replace

import numpy as np

from owcrelay import mobility
from owcrelay.geometry import FloorCells
from owcrelay.links import LinkBudget, evaluate_sinr
from owcrelay.mobility import sample_human_positions

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

# Enumeration visits 2^a + 2^b link states for a user whose direct SINR
# depends on a links and whose relayed SINR depends on b links; the cap
# applies to each half.
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
                    threshold_db=budget.scenario.noma.threshold_db,
                    seed=seed,
                )
            )
    return OutageReport(rows=tuple(rows), method=method, blockage_model=model)


def ensure_marginals(budget: LinkBudget) -> np.ndarray:
    """Per-link blocking probabilities under the stationary mobility law,
    computed once per budget at the default relative tolerance (1e-4) of
    :func:`~owcrelay.mobility.integrate_region` and cached on it.  The
    integral is read off its module, so a wrapper set there sees the call."""
    if budget.marginals is None:
        budget.marginals = mobility.integrate_region(budget.regions, budget.scenario.room)
    return budget.marginals


def _outage(budget: LinkBudget, clear) -> np.ndarray:
    """Direct and coop outage of every user in each link state of
    ``clear``, boolean (users, 2, n)."""
    sinr = evaluate_sinr(budget, clear)
    return np.stack([is_outage(s, budget.scenario.noma.threshold_db) for s in sinr], axis=1)


def _joint_table(budget: LinkBudget) -> tuple[FloorCells, np.ndarray, np.ndarray]:
    """The floor cells of a joint run over the budget's room, each cell's
    link state, numbered by :func:`_sorted_runs`, and the outage of each
    state: boolean (states + 1, users * 2), the direct and coop outage of
    every user, and a last row of zeros, the undecided cells' state."""
    cells = FloorCells(budget.regions, budget.scenario.room, budget.scenario.human)
    decided = np.flatnonzero(cells.decided)
    words = _zero_words(len(decided), budget.link_count)
    _pack_rows(cells.inside[decided], words)
    order, start = _sorted_runs(words)
    states = cells.inside[decided[order[start]]]
    state = np.full(cells.count, len(states), dtype=np.int32)
    state[decided[order]] = np.repeat(
        np.arange(len(states), dtype=np.int32), np.diff(start, append=len(order))
    )
    outage = np.zeros((len(states) + 1, 2 * len(budget.user_terms)), dtype=bool)
    outage[:-1] = _outage(budget, ~np.ascontiguousarray(states.T)).reshape(outage.shape[1], -1).T
    return cells, state, outage


# Boolean link rows are packed by ``np.packbits`` into whole 64-bit words,
# at least one a row, zero-padded.  An odd 64-bit multiplier: each further
# word of a wider row is folded into the row's sort key as
# ``key * _KEY_MULTIPLIER ^ word``.
_KEY_MULTIPLIER = np.uint64(0x9E3779B97F4A7C15)


def _zero_words(n: int, columns: int) -> np.ndarray:
    return np.zeros((n, max(1, -(-columns // 64))), dtype=np.uint64)


def _pack_rows(rows: np.ndarray, words: np.ndarray) -> None:
    """Pack the boolean ``rows`` into ``words`` from :func:`_zero_words`."""
    packed = np.packbits(rows, axis=1)
    words.view(np.uint8)[:, : packed.shape[1]] = packed


def _sorted_runs(words: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The order that groups the packed rows ``words`` into runs of equal
    rows, and where each run starts in ``words[order]``.

    Each row's words fold into one key; a row of one word is its own key.
    Equal rows share a key, so they sort next to each other, and a run ends
    wherever the words change.  Two different rows that share a key can
    split a run, which lists their state twice but never counts a row
    under another state.  A run starts at the first row, if any.
    """
    key = words[:, 0].copy()
    for word in words.T[1:]:
        key *= _KEY_MULTIPLIER
        key ^= word
    order = np.argsort(key)
    change = np.zeros(max(0, len(order) - 1), dtype=bool)
    for word in words.T:
        word = word[order]
        change |= word[1:] != word[:-1]
    start = np.flatnonzero(np.r_[True, change])[: len(order)]
    return order, start


def _distinct_rows(words: np.ndarray, columns: int) -> tuple[np.ndarray, np.ndarray]:
    """The distinct rows, of ``columns`` booleans, among the rows packed in
    ``words``, and how many times each occurs.

    A row of at most 64 columns is one word, and the words themselves are
    sorted, with no order kept, so each row is listed once.  Wider rows go
    through :func:`_sorted_runs`, which may list one row twice, each time
    with some of its count.
    """
    if words.shape[1] == 1:
        distinct, counts = np.unique(words, return_counts=True)
        distinct = distinct[:, None]
    else:
        order, start = _sorted_runs(words)
        distinct, counts = words[order[start]], np.diff(start, append=len(order))
    return np.unpackbits(distinct.view(np.uint8), axis=1, count=columns).view(bool), counts


# An independent block draws its uniforms in row slices of about this many
# bytes, each compared and packed while it is still in cache.  Numpy fills
# an array from the stream in row-major order, so the slices hold the draws
# of one (n, links) array, whatever their size.
_DRAW_SLICE_BYTES = 1 << 20


def _run_block(budget, master_seed, model, n_total, table, block_index):
    """Direct and coop outage counts of every user, shape (users, 2), over
    block ``block_index`` of a ``n_total``-sample run; ``table`` is the
    joint run's ``(cells, state, outage)`` from :func:`_joint_table`.  A
    joint sample in a decided cell counts by its cell's state; the others
    are tested exactly.  An independent block draws, compares and packs its
    link states a slice of rows at a time, and counts by distinct states."""
    n = min(BLOCK_SIZE, n_total - block_index * BLOCK_SIZE)
    rng = np.random.default_rng([master_seed, block_index])
    if model == "joint":
        pts = sample_human_positions(budget.scenario.room, n, rng)
        x, y = pts[:, 0], pts[:, 1]
        cells, cell_state, outage = table
        cell = cells.cell_of(x, y)
        state = cell_state[cell]
        counts = np.bincount(state, minlength=len(outage)) @ outage
        near = np.flatnonzero(state == len(outage) - 1)
        clear = ~cells.contain(x[near], y[near], cell[near])
        return counts.reshape(-1, 2) + _outage(budget, clear).sum(axis=2)
    links = budget.link_count
    words = _zero_words(n, links)
    # one reused slice of uniforms, at least one row even without links
    u = np.empty((min(n, max(1, _DRAW_SLICE_BYTES // (8 * max(1, links)))), links))
    clear = np.empty(u.shape, dtype=bool)
    for lo in range(0, n, len(u)):
        m = min(len(u), n - lo)
        rng.random(out=u[:m])
        np.greater_equal(u[:m], budget.marginals, out=clear[:m])
        _pack_rows(clear[:m], words[lo : lo + m])
    states, counts = _distinct_rows(words, links)
    return _outage(budget, np.ascontiguousarray(states.T)) @ counts


# The pool class of a run with more than one worker.  None takes
# concurrent.futures', imported only then, so a serial run never loads the
# process pool or multiprocessing; perfbench sets a counting pool here.
ProcessPoolExecutor = None

# A pool worker's run, ``_run_block`` with all but the block index bound, set
# once per worker by its initializer; the parent process never sets it.
_pool_run = None


def _usable_cores() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _keep_pool_run(run):
    global _pool_run
    _pool_run = run


def _run_pool_block(block_index):
    return _pool_run(block_index)


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
    default to the scenario's sampler section, whose rules judge the values
    given: a bad one raises a ``ScenarioError`` naming the field
    (``samples: must lie in [1, 4294967296]``) before any block runs.
    """
    given = {"samples": n_samples, "seed": master_seed, "blockage_model": blockage_model}
    sampler = replace(budget.scenario.sampler, **{k: v for k, v in given.items() if v is not None})
    n_total, seed, model = sampler.samples, sampler.seed, sampler.blockage_model
    if model == "independent":
        ensure_marginals(budget)

    blocks = range(-(-n_total // BLOCK_SIZE))
    table = _joint_table(budget) if model == "joint" else None
    run = functools.partial(_run_block, budget, seed, model, n_total, table)
    # a worker without a block would only start up, one without a core only wait
    workers = min(workers, len(blocks), _usable_cores())
    if workers <= 1:
        counts = sum(map(run, blocks))
    else:
        pool_class = ProcessPoolExecutor
        if pool_class is None:
            from concurrent.futures import ProcessPoolExecutor as pool_class
        with pool_class(max_workers=workers, initializer=_keep_pool_run, initargs=(run,)) as pool:
            # one task per worker, a contiguous run of blocks
            counts = sum(pool.map(_run_pool_block, blocks, chunksize=-(-len(blocks) // workers)))
    return _report(budget, counts / n_total, "mc", model, n_samples=n_total, seed=seed)


def _outage_cut(d: np.ndarray, r: np.ndarray, threshold_db: float) -> np.ndarray:
    """For each direct SINR in ``d``, the number of leading entries of the
    ascending ``r`` with ``is_outage(d + r)``.

    Rounding is monotone, so those entries are a prefix of ``r``.  The
    search on ``thr - d`` can miss its end by an ulp either way; each fix
    step moves a cut over a whole run of equal ``r``, up or down.
    """
    cut = np.searchsorted(r, threshold_linear(threshold_db) - d, side="right")
    while True:
        up = cut < r.size
        up[up] = is_outage(d[up] + r[cut[up]], threshold_db)
        down = cut > 0
        down[down] = ~is_outage(d[down] + r[cut[down] - 1], threshold_db)
        if not (up.any() or down.any()):
            return cut
        cut[up] = np.searchsorted(r, r[cut[up]], side="right")
        cut[down] = np.searchsorted(r, r[cut[down] - 1], side="left")


def outage_independent_approx(budget: LinkBudget) -> OutageReport:
    """Exact outage probabilities, direct and coop, under the
    independent-link model.

    A user's direct SINR d hangs off its direct and interfering links, its
    relayed SINR r off its relay branches' links, so under independence d
    and r are independent.  One SINR pass per user, on the budget holding
    its terms alone, takes both halves' states, each weighted by products
    of quadrature marginals: d from the direct-half columns, r as the
    combined SINR of the relay-half ones, where every direct-half link is
    blocked and d is exactly 0.0.  P(d + r in outage) is summed over d from
    the cumulative distribution of sorted r.  This ignores the correlation
    one walking blocker induces across links.  Raises when either half
    exceeds ``MAX_LINKS`` links; use the Monte Carlo engine there instead.
    """
    p = ensure_marginals(budget)
    threshold_db = budget.scenario.noma.threshold_db
    p_out = np.empty((len(budget.user_terms), 2))
    # the states of m links, by m: state k clears link j when bit j of k is set
    bits = {}
    for i, t in enumerate(budget.user_terms):
        direct_half = np.unique(np.concatenate([t.direct_idx, t.int_idx]))
        relay_half = np.unique(np.concatenate([t.branch_feeder_idx, t.branch_delivery_idx]))
        if np.intersect1d(direct_half, relay_half).size:
            raise ValueError(f"user {t.user_id!r}: a link enters both its direct and relayed SINR")
        prob = []
        for name, half in (("direct", direct_half), ("relay", relay_half)):
            if half.size > MAX_LINKS:
                raise ValueError(
                    f"user {t.user_id!r} depends on {half.size} {name} links "
                    f"(limit {MAX_LINKS} per half); "
                    "use outage_monte_carlo with blockage_model='independent'"
                )
            if half.size not in bits:
                k = np.arange(1 << half.size, dtype=np.uint32)
                bits[half.size] = (k >> np.arange(half.size, dtype=np.uint32)[:, None]) & 1 == 1
            prob.append(np.where(bits[half.size], 1.0 - p[half, None], p[half, None]).prod(axis=0))
        p_d, p_r = prob
        # both halves side by side, every other link blocked
        clear = np.zeros((budget.link_count, p_d.size + p_r.size), dtype=bool)
        clear[direct_half, : p_d.size] = bits[direct_half.size]
        clear[relay_half, p_d.size :] = bits[relay_half.size]
        direct, combined = evaluate_sinr(replace(budget, user_terms=(t,)), clear)
        d, r = direct[0, : p_d.size], combined[0, p_d.size :]
        order = np.argsort(r, kind="stable")
        below = np.concatenate([[0.0], np.cumsum(p_r[order])])
        p_out[i, 0] = np.sum(p_d[is_outage(d, threshold_db)])
        p_out[i, 1] = np.sum(p_d * below[_outage_cut(d, r[order], threshold_db)])
    return _report(budget, p_out, "exact", "independent")
