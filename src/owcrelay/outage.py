"""Outage statistics of the direct and relay-combined links.

Two engines share the compiled link budget.  The Monte Carlo engine draws
blocker positions (or, optionally, independent per-link states) in fixed
blocks with per-block seeds derived from the master seed, so the result is
identical no matter how many worker processes execute the blocks.  Under
the joint model :class:`~owcrelay.geometry.FloorCells` finds the floor
cells that no region boundary crosses.  A run keeps one table of the link
states it has met, each packed into 64-bit words and indexed by its folded
key, and numbers the states of those cells in it when it starts.  A
sample there takes its cell's number; any other sample is tested exactly,
against its cell's undecided regions only, and its packed state is looked
up in the table.  Only a state the run has not met goes through the SINR,
so each is evaluated once a run (the default room's 500k-sample run meets
78), and a block counts its samples by one bincount of their numbers.
Under the independent model a block draws its uniforms in row slices of
about 1 MB, and compares and packs each slice into 64-bit words while it
is still in cache.  It then evaluates each distinct link state of its
draws once, counting it as often as it was drawn: the default room's
16,384-sample block holds about 960.  A row of at most 64 links is its own
64-bit key, so :func:`_distinct_rows` counts such states by sorting the
keys alone; wider rows go through an argsort of folded keys,
:func:`_sorted_runs`.  A process pool, of at most one worker per block and
per usable core, gives each worker one run of blocks.
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
from owcrelay.geometry import FloorCells, _covers
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


class _JointTable:
    """The floor cells of a joint run over the budget's room, and the table
    of the link states the run has met.

    ``words`` holds each state packed, numbered in the order the run met
    it, and ``outage`` its direct and coop outage, boolean (states,
    users * 2).  ``keys`` holds their folded keys, sorted, with the number
    of each in ``key_state``; a key found there is checked word by word, so
    two states that share a key keep a number each.  ``cell_words`` is
    each cell's packed ``inside`` row and ``cell_state`` the number of its
    state, -1 in an undecided cell; ``near_bits`` is (words, pairs), the
    one-bit word of each undecided pair's region.  The decided cells'
    states are numbered when the table is built, and a state the run meets
    later joins it.  No count depends on the numbers, so a pool worker's
    table may number its states in another order.
    """

    def __init__(self, budget: LinkBudget):
        cells = FloorCells(budget.regions, budget.scenario.room, budget.scenario.human)
        links = budget.link_count
        self.cells = cells
        self.cell_words = _zero_words(cells.count, links)
        _pack_rows(cells.inside, self.cell_words)
        bits = _zero_words(links, links)
        _pack_rows(np.eye(links, dtype=bool), bits)
        self.near_bits = np.ascontiguousarray(bits[cells.near].T)
        self.words = self.cell_words[:0]
        self.outage = np.zeros((0, 2 * len(budget.user_terms)), dtype=bool)
        self.keys = np.zeros(0, dtype=np.uint64)
        self.key_state = np.zeros(0, dtype=np.intp)
        self.cell_state = np.full(cells.count, -1, dtype=np.intp)
        self.cell_state[cells.decided] = self.number(budget, self.cell_words[cells.decided])

    def states_at(self, budget: LinkBudget, x, y) -> np.ndarray:
        """The state number of each floor point (x, y).  A point in an
        undecided cell takes its cell's ``inside`` row with a bit set for
        each of the cell's undecided regions that covers it."""
        cells = self.cells
        cell = cells.cell_of(x, y)
        state = self.cell_state[cell]
        near = np.flatnonzero(state < 0)
        cell = cell[near]
        lo = cells.start[cell]
        runs = cells.start[cell + 1] - lo
        first = np.cumsum(runs) - runs
        # pair i belongs to point k[i] and sits at its cell's run start plus
        # its rank within the point's run; every run holds at least one pair
        k = near[np.repeat(np.arange(len(cell)), runs)]
        pair = np.arange(k.size) + np.repeat(lo - first, runs)
        hit = _covers(x[k], y[k], *cells.spines[:, cells.near[pair]])
        words = self.cell_words[cell]
        for word, bits in zip(words.T, self.near_bits):
            word |= np.bitwise_or.reduceat(bits[pair] * hit, first)
        state[near] = self.number(budget, words)
        return state

    def number(self, budget: LinkBudget, words: np.ndarray) -> np.ndarray:
        """The number of each packed link state of ``words``; the states
        the table does not hold join it."""
        key = _folded_keys(words)
        state = self._find(words, key)
        miss = np.flatnonzero(state < 0)
        while miss.size:
            # one miss of each key joins the table as a new state, and each
            # miss equal to it takes its number; a miss that only shares its
            # key is none of the table's states, and joins it next time
            _, first, of = np.unique(key[miss], return_index=True, return_inverse=True)
            new = miss[first]
            self._add(budget, words[new], key[new])
            same = (words[miss] == words[new[of]]).all(axis=1)
            state[miss[same]] = len(self.words) - len(new) + of[same]
            miss = miss[~same]
        return state

    def _find(self, words, key):
        """The number of each packed state of ``words`` with folded ``key``,
        or -1 where the table does not hold it."""
        n = len(self.keys)
        if not n:
            return np.full(len(key), -1, dtype=np.intp)
        # a key past the last compares with the last, which differs from it
        at = np.minimum(np.searchsorted(self.keys, key), n - 1)
        state = self.key_state[at]
        hit = (self.words[state] == words).all(axis=1)
        state[~hit] = -1
        # the states of one key sit side by side: a miss whose key the table
        # holds tries the next ones until one is equal
        todo = np.flatnonzero(~hit & (self.keys[at] == key))
        while todo.size:
            at[todo] += 1
            todo = todo[at[todo] < n]
            todo = todo[self.keys[at[todo]] == key[todo]]
            s = self.key_state[at[todo]]
            hit = (self.words[s] == words[todo]).all(axis=1)
            state[todo[hit]] = s[hit]
            todo = todo[~hit]
        return state

    def _add(self, budget, words, key):
        """Number the new packed states ``words``, of folded ``key``, after
        the table's last, with their outage from one SINR call."""
        rows = _unpack_rows(words, budget.link_count)
        outage = _outage(budget, ~np.ascontiguousarray(rows.T))
        number = np.arange(len(self.words), len(self.words) + len(words))
        self.words = np.concatenate([self.words, words])
        self.outage = np.concatenate([self.outage, outage.reshape(self.outage.shape[1], -1).T])
        keys = np.concatenate([self.keys, key])
        order = np.argsort(keys, kind="stable")
        self.keys, self.key_state = keys[order], np.concatenate([self.key_state, number])[order]


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


def _unpack_rows(words: np.ndarray, columns: int) -> np.ndarray:
    """The boolean rows, of ``columns`` links, packed in ``words``."""
    return np.unpackbits(words.view(np.uint8), axis=1, count=columns).view(bool)


def _folded_keys(words: np.ndarray) -> np.ndarray:
    """The key of each packed row of ``words``: its words folded into one;
    a row of one word is its own key."""
    key = words[:, 0].copy()
    for word in words.T[1:]:
        key *= _KEY_MULTIPLIER
        key ^= word
    return key


def _sorted_runs(words: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The order that groups the packed rows ``words`` into runs of equal
    rows, and where each run starts in ``words[order]``.

    Each row's words fold into one key (:func:`_folded_keys`).  Equal rows
    share a key, so they sort next to each other, and a run ends
    wherever the words change.  Two different rows that share a key can
    split a run, which lists their state twice but never counts a row
    under another state.  A run starts at the first row, if any.
    """
    order = np.argsort(_folded_keys(words))
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
    return _unpack_rows(distinct, columns), counts


# An independent block draws its uniforms in row slices of about this many
# bytes, each compared and packed while it is still in cache.  Numpy fills
# an array from the stream in row-major order, so the slices hold the draws
# of one (n, links) array, whatever their size.
_DRAW_SLICE_BYTES = 1 << 20


def _run_block(budget, master_seed, model, n_total, table, block_index):
    """Direct and coop outage counts of every user, shape (users, 2), over
    block ``block_index`` of a ``n_total``-sample run; ``table`` is the
    joint run's :class:`_JointTable`.  A joint block counts its samples by
    their state numbers, and a state the run has not met joins the table.
    An independent block draws, compares and packs its link states a slice
    of rows at a time, and counts by distinct states."""
    n = min(BLOCK_SIZE, n_total - block_index * BLOCK_SIZE)
    rng = np.random.default_rng([master_seed, block_index])
    if model == "joint":
        pts = sample_human_positions(budget.scenario.room, n, rng)
        state = table.states_at(budget, pts[:, 0], pts[:, 1])
        return (np.bincount(state, minlength=len(table.outage)) @ table.outage).reshape(-1, 2)
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
    table = _JointTable(budget) if model == "joint" else None
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
        # 1 marks a link of the direct half, 2 one of the relay half, 3 both
        half_of = np.zeros(budget.link_count, dtype=np.int8)
        half_of[t.direct_idx] = half_of[t.int_idx] = 1
        half_of[t.branch_feeder_idx] |= 2
        half_of[t.branch_delivery_idx] |= 2
        if (half_of == 3).any():
            raise ValueError(f"user {t.user_id!r}: a link enters both its direct and relayed SINR")
        direct_half, relay_half = np.flatnonzero(half_of == 1), np.flatnonzero(half_of == 2)
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
