"""Command line front end.

Subcommands: ``simulate`` (outage probabilities per user), ``blockage``
(per-link blocking probabilities), ``channel`` (link gain matrix and
impulse-response dumps), ``pdf`` (mobility density on a grid), and ``init``
(write the default scenario as YAML).  Every subcommand emits
comma-separated text with a header row; errors exit nonzero with a message
on stderr.
"""

from __future__ import annotations

import argparse
import os
import sys

import numpy as np

from owcrelay.channel import cir_rows
from owcrelay.geometry import regions_contain
from owcrelay.links import build_link_budget, link_cir
from owcrelay.mobility import pdf_xy, peak_density, sample_human_positions
from owcrelay.outage import (
    BLOCK_SIZE,
    ensure_marginals,
    outage_independent_approx,
    outage_monte_carlo,
)
from owcrelay.scenario import (
    default_scenario,
    load_scenario,
    result_lines,
    save_scenario,
    write_results,
)


def _g(x: float) -> str:
    return format(float(x), ".10g")


def _count(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected a non-negative integer, got {text!r}") from None
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be non-negative, got {value}")
    return value


def _load(args):
    if getattr(args, "scenario", None):
        return load_scenario(args.scenario)
    return default_scenario()


def _cmd_simulate(args) -> int:
    if args.method == "exact" and args.blockage_model == "joint":
        print(
            "error: exact enumeration is the independent-link model; "
            "the joint model needs --method mc",
            file=sys.stderr,
        )
        return 2
    if args.format and not args.out:
        print("error: --format needs --out; standard output is always CSV", file=sys.stderr)
        return 2
    scenario = _load(args)
    budget = build_link_budget(scenario)
    if args.method == "exact":
        report = outage_independent_approx(budget)
    else:
        report = outage_monte_carlo(
            budget,
            n_samples=args.samples,
            master_seed=args.seed,
            workers=args.workers,
            blockage_model=args.blockage_model,
        )
    rows = [r for r in report.rows if args.mode in ("both", r.mode)]
    for line in result_lines(rows):
        print(line)
    if args.out:
        write_results(rows, args.out, fmt=args.format or "csv")
    return 0


def _cmd_blockage(args) -> int:
    scenario = _load(args)
    budget = build_link_budget(scenario)
    marginals = ensure_marginals(budget)
    print("link_id,tx,rx,probability,method")
    for link, p in zip(budget.links, marginals):
        print(f"{link.link_id},{link.tx_id},{link.rx_id},{_g(p)},quadrature")
    if args.mc:
        rng = np.random.default_rng(args.seed)
        pts = sample_human_positions(scenario.room, args.mc, rng)
        # hits are counted a block of points at a time, so memory does not grow with
        # --mc; an integer count over n is np.mean of the link's row to the bit
        hits = np.zeros(budget.link_count, dtype=np.int64)
        for lo in range(0, args.mc, BLOCK_SIZE):
            hits += regions_contain(budget.regions, pts[lo : lo + BLOCK_SIZE]).sum(axis=1)
        for link, count in zip(budget.links, hits):
            print(f"{link.link_id},{link.tx_id},{link.rx_id},{_g(count / args.mc)},mc")
    return 0


def _cmd_channel(args) -> int:
    scenario = _load(args)
    budget = build_link_budget(scenario)
    links = [
        ln
        for ln in budget.links
        if (args.tx is None or ln.tx_id == args.tx) and (args.rx is None or ln.rx_id == args.rx)
    ]
    if not links:
        print(f"error: no link matches tx={args.tx!r} rx={args.rx!r}", file=sys.stderr)
        return 2
    if args.cir:
        if len(links) != 1:
            print("error: --cir needs --tx and --rx selecting a single link", file=sys.stderr)
            return 2
        ln = links[0]
        cir = link_cir(budget, ln.tx_id, ln.rx_id)
        print("bin_index,time_s,gain")
        for idx, t, g in cir_rows(cir):
            print(f"{idx},{_g(t)},{_g(g)}")
        return 0
    print("tx_id,rx_id,h,los_gain,reflected_gain")
    for ln in links:
        print(f"{ln.tx_id},{ln.rx_id},{_g(ln.h)},{_g(ln.h_los)},{_g(ln.h_reflected)}")
    return 0


def _cmd_pdf(args) -> int:
    room = _load(args).room
    w, l = room.width_m, room.length_m
    if args.grid:
        n = args.grid
        xs = (np.arange(n) + 0.5) * w / n
        ys = (np.arange(n) + 0.5) * l / n
        print("x,y,density")
        for y in ys:
            for x, d in zip(xs, pdf_xy(room, xs, np.full(n, y))):
                print(f"{_g(x)},{_g(y)},{_g(d)}")
        return 0
    print("quantity,value")
    print(f"peak_density,{_g(peak_density(room))}")
    # per-axis variance of the stationary position, L^2/20
    print(f"variance_x,{_g(w**2 / 20.0)}")
    print(f"variance_y,{_g(l**2 / 20.0)}")
    if args.samples:
        pts = sample_human_positions(room, args.samples, np.random.default_rng(args.seed))
        print(f"sample_var_x,{_g(np.var(pts[:, 0]))}")
        print(f"sample_var_y,{_g(np.var(pts[:, 1]))}")
    return 0


def _cmd_init(args) -> int:
    save_scenario(default_scenario(), args.out)
    print(f"wrote {args.out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="owcrelay",
        description="Indoor steered-beam optical link outage simulator",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="outage probabilities per user")
    sim.add_argument("--scenario", help="YAML scenario file (defaults built in)")
    sim.add_argument("--samples", type=_count, default=None, help="Monte Carlo sample count")
    sim.add_argument("--seed", type=_count, default=None, help="master seed")
    sim.add_argument(
        "--workers", type=_count, default=1, help="worker processes, at most one per block and core"
    )
    sim.add_argument(
        "--mode",
        choices=["direct", "coop", "both"],
        default="both",
        help="print only this mode's rows",
    )
    sim.add_argument(
        "--blockage-model",
        choices=["joint", "independent"],
        default=None,
        help="one pedestrian for all links, or independent per-link states",
    )
    sim.add_argument(
        "--method",
        choices=["mc", "exact"],
        default="mc",
        help="Monte Carlo, or exact enumeration under the independent model",
    )
    sim.add_argument("--out", help="also write rows to this file")
    sim.add_argument("--format", choices=["csv", "jsonl"], help="file format for --out (csv)")
    sim.set_defaults(func=_cmd_simulate)

    blk = sub.add_parser("blockage", help="per-link blocking probabilities")
    blk.add_argument("--scenario")
    blk.add_argument("--mc", type=_count, default=0, help="also estimate from this many samples")
    blk.add_argument("--seed", type=_count, default=1)
    blk.set_defaults(func=_cmd_blockage)

    chn = sub.add_parser("channel", help="link gain matrix, or one link's response")
    chn.add_argument("--scenario")
    chn.add_argument("--tx", help="keep only links from this source id")
    chn.add_argument("--rx", help="keep only links into this receiver id")
    chn.add_argument(
        "--cir",
        action="store_true",
        help="dump the selected link's binned impulse response instead",
    )
    chn.set_defaults(func=_cmd_channel)

    pdf = sub.add_parser("pdf", help="pedestrian position density")
    pdf.add_argument("--scenario")
    pdf.add_argument("--grid", type=_count, default=0, help="dump density at N x N cell centers")
    pdf.add_argument("--samples", type=_count, default=0)
    pdf.add_argument("--seed", type=_count, default=1)
    pdf.set_defaults(func=_cmd_pdf)

    ini = sub.add_parser("init", help="write the default scenario as YAML")
    ini.add_argument("--out", default="scenario.yaml")
    ini.set_defaults(func=_cmd_init)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()  # a reader that has gone shows here, not at shutdown
        return code
    except BrokenPipeError:
        # the reader stopped early (``| head``), which is no failure; the
        # flush at shutdown goes to devnull, so it cannot raise again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0
    except (ValueError, KeyError, OSError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
