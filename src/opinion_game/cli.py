"""Command-line front end: load or synthesize a topology, assign weights, run
one of the solvers, and emit CSV (stdout or --out); diagnostics go to stderr.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import math
import sys

import numpy as np

from . import harness
from .dynamics import ConvergenceError, iter_phases
from .game import GameSolverError
from .model import BAD, GOOD, Budgets, Network, _as_vector, load_edge_list, validate
from .centrality import compute_profile
from .strategy_dependent import _profile_nodes

#: node count of the synthetic fallback graph used when --graph is omitted
SYNTHETIC_NODES = 300
SYNTHETIC_ATTACH = 2


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return f"{value:.12g}"
    return str(value)


def _emit(rows, header, out_path) -> None:
    stream = open(out_path, "w", newline="", encoding="utf-8") if out_path else sys.stdout
    try:
        writer = csv.writer(stream)
        writer.writerow(header)
        for row in rows:
            writer.writerow([_fmt(v) for v in row])
    finally:
        if out_path:
            stream.close()


def _load_topology(args):
    if args.graph:
        return load_edge_list(args.graph, symmetrize=args.symmetrize)
    print(
        f"no --graph given; using a synthetic preferential-attachment graph "
        f"(n={SYNTHETIC_NODES}, seed={args.seed})",
        file=sys.stderr,
    )
    return harness.ba_graph(SYNTHETIC_NODES, SYNTHETIC_ATTACH, seed=args.seed)


def _scheme(args) -> harness.WeightScheme:
    grid = harness.DEFAULT_W0_GRID if args.w0_grid is None else tuple(args.w0_grid)
    return harness.WeightScheme(camp_base=args.camp_base, w0_grid=grid)


def _network(args, mode: str) -> Network:
    """Topology plus generated weights at the first grid value; initial
    opinions are overridden by --v0."""
    scheme = _scheme(args)
    topology = _load_topology(args)
    net = harness.generate_weights(topology, scheme.w0_grid[0], scheme)
    if args.v0 != 0.0:
        net = dataclasses.replace(net, v0=_as_vector(args.v0, net.n, "v0"))
    problems = validate(net, mode)
    for violation in problems:
        print(f"invalid network: {violation}", file=sys.stderr)
    if problems:
        raise ValueError(f"{len(problems)} constraint violations")
    return net


def _cmd_centrality(args) -> None:
    net = _network(args, "fixed")
    prof = compute_profile(net, orders=args.orders)
    header = ["node", "r", "s"] + [f"r{q}" for q in range(3, args.orders + 1)]
    rows = []
    for i in range(net.n):
        row = [i, float(prof.r[i]), float(prof.s[i])]
        row += [float(vec[i]) for vec in prof.higher]
        rows.append(row)
    _emit(rows, header, args.out)


def _cmd_steady_state(args) -> None:
    mode = args.mode or "fixed"
    net = _network(args, mode)
    zero = np.zeros(net.n)
    v1, v2 = iter_phases(net, [(zero, zero), (zero, zero)], mode)
    print(f"phase opinion sums: {float(v1.sum()):.12g}, {float(v2.sum()):.12g}", file=sys.stderr)
    rows = [[i, float(v1[i]), float(v2[i])] for i in range(net.n)]
    _emit(rows, ["node", "v1", "v2"], args.out)


def _cmd_strategy_fixed(args) -> None:
    net = _network(args, "fixed")
    # with no cap the greedy fill puts the whole budget on the best slot,
    # the farsighted unbounded optimum
    cap = (1.0 if args.cap is None else args.cap) if args.bounded else math.inf
    cells, plans = harness._solve_point(net, "bounded", Budgets(args.kg, args.kb), cap)
    rows = []
    for camp, plan in zip((GOOD, BAD), plans):
        totals = [cells[f"k1_{camp}"], cells[f"k2_{camp}"], cells["objective"]]
        slots = [
            (phase, int(node), float(vec[node]))
            for phase, vec in ((1, plan.x1), (2, plan.x2))
            for node in np.nonzero(vec)[0]
        ]
        if not slots:
            rows.append([camp, None, None, 0.0] + totals)
        for phase, node, amount in slots:
            rows.append([camp, node, phase, amount] + totals)
    print(f"myopic loss (bad camp, kb={args.kb:g}): {cells['myopic_loss']:.12g}",
          file=sys.stderr)
    _emit(rows, ["camp", "node", "phase", "amount", "k1", "k2", "objective"], args.out)


def _cmd_strategy_dep(args) -> None:
    mode = args.mode or "dependency2"
    net = _network(args, "dependency")
    def node(i, spent):  # a phase's node, blank when the camp spends nothing in it
        return None if spent == 0 else i
    # the cap bounds only the fixed-weight plans
    cells, solution = harness._solve_point(net, mode, Budgets(args.kg, args.kb), None)
    if mode == "dependency1":  # the solution is the good camp's plan
        k1, k2 = cells["k1_good"], cells["k2_good"]
        rows = [[node(int(np.argmax(solution.x1)), k1), node(int(np.argmax(solution.x2)), k2),
                 k1, k2, cells["objective"]]]
        _emit(rows, ["alpha", "beta", "kg1", "kg2", "value"], args.out)
        return
    # profiles that differ only in a phase the camp spends nothing in print
    # one schedule: rows are keyed by every cell but g_prob and b_prob, and
    # each camp's probability is summed over its distinct profiles in a row
    schedules = {}
    for a, i in enumerate(solution.row_set):
        p = solution.row_mix[i]
        if p <= harness.SUPPORT_CUTOFF:
            continue
        for b, j in enumerate(solution.col_set):
            q = solution.col_mix[j]
            if q <= harness.SUPPORT_CUTOFF:
                continue
            good, bad = _profile_nodes(i, net.n), _profile_nodes(j, net.n)
            kg1 = float(solution.restricted_kg1[a, b])
            kb1 = float(solution.restricted_kb1[a, b])
            kg2, kb2 = args.kg - kg1, args.kb - kb1
            cells = [solution.value, node(good[0], kg1), node(good[1], kg2),
                     node(bad[0], kb1), node(bad[1], kb2), kg1, kg2, kb1, kb2]
            _, goods, bads = schedules.setdefault(tuple(map(_fmt, cells)), (cells, {}, {}))
            goods[i], bads[j] = float(p), float(q)
    rows = [cells[:3] + [sum(goods.values())] + cells[3:5] + [sum(bads.values())] + cells[5:]
            for cells, goods, bads in schedules.values()]
    header = ["value", "g_alpha", "g_beta", "g_prob",
              "b_gamma", "b_delta", "b_prob", "kg1", "kg2", "kb1", "kb2"]
    _emit(rows, header, args.out)


def _cmd_sweep(args) -> None:
    mode = args.mode or "bounded"
    if args.v0 != 0.0:
        print("note: sweep ignores --v0; every grid point starts from zero initial opinions",
              file=sys.stderr)
    scheme = _scheme(args)
    topology = _load_topology(args)
    rows = harness.sweep_w0(
        topology, scheme, mode, Budgets(args.kg, args.kb),
        bounded_cap=1.0 if args.cap is None else args.cap,
    )
    table = [[row[col] for col in harness.SWEEP_COLUMNS] for row in rows]
    _emit(table, list(harness.SWEEP_COLUMNS), args.out)


def _parse_grid(text: str) -> list[float]:
    try:
        return [float(part) for part in text.split(",") if part.strip()]
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad w0 grid {text!r}; expected comma-separated floats")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="opinion-game",
        description="Two-phase opinion-investment games on social networks",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--graph", help="edge-list file ('src dst [weight]'); synthetic graph if omitted")
    common.add_argument("--symmetrize", action="store_true", help="duplicate each edge in both directions")
    common.add_argument("--kg", type=float, default=100.0, help="good camp budget")
    common.add_argument("--kb", type=float, default=100.0, help="bad camp budget")
    common.add_argument("--camp-base", type=float, default=0.1, dest="camp_base",
                        help="per-camp reference weight at w0=0")
    common.add_argument("--w0-grid", type=_parse_grid, default=None, dest="w0_grid",
                        help="comma-separated bias weights; non-sweep commands use the first value")
    common.add_argument("--v0", type=float, default=0.0,
                        help="constant initial opinion override; sweep ignores it and "
                             "starts every grid point from zero opinions")
    common.add_argument("--cap", type=float, default=None,
                        help="per-node per-phase investment cap (default 1); "
                             "strategy-fixed needs --bounded with it")
    common.add_argument("--out", help="CSV output path (stdout if omitted)")
    common.add_argument("--seed", type=int, default=0, help="seed for synthetic graph generation")

    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("centrality", parents=[common], help="emit per-node influence vectors")
    p.add_argument("--orders", type=int, default=2, help="highest look-ahead order to emit")
    p.set_defaults(func=_cmd_centrality)

    p = sub.add_parser("steady-state", parents=[common], help="two investment-free phases")
    p.add_argument("--mode", choices=["fixed", "dependency"], default="fixed")
    p.set_defaults(func=_cmd_steady_state)

    p = sub.add_parser("strategy-fixed", parents=[common], help="fixed-weight camp strategies")
    p.add_argument("--bounded", action="store_true", help="apply the per-node cap")
    p.set_defaults(func=_cmd_strategy_fixed)

    p = sub.add_parser("strategy-dep", parents=[common], help="bias-dependency strategies")
    p.add_argument("--mode", choices=["dependency1", "dependency2"], default="dependency2")
    p.set_defaults(func=_cmd_strategy_dep)

    p = sub.add_parser("sweep", parents=[common], help="sweep the bias weight grid")
    p.add_argument("--mode", choices=list(harness.SWEEP_MODES), default="bounded")
    p.set_defaults(func=_cmd_sweep)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        Budgets(args.kg, args.kb)  # checked before any work, as sweep checks them
        if args.cap is not None:
            if not args.cap > 0:  # also refuses nan
                raise ValueError("cap must be positive")
            if args.command == "strategy-fixed" and not args.bounded:
                raise ValueError("--cap needs --bounded")
        args.func(args)
    except (ValueError, OSError, ConvergenceError, GameSolverError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
