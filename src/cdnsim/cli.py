"""Command-line front end: place, assign, simulate, pareto, validate.

Every command but validate writes deterministic, header-first CSV/JSON files
into --out and prints a short human summary to stdout. Exit codes: 0 ok,
1 invalid configuration, 2 infeasible request, 3 I/O failure.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from pathlib import Path
from typing import TYPE_CHECKING

# Only these two modules load with the CLI. The others import numpy, so each
# command imports what it calls: validate, --help and usage errors run without it.
from .errors import OPTIMIZERS, POLICIES, SWEEP_AXES, InfeasibleError, ValidationError
from .topology import Topology, parse_topology

if TYPE_CHECKING:
    from .assignment import BatchRecord
    from .profiles import UserGroup
    from .simulation import Scenario

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_INFEASIBLE = 2
EXIT_IO = 3
_EXIT_CODES = {InfeasibleError: EXIT_INFEASIBLE, ValidationError: EXIT_CONFIG, OSError: EXIT_IO}


class _Parser(argparse.ArgumentParser):
    """argparse that reports usage problems as config errors (exit 1)."""

    def error(self, message):
        self.print_usage(sys.stderr)
        raise ValidationError(message)


def _add_common(p: argparse.ArgumentParser):
    p.add_argument("--topology", required=True, help="GraphML file")
    p.add_argument("--weight-key", default=None,
                   help="GraphML attribute holding edge weights (default: all 1.0)")
    p.add_argument("--priority-key", default="priority",
                   help="GraphML attribute holding node priorities")


def _add_users(p: argparse.ArgumentParser):
    p.add_argument("--out", default=".", help="output directory")
    p.add_argument("--seed", type=int, default=0, help="master seed")
    p.add_argument("--trace", default=None,
                   help="request-count CSV (node_id,service_id,count); "
                        "default is Zipf-generated profiles")
    p.add_argument("--alpha", type=float, default=0.3, help="Zipf exponent")
    p.add_argument("--universe", type=int, default=100, help="number of services")
    p.add_argument("--profile-size", type=int, default=15,
                   help="services per generated profile")
    p.add_argument("--requests", type=int, default=100,
                   help="requests per user; only simulate reads it, the other "
                        "commands accept it so one set of flags works for all")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="cdnsim", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="parse and validate a topology")
    _add_common(p)

    p = sub.add_parser("place", help="optimize server placement for distance")
    _add_common(p)
    _add_users(p)
    p.add_argument("--k", type=int, required=True, help="number of servers")

    p = sub.add_parser("assign", help="optimize user assignment for correlation")
    _add_common(p)
    _add_users(p)
    p.add_argument("--placement", required=True, help="placement JSON from `place`")

    p = sub.add_parser("simulate", help="replay request workload, optionally sweeping")
    _add_common(p)
    _add_users(p)
    source = p.add_mutually_exclusive_group()
    source.add_argument("--k", type=int, default=None, help="optimize placement here")
    source.add_argument("--placement", default=None, help="placement JSON from `place`")
    p.add_argument("--policy", default=None, choices=POLICIES, help="default: LRU")
    p.add_argument("--capacity", type=int, default=None, help="default: 10")
    p.add_argument("--origin", default=None, help="origin node (default: 1-center)")
    p.add_argument("--optimizer", default="distance", choices=OPTIMIZERS)
    p.add_argument("--sweep", default=None, choices=SWEEP_AXES)
    p.add_argument("--values", default=None,
                   help="comma-separated sweep values, e.g. 1,2,4,8")

    p = sub.add_parser("pareto", help="distance vs. correlation front")
    _add_common(p)
    _add_users(p)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--steps", type=int, default=50)

    return parser


def _load_topology(args) -> Topology:
    return parse_topology(
        Path(args.topology).read_bytes(),
        weight_key=args.weight_key,
        priority_key=args.priority_key,
    )


def _load_users(args, topo: Topology) -> list[UserGroup]:
    from .profiles import ZipfModel, generate_users, load_trace

    if args.trace:
        users = load_trace(Path(args.trace).read_bytes())
        for u in users:
            topo.index(u.node)  # rejects an unknown node
            u.priority = topo.priorities[u.node]
        return users
    model = ZipfModel(alpha=args.alpha, universe_size=args.universe,
                      profile_size=args.profile_size)
    return generate_users(topo, model, args.seed)


def _load_placement(path: str) -> tuple[str, ...]:
    try:
        servers = json.loads(Path(path).read_bytes())
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise ValidationError(f"bad placement JSON: {exc}") from exc
    if not isinstance(servers, list) or not servers:
        raise ValidationError("placement JSON must be a non-empty list of node ids")
    return tuple(servers)  # as given: `optimize` checks the entries and sorts them


def _outdir(args) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _write_csv(path: Path, header: list[str], rows: list[list]):
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def cmd_validate(args) -> int:
    topo = _load_topology(args)
    print(f"topology ok: {len(topo.node_ids)} nodes, {len(topo.edges)} edges")
    return EXIT_OK


def cmd_place(args) -> int:
    from .placement import dragoon

    topo = _load_topology(args)
    users = _load_users(args, topo)
    placement, objective, log = dragoon(topo, users, args.k)
    out = _outdir(args)
    (out / "placement.json").write_text(json.dumps(list(placement), indent=2) + "\n")
    _write_csv(
        out / "placement_log.csv",
        ["iteration", "server", "from", "to", "max_dist", "avg_dist"],
        [[m.iteration, m.server, m.from_node, m.to_node,
          repr(m.max_dist), repr(m.avg_dist)] for m in log],
    )
    print(f"placement: {' '.join(placement)}")
    print(f"objective: max_dist={objective.max_dist} avg_dist={objective.avg_dist}")
    return EXIT_OK


def _warn_if_stalled(log: list[BatchRecord]):
    """One stderr line when the correlation greedy rejected its first batch."""
    if log and log[0].moves_proposed and not log[0].accepted:
        first = log[0]
        print(f"warning: the correlation greedy rejected its first batch of "
              f"{first.moves_proposed} moves (total_corr {first.total_corr_before!r} -> "
              f"{first.total_corr_after!r}); the assignment stays closest-server",
              file=sys.stderr)


def cmd_assign(args) -> int:
    from .assignment import optimize, user_correlations

    topo = _load_topology(args)
    users = _load_users(args, topo)
    placement, assignment, log = optimize(topo, users,
                                          placement=_load_placement(args.placement),
                                          optimizer="correlation")
    _warn_if_stalled(log)
    out = _outdir(args)
    rhos = user_correlations(users, assignment)
    rows = [[node, assignment[node], repr(rho), repr(topo.distance(node, assignment[node]))]
            for node, rho in rhos.items()]
    _write_csv(out / "assignment.csv",
               ["user_node", "server_node", "rho", "distance"], rows)
    _write_csv(
        out / "assignment_log.csv",
        ["iteration", "moves_proposed", "total_corr_before", "total_corr_after",
         "accepted"],
        [[b.iteration, b.moves_proposed, repr(b.total_corr_before),
          repr(b.total_corr_after), b.accepted] for b in log],
    )
    (out / "assignment_placement.json").write_text(json.dumps(list(placement), indent=2) + "\n")
    # the greedy's log always ends on a rejected or empty round, at the final total
    print(f"total_corr: {log[-1].total_corr_before}")
    print(f"relocated placement: {' '.join(placement)}")
    return EXIT_OK


def _assemble_scenario(args, topo: Topology, users: list[UserGroup]) -> Scenario:
    from .assignment import optimize
    from .cache import CacheConfig
    from .placement import one_center
    from .simulation import Scenario

    if args.origin:
        topo.index(args.origin)  # an unknown origin fails before any planning runs
    placement = _load_placement(args.placement) if args.placement else None
    assignment = {}
    if args.sweep != "server_count":  # that sweep plans every swept k itself
        if placement is None and args.k is None:
            raise ValidationError("simulate needs --placement or --k")
        placement, assignment, log = optimize(topo, users, k=args.k, placement=placement,
                                              optimizer=args.optimizer)
        _warn_if_stalled(log)
    origin = args.origin if args.origin else one_center(topo, users)
    return Scenario(
        topology=topo,
        users=users,
        placement=placement or (),
        assignment=assignment,
        cache=CacheConfig(capacity=10 if args.capacity is None else args.capacity,
                          policy="LRU" if args.policy is None else args.policy),
        origin=origin,
        master_seed=args.seed,
        requests_per_user=args.requests,
    )


_SIM_HEADER = ["axis_value", "miss_ratio", "max_dist", "avg_dist",
               "network_load", "cold_misses"]


def _sim_row(value, result) -> list:
    return [value, repr(result.miss_ratio), repr(result.max_user_distance),
            repr(result.avg_user_distance), repr(result.network_load),
            result.overall.cold_misses]


# the flags whose value each sweep axis replaces
_SWEPT_FLAGS = {"server_count": ("k", "placement"), "policy": ("policy",),
                "cache_size": ("capacity",)}


def cmd_simulate(args) -> int:
    from .simulation import experiment_sweep, run

    if args.values is not None and not args.sweep:
        raise ValidationError("--values requires --sweep")
    for flag in _SWEPT_FLAGS.get(args.sweep, ()):
        if getattr(args, flag) is not None:
            raise ValidationError(f"--{flag} is not allowed with --sweep {args.sweep}")
    topo = _load_topology(args)
    users = _load_users(args, topo)
    scenario = _assemble_scenario(args, topo, users)
    out = _outdir(args)
    if args.sweep:
        if not args.values:
            raise ValidationError("--sweep requires --values")
        raw = [v.strip() for v in args.values.split(",") if v.strip()]
        if args.sweep == "policy":
            values = raw
        else:
            try:
                values = [int(v) for v in raw]
            except ValueError as exc:
                raise ValidationError(f"bad sweep value: {exc}") from exc
        table = experiment_sweep(scenario, args.sweep, values, optimizer=args.optimizer)
        rows = [_sim_row(value, result) for value, result in table]
    else:
        result = run(scenario)
        rows = [_sim_row("-", result)]
        print(f"miss_ratio: {result.miss_ratio}")
        print(f"network_load: {result.network_load}")
    _write_csv(out / "simulation.csv", _SIM_HEADER, rows)
    return EXIT_OK


def cmd_pareto(args) -> int:
    from .pareto import front_sweep

    topo = _load_topology(args)
    users = _load_users(args, topo)
    front = front_sweep(topo, users, args.k, args.steps)
    out = _outdir(args)
    _write_csv(
        out / "pareto.csv",
        ["avg_dist", "total_corr", "max_dist", "miss_ratio", "placement",
         "seed", "step"],
        [[repr(p.avg_dist), repr(p.total_corr), repr(p.max_dist),
          "",  # miss_ratio: the front is not simulated; the column keeps readers working
          " ".join(p.placement), args.seed, p.step] for p in front],
    )
    print(f"front size: {len(front)}")
    return EXIT_OK


_COMMANDS = {
    "validate": cmd_validate,
    "place": cmd_place,
    "assign": cmd_assign,
    "simulate": cmd_simulate,
    "pareto": cmd_pareto,
}


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return _COMMANDS[args.command](args)
    except tuple(_EXIT_CODES) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return next(code for kind, code in _EXIT_CODES.items() if isinstance(exc, kind))
