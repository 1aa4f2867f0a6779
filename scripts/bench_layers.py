#!/usr/bin/env python3
"""Per-layer micro-benchmarks: `cache.replay` per policy, APSP, user profiles,
the rank-correlation batch, the Pareto walk and CLI start-up.

    PYTHONPATH=src python3 scripts/bench_layers.py --label after

Cache layer: replays one seeded 100,000-request Zipf trace (alpha 0.8 over
a 2000-service catalog, the `cache-churn` workload's catalog) through every
policy at capacity 50 and 1000, five times each, the cells interleaved so
that a drift in host speed spreads over all of them. Each cell reports the median
nanoseconds per request and its miss count; `checksum` is the SHA-256 of
every cell's miss count, so two runs whose checksums differ did not replay
the same work and their times do not compare.

APSP layer: `topology.all_pairs_shortest_paths` on two seeded connected
500-node graphs, a random spanning tree plus 500 random extra edges, once with
unit weights and once with two-decimal weights in [1, 5). Each graph is built
through `parse_topology` from GraphML, which leaves the topology's
`distances` to their first read; the timed calls compute the matrix. Each
graph reports the median milliseconds per call over the repeats and the
SHA-256 of the matrix bytes.

Profile layer: `generate_users` on the criterion-10 desk topology (124
nodes, built by `bench/workloads.py` as the benchmark builds it; master seed
124) at the two benchmark workload shapes, Zipf
0.8/2000/100 (`cache-churn`) and 0.3/100/15 (`desk-pipeline`). Each shape
reports the median milliseconds per call, `profile_mib`, the MiB of
`tracemalloc`-traced allocations that one more call's users hold (the
universe and every profile), and the SHA-256 of the users' stacked dense
probability vectors.

Correlation layer: `assignment._CorrEval` on the desk instance with the
0.3/100/15 profiles, k=10 servers placed by `dragoon` and the
closest-server assignment. Building the evaluator ranks one column per server;
it reports the median nanoseconds per column and the SHA-256 of the `rho`
matrix. A fixed sequence of walk moves (the first 40 steps of the steepest
walk from that assignment, each a one-pair `move` that re-ranks two columns)
is then replayed on a fresh evaluator; it reports the median nanoseconds per
move and the SHA-256 of the final `rho`.

Pareto layer: `pareto.front_sweep` on the same desk users at k=10 with 10 and
50 steps. Each reports the median milliseconds per call and the SHA-256 of
the front's `repr`, every field of every point.

Startup layer: the median wall milliseconds of 21 fresh `python -m cdnsim
validate` processes on the desk GraphML, after one untimed run that writes
the bytecode, with the `cdnsim` package this script imported. It has no
checksum: `validate` prints one fixed line, and the modules the interpreter
loads at start-up differ between Python versions.

The result is stored under `--label` in `--out` (default `BENCH_layers.json`
at the repository root); runs under other labels in that file are kept, so
one file can hold a before and an after run.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time
import tracemalloc
from pathlib import Path

import numpy as np

import cdnsim
from cdnsim import (
    CacheConfig,
    Topology,
    ZipfModel,
    all_pairs_shortest_paths,
    closest_assignment,
    dragoon,
    front_sweep,
    generate_users,
    parse_topology,
    replay,
)
from cdnsim.assignment import _CorrEval
from cdnsim.cache import POLICIES

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "bench"))
import workloads  # noqa: E402  the benchmark's own topology generator

TRACE_SEED = 2020
TRACE_LENGTH = 100_000
CATALOG = 2000
ALPHA = 0.8
CAPACITIES = (50, 1000)
REPEATS = 5
GRAPH_SEED = 500
GRAPH_NODES = 500
GRAPH_EXTRA_EDGES = 500
DESK_SEED = 124  # the master seed of the profiles
PROFILE_SHAPES = ((0.8, 2000, 100), (0.3, 100, 15))  # (alpha, universe, profile size)
SERVERS = 10
WALK_MOVES = 40
FRONT_STEPS = (10, 50)
STARTUP_RUNS = 21


def zipf_trace(seed: int, length: int, universe: int, alpha: float) -> list[str]:
    rng = np.random.default_rng(seed)
    pmf = np.arange(1, universe + 1, dtype=float) ** -alpha
    pmf /= pmf.sum()
    return [f"s{i:04d}" for i in rng.choice(universe, size=length, p=pmf).tolist()]


def measure(trace: list[str], repeats: int) -> dict:
    cells = [(policy, capacity) for policy in POLICIES for capacity in CAPACITIES]
    seconds: dict[tuple[str, int], list[float]] = {cell: [] for cell in cells}
    misses: dict[tuple[str, int], int] = {}
    for _ in range(repeats):
        for policy, capacity in cells:
            config = CacheConfig(capacity, policy)
            start = time.perf_counter()
            stats = replay(trace, config)
            seconds[policy, capacity].append(time.perf_counter() - start)
            if misses.setdefault((policy, capacity), stats.misses) != stats.misses:
                raise SystemExit(f"{policy} C={capacity}: miss count changed between repeats")
    digest = hashlib.sha256(
        "".join(f"{p}:{c}:{misses[p, c]}\n" for p, c in cells).encode()).hexdigest()
    return {
        "cells": [{"policy": p, "capacity": c,
                   "ns_per_request": round(statistics.median(seconds[p, c]) * 1e9 / len(trace), 1),
                   "misses": misses[p, c]}
                  for p, c in cells],
        "checksum": digest,
    }


def graphml(seed: int, nodes: int, extra_edges: int, weighted: bool) -> bytes:
    rng = np.random.default_rng(seed)
    pairs = [(int(rng.integers(0, i)), i) for i in range(1, nodes)]
    pairs += [tuple(pair) for pair in rng.integers(0, nodes, size=(extra_edges, 2)).tolist()]
    weights = rng.uniform(1, 5, size=len(pairs)).round(2) if weighted else np.ones(len(pairs))
    return (
        '<graphml xmlns="http://graphml.graphdrawing.org/xmlns">'
        '<key id="w" for="edge" attr.name="weight" attr.type="double"/>'
        '<graph edgedefault="undirected">'
        + "".join(f'<node id="n{i:03d}"/>' for i in range(nodes))
        + "".join(f'<edge source="n{a:03d}" target="n{b:03d}"><data key="w">{w!r}</data></edge>'
                  for (a, b), w in zip(pairs, weights.tolist()))
        + "</graph></graphml>").encode()


def measure_apsp(repeats: int) -> list[dict]:
    graphs = {kind: parse_topology(graphml(GRAPH_SEED, GRAPH_NODES, GRAPH_EXTRA_EDGES,
                                           kind == "weighted"), weight_key="weight")
              for kind in ("unit", "weighted")}
    seconds: dict[str, list[float]] = {kind: [] for kind in graphs}
    digests: dict[str, str] = {}
    for _ in range(repeats):
        for kind, topo in graphs.items():
            start = time.perf_counter()
            matrix = all_pairs_shortest_paths(topo)
            seconds[kind].append(time.perf_counter() - start)
            digest = hashlib.sha256(matrix.tobytes()).hexdigest()
            if digests.setdefault(kind, digest) != digest:
                raise SystemExit(f"APSP {kind}: matrix changed between repeats")
    return [{"graph": kind, "nodes": len(topo.node_ids), "edges": len(topo.edges),
             "ms_per_call": round(statistics.median(seconds[kind]) * 1e3, 1),
             "sha256": digests[kind]}
            for kind, topo in graphs.items()]


def desk_graphml() -> str:
    """The benchmark's desk topology (criterion 10's instance) as GraphML."""
    return workloads.graphml(*workloads.desk_graph(workloads.TOPOLOGY_SEED))


def desk_topology() -> Topology:
    return parse_topology(desk_graphml().encode())


def timed(call, repeats: int) -> tuple[float, object]:
    """Median seconds of `repeats` calls, and the result of the last one."""
    seconds = []
    for _ in range(repeats):
        start = time.perf_counter()
        result = call()
        seconds.append(time.perf_counter() - start)
    return statistics.median(seconds), result


def measure_profiles(topo: Topology, repeats: int) -> list[dict]:
    cells = []
    for alpha, universe, size in PROFILE_SHAPES:
        model = ZipfModel(alpha, universe, size)
        median, users = timed(lambda: generate_users(topo, model, DESK_SEED), repeats)
        del users  # the traced call below counts only the users it builds itself
        tracemalloc.start()
        try:
            users = generate_users(topo, model, DESK_SEED)
            held = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        probs = np.stack([u.profile.probs for u in users])
        cells.append({"alpha": alpha, "universe": universe, "profile_size": size,
                      "ms_per_call": round(median * 1e3, 2),
                      "profile_mib": round(held / 2**20, 3),
                      "sha256": hashlib.sha256(probs.tobytes()).hexdigest()})
    return cells


def desk_users(topo: Topology):
    alpha, universe, size = PROFILE_SHAPES[1]
    return generate_users(topo, ZipfModel(alpha, universe, size), DESK_SEED)


def measure_correlation(topo: Topology, repeats: int) -> dict:
    users = desk_users(topo)
    placement = dragoon(topo, users, SERVERS)[0]
    assignment = closest_assignment(topo, users, placement)
    build_s, ev = timed(lambda: _CorrEval(users, placement, assignment), repeats)
    total, matrix = ev.total(), ev.rho.copy()
    moves = []
    for _ in range(WALK_MOVES):
        proposals = ev.proposals()
        if not proposals:
            break
        moves.append(proposals[0])
        ev.move(proposals[:1])
    seconds = []
    for _ in range(repeats):
        ev = _CorrEval(users, placement, assignment)
        start = time.perf_counter()
        for move in moves:
            ev.move([move])
        seconds.append(time.perf_counter() - start)
    return {"users": len(users), "servers": SERVERS,
            "matrix_ns_per_column": round(build_s * 1e9 / SERVERS),
            "total": total,
            "sha256": hashlib.sha256(matrix.tobytes()).hexdigest(),
            "walk": {"moves": len(moves),
                     "ns_per_move": round(statistics.median(seconds) * 1e9 / len(moves)),
                     "sha256": hashlib.sha256(ev.rho.tobytes()).hexdigest()}}


def measure_front(topo: Topology, repeats: int) -> list[dict]:
    users = desk_users(topo)
    cells = []
    for steps in FRONT_STEPS:
        median, front = timed(lambda: front_sweep(topo, users, SERVERS, steps), repeats)
        cells.append({"steps": steps, "points": len(front),
                      "ms_per_call": round(median * 1e3, 1),
                      "sha256": hashlib.sha256(repr(front).encode()).hexdigest()})
    return cells


def measure_startup(runs: int) -> dict:
    src = str(Path(cdnsim.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    # an installed package has its bytecode compiled; the first run writes it
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    with tempfile.TemporaryDirectory() as tmp:
        graph = Path(tmp) / "desk.graphml"
        graph.write_text(desk_graphml())
        argv = [sys.executable, "-m", "cdnsim", "validate", "--topology", str(graph)]

        def validate():
            subprocess.run(argv, env=env, check=True, capture_output=True)

        validate()
        median, _ = timed(validate, runs)
    return {"command": "validate", "processes": runs, "ms_per_process": round(median * 1e3, 1)}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--label", default="current", help="key of this run in --out")
    parser.add_argument("--out", type=Path, default=ROOT / "BENCH_layers.json")
    args = parser.parse_args(argv)

    trace = zipf_trace(TRACE_SEED, TRACE_LENGTH, CATALOG, ALPHA)
    run = measure(trace, REPEATS)
    run["apsp"] = measure_apsp(REPEATS)
    desk = desk_topology()
    run["profiles"] = measure_profiles(desk, REPEATS)
    run["correlation"] = measure_correlation(desk, REPEATS)
    run["front_sweep"] = measure_front(desk, REPEATS)
    run["startup"] = measure_startup(STARTUP_RUNS)
    run["host"] = {"machine": platform.machine(), "cpus": os.cpu_count(),
                   "python": platform.python_version(), "numpy": np.__version__}
    run["repeats"] = REPEATS
    document = {"trace": {"seed": TRACE_SEED, "requests": TRACE_LENGTH, "catalog": CATALOG,
                          "alpha": ALPHA},
                "apsp_graphs": {"seed": GRAPH_SEED, "nodes": GRAPH_NODES,
                                "extra_edges": GRAPH_EXTRA_EDGES},
                "desk": {"seed": DESK_SEED, "servers": SERVERS},
                "runs": {}}
    if args.out.exists():
        document["runs"] = json.loads(args.out.read_text())["runs"]
    document["runs"][args.label] = run
    args.out.write_text(json.dumps(document, indent=2) + "\n")
    for cell in run["cells"]:
        print(f"{cell['policy']:>6} C={cell['capacity']:<5} {cell['ns_per_request']:>9.1f} ns/req"
              f"  misses={cell['misses']}")
    print(f"checksum {run['checksum']}")
    for cell in run["apsp"]:
        print(f"  APSP {cell['graph']:>8} {cell['ms_per_call']:>9.1f} ms/call  sha256={cell['sha256']}")
    for cell in run["profiles"]:
        print(f"  users {cell['alpha']}/{cell['universe']}/{cell['profile_size']:<4}"
              f" {cell['ms_per_call']:>9.2f} ms/call {cell['profile_mib']:>7.3f} MiB"
              f"  sha256={cell['sha256']}")
    corr = run["correlation"]
    print(f"  corr matrix {corr['matrix_ns_per_column']:>9} ns/column  sha256={corr['sha256']}")
    print(f"  corr walk {corr['walk']['ns_per_move']:>11} ns/move  sha256={corr['walk']['sha256']}")
    for cell in run["front_sweep"]:
        print(f"  front {cell['steps']:>2} steps {cell['ms_per_call']:>9.1f} ms/call"
              f"  sha256={cell['sha256']}")
    print(f"  startup validate {run['startup']['ms_per_process']:>7.1f} ms/process")
    return 0


if __name__ == "__main__":
    sys.exit(main())
