"""The benchmark's workloads: generated GraphML topologies and CLI command lists.

Every input comes from generators in this file, so the program under test
receives only the generated GraphML file and its argv. Seeds are derived with
the same SHA-256 scheme the program uses, but the derivation is repeated here
so that a change to the program's own rng module cannot change the inputs.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
import numpy as np

# Topologies are pinned to one seed; the workload seed sets profiles, request
# streams and the Pareto walk. The desk topology is then the criterion-10
# instance. Per-seed topologies change the work itself: over seeds 1..10 the
# desk placement objective is 4 or 5 hops (a 25% spread in `place_max_dist`).
TOPOLOGY_SEED = 124

PLACEMENT = "{placement}"  # replaced by the placement.json the pass's `place` wrote

Edge = tuple[str, str]


def derive_seed(master_seed: int, *parts: str | int) -> int:
    h = hashlib.sha256()
    h.update(str(int(master_seed)).encode("ascii"))
    for part in parts:
        h.update(b"\x1f")
        h.update(str(part).encode("utf-8"))
    return int.from_bytes(h.digest()[:8], "big")


def _rng(seed: int, label: str) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(derive_seed(seed, label)))


def desk_graph(seed: int) -> tuple[list[str], list[Edge]]:
    """Criterion 10's generator: a random tree on 124 nodes plus 2 extra edges."""
    rng = _rng(seed, "desk-topo")
    ids = [f"n{i:03d}" for i in range(124)]
    edges = [(ids[int(rng.integers(0, i))], ids[i]) for i in range(1, 124)]
    while len(edges) < 126:
        a, b = int(rng.integers(0, 124)), int(rng.integers(0, 124))
        if a != b:
            edges.append((ids[min(a, b)], ids[max(a, b)]))
    return ids, edges


def graphml(ids: list[str], edges: list[Edge]) -> str:
    """GraphML text of an unweighted graph; every edge has length 1."""
    lines = ['<?xml version="1.0" encoding="utf-8"?>',
             '<graphml xmlns="http://graphml.graphdrawing.org/xmlns">',
             '<graph edgedefault="undirected">']
    lines += [f'<node id="{n}"/>' for n in ids]
    lines += [f'<edge source="{a}" target="{b}"/>' for a, b in edges]
    lines += ["</graph>", "</graphml>", ""]
    return "\n".join(lines)


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    users: tuple[str, ...]  # profile flags given to every command but validate
    commands: tuple[tuple[str, ...], ...]

    def validate_argv(self, topology: str) -> list[str]:
        return ["validate", "--topology", topology]

    def argv(self, command: tuple[str, ...], topology: str, seed: int, out: str,
             placement: str) -> list[str]:
        body = [placement if a == PLACEMENT else a for a in command]
        return [*body, "--topology", topology, "--seed", str(seed),
                *self.users, "--out", out]

    def simulated_requests(self, command: tuple[str, ...], users: int) -> int:
        """Requests a `simulate` command replays: users x --requests x sweep values."""
        if command[0] != "simulate":
            return 0
        per_user = int(self.users[self.users.index("--requests") + 1])
        runs = 1
        if "--sweep" in command:
            runs = len(command[command.index("--values") + 1].split(","))
        return users * per_user * runs


def _users(alpha: str, universe: str, profile_size: str, requests: str) -> tuple[str, ...]:
    return ("--alpha", alpha, "--universe", universe, "--profile-size", profile_size,
            "--requests", requests)


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="desk-pipeline",
            why="the paper's 124-node reference scale; the rank correlations of "
                "the greedy assignment and the Pareto walk do most of the work, "
                "cache and APSP are near zero",
            users=_users("0.3", "100", "15", "100"),
            commands=(
                ("place", "--k", "10"),
                ("assign", "--placement", PLACEMENT),
                ("simulate", "--k", "10", "--optimizer", "correlation",
                 "--policy", "LRU", "--capacity", "10"),
                ("pareto", "--k", "10", "--steps", "10"),
            ),
        ),
        Workload(
            name="cache-churn",
            why="49,600 requests per simulation over a 2000-service catalog at capacities "
                "below the working set; the per-miss resident scans dominate",
            users=_users("0.8", "2000", "100", "400"),
            commands=(
                ("simulate", "--k", "10", "--capacity", "200",
                 "--sweep", "policy", "--values", "LRU,LRU2,LFU,LIRS,BELADY"),
                ("simulate", "--k", "10", "--policy", "LRU",
                 "--sweep", "cache_size", "--values", "50,100,200,400,800"),
            ),
        ),
    )
}
