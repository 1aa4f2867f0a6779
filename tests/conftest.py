"""Shared builders for topologies, profiles and seeded random instances."""

from __future__ import annotations

import pytest

from cdnsim import Profile, Topology, UserGroup
from cdnsim.rng import derive_seed, make_rng


def path_topology(ids: list[str], weight: float = 1.0) -> Topology:
    nodes = [(i, 1.0) for i in ids]
    edges = [(ids[i], ids[i + 1], weight) for i in range(len(ids) - 1)]
    return Topology(nodes, edges)


def ring_topology(n: int) -> Topology:
    ids = [f"n{i:02d}" for i in range(n)]
    return Topology(
        [(i, 1.0) for i in ids],
        [(ids[i], ids[(i + 1) % n], 1.0) for i in range(n)],
    )


def star_topology(center: str, leaves: list[str]) -> Topology:
    nodes = [(center, 1.0)] + [(l, 1.0) for l in leaves]
    return Topology(nodes, [(center, l, 1.0) for l in leaves])


def with_priorities(topo: Topology, priorities: dict[str, float]) -> Topology:
    """`topo` with the given node priorities; every other node keeps its own."""
    return Topology([(n, priorities.get(n, topo.priorities[n])) for n in topo.node_ids],
                    list(topo.edges))


def random_connected_topology(seed: int, n: int, weighted: bool = False) -> Topology:
    """Random spanning tree plus up to n extra edges; weights in [1, 5) if weighted."""
    rng = make_rng(derive_seed(seed, "graph"))
    ids = [f"n{i:02d}" for i in range(n)]

    def weight():
        return round(float(rng.random()) * 4 + 1, 2) if weighted else 1.0

    edges = []
    for i in range(1, n):
        parent = int(rng.integers(0, i))
        edges.append((ids[parent], ids[i], weight()))
    for _ in range(int(rng.integers(0, n))):
        a, b = int(rng.integers(0, n)), int(rng.integers(0, n))
        if a != b:
            edges.append((ids[min(a, b)], ids[max(a, b)], weight()))
    return Topology([(i, 1.0) for i in ids], edges)


def desk_topology() -> Topology:
    """Criterion 10's instance: a random tree on 124 nodes plus 2 extra edges."""
    rng = make_rng(derive_seed(124, "desk-topo"))
    ids = [f"n{i:03d}" for i in range(124)]
    edges = [(ids[int(rng.integers(0, i))], ids[i], 1.0) for i in range(1, 124)]
    while len(edges) < 126:
        a, b = int(rng.integers(0, 124)), int(rng.integers(0, 124))
        if a != b:
            edges.append((ids[min(a, b)], ids[max(a, b)], 1.0))
    return Topology([(i, 1.0) for i in ids], edges)


def profile_from_dict(entries: dict[str, float],
                      universe: tuple[str, ...] | None = None) -> Profile:
    """A profile from a service -> probability map; absent services get 0."""
    universe = tuple(sorted(entries)) if universe is None else universe
    assert set(entries) <= set(universe), "services outside universe"
    return Profile(universe, [entries.get(s, 0.0) for s in universe])


def dummy_profile(universe=("x", "y")) -> Profile:
    return profile_from_dict({universe[0]: 1.0}, tuple(universe))


def uniform_users(topo: Topology, profile: Profile | None = None) -> list[UserGroup]:
    p = profile if profile is not None else dummy_profile()
    return [UserGroup(node=n, profile=p) for n in topo.node_ids]


def random_profile(seed: int, universe: tuple[str, ...]) -> Profile:
    rng = make_rng(derive_seed(seed, "profile-fuzz"))
    probs = rng.random(len(universe)) ** 2
    return Profile(universe, probs / probs.sum())


@pytest.fixture
def path3() -> Topology:
    return path_topology(["A", "B", "C"])


@pytest.fixture
def path5() -> Topology:
    return path_topology(["A", "B", "C", "D", "E"])
