"""Server placement: priority-weighted k-center heuristics.

The placement objective is lexicographic: first minimize the maximum of
priority * distance(user, closest server), then the average. Every algorithm
breaks ties by node id, so identical inputs always give identical placements.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .errors import InfeasibleError, ValidationError, _check_int
from .profiles import UserGroup
from .topology import NodeId, Topology

Placement = tuple[NodeId, ...]
Assignment = dict[NodeId, NodeId]  # user node -> server node


class PlacementObjective(NamedTuple):
    """Priority-weighted distance objective; compares lexicographically."""

    max_dist: float
    avg_dist: float


class MoveRecord(NamedTuple):
    """One accepted local-search move."""

    iteration: int
    server: int
    from_node: NodeId
    to_node: NodeId
    max_dist: float
    avg_dist: float


def _by_node(users: list[UserGroup]) -> list[UserGroup]:
    """The one check of a user list: not empty, one user per node; returns it in node-id order."""
    if not users:
        raise ValidationError("no users")
    if len({u.node for u in users}) != len(users):
        raise ValidationError("duplicate user nodes")
    return sorted(users, key=lambda u: u.node)


class _Eval:
    """The one owner of priority * distance: users from `_by_node`, every
    (max, mean) reduced in node-id order, so the order of `users` never matters."""

    def __init__(self, topo: Topology, users: list[UserGroup]):
        self.topo = topo
        self.users = _by_node(users)
        self.rows = np.array([topo.index(u.node) for u in self.users], dtype=int)
        self.prios = np.array([u.priority for u in self.users])
        # bounds every weighted sum; Python floats reach inf without a numpy warning
        total = sum(u.priority for u in self.users)
        if not math.isfinite(total * float(topo.distances[self.rows].max(initial=0.0))):
            raise ValidationError(f"priority x distance overflows (priorities sum to {total!r})")

    def weighted(self, nodes: tuple[NodeId, ...]) -> np.ndarray:
        """Priority * distance, users x `nodes`."""
        cols = [self.topo.index(s) for s in nodes]
        return self.prios[:, None] * self.topo.distances[np.ix_(self.rows, cols)]

    def objective(self, servers: Placement) -> PlacementObjective:
        """Each user at its closest server."""
        return _reduce(self.weighted(servers).min(axis=1))

    def assigned(self, assignment: Assignment) -> PlacementObjective:
        """Each user at its assigned server."""
        cols = [self.topo.index(assignment[u.node]) for u in self.users]
        return _reduce(self.prios * self.topo.distances[self.rows, cols])


def _reduce(weighted: np.ndarray) -> PlacementObjective:
    return PlacementObjective(float(weighted.max()), float(weighted.mean()))


def _check_k(k: int, n: int):
    if not 1 <= _check_int("k", k) <= n:
        raise InfeasibleError(f"k={k} out of range 1..{n}")


def _check_placement(placement: Placement) -> list[NodeId]:
    """The one check of a placement from outside; returns it in id order."""
    if not placement:
        raise ValidationError("empty placement")
    for s in placement:
        if not isinstance(s, str):
            raise ValidationError(f"placement entries must be node id strings, not {s!r}")
    if len(set(placement)) != len(placement):
        raise ValidationError("placement contains duplicate nodes")
    return sorted(placement)


def _members(users: list[UserGroup], placement: Placement,
             assignment: Assignment) -> dict[NodeId, list[UserGroup]]:
    """Each server in id order with its users in node-id order: the one check
    that `assignment` maps exactly the users into a valid placement."""
    users = _by_node(users)
    members: dict[NodeId, list[UserGroup]] = {s: [] for s in _check_placement(placement)}
    for u in users:
        if u.node not in assignment:
            raise ValidationError(f"user {u.node!r} missing from assignment")
        server = assignment[u.node]
        # placement entries are strings: anything else, unhashable too, is outside
        if not isinstance(server, str) or server not in members:
            raise ValidationError(f"user {u.node!r} assigned outside placement")
        members[server].append(u)
    strangers = set(assignment) - {u.node for u in users}
    if strangers:
        raise ValidationError(f"node {min(strangers)!r} in assignment is not a user")
    return members


def closest_assignment(topo: Topology, users: list[UserGroup],
                       placement: Placement) -> Assignment:
    """Map each user, in node-id order, to its nearest server; ties go to the lower id."""
    ev = _Eval(topo, users)
    servers = _check_placement(placement)
    # argmin takes the first minimum of each row, i.e. the lowest server id
    best = topo.distances[np.ix_(ev.rows, [topo.index(s) for s in servers])].argmin(axis=1)
    return {u.node: servers[j] for u, j in zip(ev.users, best)}


def one_center(
    topo: Topology,
    users: list[UserGroup],
    candidates: tuple[NodeId, ...] | None = None,
) -> NodeId:
    """Exhaustive single-server optimum over all candidate nodes; ties go to the lower id."""
    if candidates is None:
        candidates = topo.node_ids
    if not candidates:
        raise ValidationError("no candidate nodes")
    # one contiguous row per candidate reduces bit for bit like `_reduce`
    rows = np.ascontiguousarray(_Eval(topo, users).weighted(candidates).T)
    maxs, avgs = rows.max(axis=1), rows.mean(axis=1)
    best = min(range(len(candidates)), key=lambda i: (maxs[i], avgs[i], candidates[i]))
    return candidates[best]


def farthest_first_init(topo: Topology, users: list[UserGroup], k: int) -> Placement:
    """Deterministic farthest-first (2-Approx) start.

    An orientation mark at the 1-center picks the first server (the node
    farthest from the mark); each further server goes to the node with the
    largest distance to its closest already-placed server. Candidate
    distances here are raw node distances, not priority-weighted.
    """
    ids = topo.node_ids
    _check_k(k, len(ids))
    mark = one_center(topo, users)
    placed = np.zeros(len(ids), dtype=bool)
    # distance from every node to the current server set; start from the mark
    dist_to_set = topo.distances[:, topo.index(mark)].copy()
    for _ in range(k):
        # argmax takes the first maximum among the free nodes, i.e. the lowest id
        best_i = int(np.where(placed, -np.inf, dist_to_set).argmax())
        placed[best_i] = True
        dist_to_set = np.minimum(dist_to_set, topo.distances[:, best_i])
    return tuple(ids[i] for i in np.flatnonzero(placed))


def dragoon(topo: Topology, users: list[UserGroup],
            k: int) -> tuple[Placement, PlacementObjective, list[MoveRecord]]:
    """Farthest-first initialization plus neighbor-move local search.

    Each iteration visits the servers in node-id order; a server may shift to
    its best directly-connected neighbor if that strictly improves the
    (max, avg) objective, at most once per iteration. Stops when an iteration
    moves nothing. The objective never worsens, so termination is guaranteed.
    """
    ev = _Eval(topo, users)
    placement = set(farthest_first_init(topo, users, k))
    current = ev.objective(tuple(placement))
    log: list[MoveRecord] = []
    iteration = 0
    while True:
        iteration += 1
        moved = False
        for idx, server in enumerate(sorted(placement)):
            best: tuple[PlacementObjective, NodeId] | None = None
            for nb in topo.neighbors(server):
                if nb in placement:
                    continue
                cand = tuple(placement - {server} | {nb})
                obj = ev.objective(cand)
                if best is None or (obj, nb) < best:
                    best = (obj, nb)
            if best is not None and best[0] < current:
                placement.remove(server)
                placement.add(best[1])
                current = best[0]
                moved = True
                log.append(MoveRecord(iteration, idx, server, best[1],
                                      current.max_dist, current.avg_dist))
        if not moved:
            break
    return tuple(sorted(placement)), current, log
