"""Seeded request-replay simulation over a placed and assigned scenario.

Requests are drawn i.i.d. from each user's profile and interleaved round-robin
across users in node-id order, so cache contention at a shared server is
represented without a clock model. A hit costs the user-to-server path weight;
a miss additionally costs the server-to-origin path. BELADY scenarios replay
each server's request stream through the offline optimum instead of an online
cache.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from itertools import chain

import numpy as np

from .assignment import OPTIMIZERS, optimize
from .cache import CacheConfig, CacheStats, replay
from .errors import ValidationError
from .placement import Assignment, Placement, _Eval
from .profiles import ServiceId, UserGroup
from .rng import derive_seed, left_sum, make_rng
from .topology import NodeId, Topology

SWEEP_AXES = ("server_count", "cache_size", "policy")


@dataclass
class Scenario:
    """Everything one simulation run depends on, cross-validated up front."""

    topology: Topology
    users: list[UserGroup]
    placement: Placement
    assignment: Assignment
    cache: CacheConfig
    origin: NodeId
    master_seed: int
    requests_per_user: int = 100

    def validate(self) -> "Scenario":
        topo = self.topology
        if self.requests_per_user < 100:
            raise ValidationError("requests_per_user must be at least 100")
        if self.origin not in topo:
            raise ValidationError(f"origin {self.origin!r} not in topology")
        if not self.placement:
            raise ValidationError("empty placement")
        for s in self.placement:
            if s not in topo:
                raise ValidationError(f"server {s!r} not in topology")
        nodes = {u.node for u in self.users}
        if len(nodes) != len(self.users):
            raise ValidationError("duplicate user nodes")
        for u in self.users:
            if u.node not in topo:
                raise ValidationError(f"user {u.node!r} not in topology")
            if u.profile is None:
                raise ValidationError(f"user {u.node!r} has no profile")
        if set(self.assignment) != nodes:
            raise ValidationError("assignment does not cover exactly the user set")
        for user_node, server in self.assignment.items():
            if server not in self.placement:
                raise ValidationError(
                    f"user {user_node!r} assigned to non-server {server!r}"
                )
        return self


@dataclass
class SimulationResult:
    per_server: dict[NodeId, CacheStats]
    overall: CacheStats
    miss_ratio: float
    max_user_distance: float
    avg_user_distance: float
    network_load: float


def generate_requests(user: UserGroup, master_seed: int, count: int) -> list[ServiceId]:
    """`count` seeded i.i.d. draws from the user's profile.

    The stream is pinned by PCG64 under the seed derived from
    (master_seed, "requests", node): inverse-CDF over the profile's
    cumulative probabilities in universe order.
    """
    if user.profile is None:
        raise ValidationError(f"user {user.node!r} has no profile")
    rng = make_rng(derive_seed(master_seed, "requests", user.node))
    cdf = np.cumsum(user.profile.probs)
    draws = rng.random(count)
    idx = np.minimum(np.searchsorted(cdf, draws, side="right"), len(cdf) - 1)
    universe = user.profile.universe
    return [universe[i] for i in idx.tolist()]


# (server, its interleaved request stream, its members' distances to it)
ServerStream = tuple[NodeId, list[ServiceId], list[float]]


def _server_streams(s: Scenario) -> list[ServerStream]:
    """Every server's request stream, in server-id order, for a validated scenario.

    A server's stream interleaves its members round-robin in node-id order:
    request r of every member, then r + 1. It depends on the users, the
    assignment, the master seed and the request count, not on the cache."""
    dm = s.topology.distance_matrix()
    members: dict[NodeId, list[UserGroup]] = {srv: [] for srv in s.placement}
    for u in sorted(s.users, key=lambda u: u.node):
        members[s.assignment[u.node]].append(u)
    table = []
    for server in sorted(members):
        streams = [generate_requests(u, s.master_seed, s.requests_per_user)
                   for u in members[server]]
        table.append((server, list(chain.from_iterable(zip(*streams))),
                      [dm.get(u.node, server) for u in members[server]]))
    return table


def run(scenario: Scenario, streams: list[ServerStream] | None = None) -> SimulationResult:
    """Replay the scenario's full request workload and collect statistics.

    `streams` is the table `_server_streams(scenario)` builds; a sweep that
    keeps the users, plan and seed fixed builds it once and passes it to each
    run. The network load adds, server by server in id order, one
    user-to-server distance per request in stream order, then misses x the
    origin distance."""
    s = scenario.validate()
    dm = s.topology.distance_matrix()
    dist = _Eval(dm, s.users)  # first: it rejects overflowing priorities before any replay
    if streams is None:
        streams = _server_streams(s)
    per_server: dict[NodeId, CacheStats] = {}
    network_load = 0.0
    for server, stream, distances in streams:
        # one addition per request, in stream order: count x distance rounds differently
        network_load = left_sum(chain((network_load,), distances * s.requests_per_user))
        stats = replay(stream, s.cache)
        network_load += stats.misses * dm.get(server, s.origin)
        per_server[server] = stats

    overall = CacheStats()
    for stats in per_server.values():
        overall = overall.add(stats)
    max_dist, avg_dist = dist.assigned(s.assignment)
    return SimulationResult(
        per_server=per_server,
        overall=overall,
        miss_ratio=overall.miss_ratio,
        max_user_distance=max_dist,
        avg_user_distance=avg_dist,
        network_load=network_load,
    )


def experiment_sweep(
    base: Scenario,
    axis: str,
    values: list,
    optimizer: str = "distance",
) -> list[tuple[object, SimulationResult]]:
    """One run per axis value under a shared master seed.

    server_count re-plans each value through optimize with `optimizer`.
    cache_size and policy keep the base placement and assignment fixed, so
    their runs replay one set of request streams, built once.
    """
    if axis not in SWEEP_AXES:
        raise ValidationError(f"unknown sweep axis {axis!r}; one of {SWEEP_AXES}")
    if not values:
        raise ValidationError("sweep needs at least one value")
    if optimizer not in OPTIMIZERS:
        raise ValidationError(f"unknown optimizer {optimizer!r}")

    streams = None if axis == "server_count" else _server_streams(base.validate())
    results = []
    for value in values:
        if axis == "cache_size":
            scenario = replace(base, cache=replace(base.cache, capacity=int(value)))
        elif axis == "policy":
            scenario = replace(base, cache=replace(base.cache, policy=str(value)))
        else:
            placement, assignment, _ = optimize(base.topology, base.users, k=int(value),
                                                optimizer=optimizer)
            scenario = replace(base, placement=placement, assignment=assignment)
        results.append((value, run(scenario, streams)))
    return results

