"""Seeded request-replay simulation over a placed and assigned scenario.

Requests are drawn i.i.d. from each user's profile and interleaved round-robin
across users in node-id order, so cache contention at a shared server is
represented without a clock model. A hit costs the user-to-server path weight;
a miss additionally costs the server-to-origin path. BELADY scenarios replay
each server's request stream through the offline optimum instead of an online
cache.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from itertools import chain

import numpy as np

from .assignment import optimize
from .cache import CacheConfig, CacheStats, replay
from .errors import OPTIMIZERS, SWEEP_AXES, ValidationError, _check_choice, _check_int
from .placement import Assignment, Placement, _Eval, _members
from .profiles import ServiceId, UserGroup
from .rng import derive_seed, left_sum, make_rng
from .topology import NodeId, Topology


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
        self._groups()
        return self

    def _groups(self) -> dict[NodeId, list[UserGroup]]:
        """The checks of `validate`; returns each server's members, grouped by `_members`."""
        _check_int("requests_per_user", self.requests_per_user, 100)
        for node in (self.origin, *self.placement, *(u.node for u in self.users)):
            self.topology.index(node)  # rejects an unknown node
        return _members(self.users, self.placement, self.assignment)


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
    cumulative probabilities in universe order. Only the liked services are
    summed; a zero adds +0.0, which is exact, so every cumulative value is the
    one the dense vector gives. A draw at or past the last cumulative value
    maps to the last liked service.
    """
    profile = user.profile
    _check_int("count", count, 0)
    rng = make_rng(derive_seed(master_seed, "requests", user.node))
    cdf = np.cumsum(profile.values)
    draws = rng.random(count)
    idx = np.append(profile.support, profile.support[-1])
    universe = profile.universe
    return [universe[i] for i in idx[np.searchsorted(cdf, draws, side="right")].tolist()]


def _requests(s: Scenario) -> dict[NodeId, list[ServiceId]]:
    """Each user's request list, one `generate_requests` call per user. It depends on
    the users, the master seed and the request count, never on the plan or the cache."""
    return {u.node: generate_requests(u, s.master_seed, s.requests_per_user) for u in s.users}


def run(scenario: Scenario,
        requests: dict[NodeId, list[ServiceId]] | None = None) -> SimulationResult:
    """Replay the scenario's full request workload and collect statistics.

    `requests` maps every user's node to its `requests_per_user` requests, as
    `generate_requests` draws them; without it `run` draws them itself, and a
    sweep draws them once and passes them to each run. A server's stream interleaves its
    members round-robin in node-id order: request r of every member, then r + 1. The network
    load adds, server by server in id order, one user-to-server distance per request in stream
    order, then misses x the origin distance; a load that overflows is a ValidationError."""
    s, groups = scenario, scenario._groups()  # the one check and grouping of the plan
    # first: `_Eval` rejects overflowing priorities before any replay
    max_dist, avg_dist = _Eval(s.topology, s.users).assigned(s.assignment)
    if requests is None:
        requests = _requests(s)
    for u in s.users:
        if len(requests.get(u.node, ())) != s.requests_per_user:
            raise ValidationError(f"request table needs {s.requests_per_user} for user {u.node!r}")
    per_server: dict[NodeId, CacheStats] = {}
    network_load = 0.0
    for server, members in groups.items():
        stream = list(chain.from_iterable(zip(*(requests[u.node] for u in members))))
        distances = [s.topology.distance(u.node, server) for u in members]
        # one addition per request, in stream order: count x distance rounds differently
        network_load = left_sum(chain((network_load,), distances * s.requests_per_user))
        stats = replay(stream, s.cache)
        network_load += stats.misses * s.topology.distance(server, s.origin)
        per_server[server] = stats
    if not math.isfinite(network_load):  # finite distances can add up to inf
        raise ValidationError(f"network load overflows to {network_load!r}")

    overall = CacheStats()
    for stats in per_server.values():
        overall = overall.add(stats)
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

    server_count re-plans each value through optimize with `optimizer`;
    cache_size and policy keep the base placement and assignment. Every
    value's scenario is built, so a bad value fails, before the first replay.
    Every axis draws the request table once, after the first value's scenario
    validates, and replays it for every value.
    """
    _check_choice("sweep axis", axis, SWEEP_AXES)
    if not values:
        raise ValidationError("sweep needs at least one value")
    _check_choice("optimizer", optimizer, OPTIMIZERS)

    scenarios = []
    for value in values:
        if axis == "cache_size":
            scenario = replace(base, cache=replace(base.cache, capacity=value))
        elif axis == "policy":
            scenario = replace(base, cache=replace(base.cache, policy=value))
        else:
            placement, assignment, _ = optimize(base.topology, base.users, k=value,
                                                optimizer=optimizer)
            scenario = replace(base, placement=placement, assignment=assignment)
        scenarios.append(scenario)
    requests = _requests(scenarios[0].validate())
    return [(value, run(scenario, requests)) for value, scenario in zip(values, scenarios)]
