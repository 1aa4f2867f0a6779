
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cdnsim import (
    CacheConfig,
    Profile,
    Scenario,
    UserGroup,
    ValidationError,
    closest_assignment,
    experiment_sweep,
    generate_requests,
    run,
)
from cdnsim import simulation
from cdnsim.cache import POLICIES
from cdnsim.rng import derive_seed, make_rng
from cdnsim.simulation import _server_streams
from conftest import path_topology, random_connected_topology, random_profile
from oracles import run_per_request


def small_scenario(seed=0, policy="LRU", capacity=3, requests=100):
    topo = random_connected_topology(seed, 8)
    universe = tuple(f"s{i}" for i in range(12))
    users = [
        UserGroup(node=n, profile=random_profile(seed * 17 + i, universe))
        for i, n in enumerate(topo.node_ids)
    ]
    dm = topo.distance_matrix()
    placement = (topo.node_ids[0], topo.node_ids[4])
    return Scenario(
        topology=topo,
        users=users,
        placement=placement,
        assignment=closest_assignment(dm, users, placement),
        cache=CacheConfig(capacity, policy),
        origin=topo.node_ids[1],
        master_seed=seed,
        requests_per_user=requests,
    )


class TestGenerateRequests:
    def test_degenerate_profile(self):
        user = UserGroup(node="u", profile=Profile.from_dict({"a": 1.0}, ("a", "b")))
        assert generate_requests(user, 1, 50) == ["a"] * 50

    def test_same_seed_same_stream(self):
        user = UserGroup(node="u", profile=random_profile(3, tuple("abcdef")))
        assert generate_requests(user, 9, 200) == generate_requests(user, 9, 200)

    def test_different_nodes_different_streams(self):
        p = random_profile(3, tuple("abcdef"))
        u1 = UserGroup(node="u1", profile=p)
        u2 = UserGroup(node="u2", profile=p)
        assert generate_requests(u1, 9, 200) != generate_requests(u2, 9, 200)

    def test_frequencies_within_3_sigma(self):
        n = 100_000
        user = UserGroup(node="u", profile=Profile.from_dict({"a": 0.75, "b": 0.25}))
        draws = generate_requests(user, 42, n)
        count_a = draws.count("a")
        sigma = np.sqrt(n * 0.75 * 0.25)
        assert abs(count_a - n * 0.75) <= 3 * sigma

    def test_zero_probability_never_drawn(self):
        user = UserGroup(node="u", profile=Profile.from_dict({"a": 0.5, "b": 0.5, "c": 0.0}))
        assert "c" not in set(generate_requests(user, 11, 5000))


class TestRun:
    def test_capacity_covering_universe_leaves_only_cold_misses(self):
        s = small_scenario(capacity=12)
        r = run(s)
        assert r.overall.misses == r.overall.cold_misses

    def test_single_user_hand_computed(self):
        topo = path_topology(["A", "B"])
        users = [UserGroup(node="A", profile=Profile.from_dict({"a": 1.0}, ("a",)))]
        s = Scenario(
            topology=topo,
            users=users,
            placement=("A",),
            assignment={"A": "A"},
            cache=CacheConfig(1, "LRU"),
            origin="B",
            master_seed=5,
            requests_per_user=100,
        )
        r = run(s)
        # co-located server: zero distance per request; one cold miss to origin
        assert r.overall.misses == 1
        assert r.network_load == 1.0
        assert r.max_user_distance == 0.0

    def test_accounting_identity(self):
        s = small_scenario(seed=2)
        r = run(s)
        assert r.overall.requests == r.overall.hits + r.overall.misses
        per = list(r.per_server.values())
        assert r.overall.requests == sum(st.requests for st in per)
        assert r.overall.misses == sum(st.misses for st in per)
        dm = s.topology.distance_matrix()
        floor = sum(
            dm.get(u.node, s.assignment[u.node]) * s.requests_per_user for u in s.users
        )
        assert r.network_load >= floor - 1e-9

    def test_deterministic(self):
        a, b = run(small_scenario(seed=3)), run(small_scenario(seed=3))
        assert a == b

    def test_origin_at_server_makes_load_pure_distance(self):
        # origin == the only server: miss penalty paths have zero weight
        topo = path_topology(["A", "B", "C"])
        users = [
            UserGroup(node=n, profile=random_profile(i, tuple("abcd")))
            for i, n in enumerate(topo.node_ids)
        ]
        s = Scenario(
            topology=topo,
            users=users,
            placement=("B",),
            assignment={n: "B" for n in topo.node_ids},
            cache=CacheConfig(1, "LRU"),
            origin="B",
            master_seed=1,
            requests_per_user=100,
        )
        r = run(s)
        dm = topo.distance_matrix()
        expected = sum(dm.get(n, "B") for n in topo.node_ids) * 100
        assert r.network_load == pytest.approx(expected)

    def test_belady_policy_runs_offline(self):
        online = run(small_scenario(seed=4, policy="LRU", capacity=3))
        offline = run(small_scenario(seed=4, policy="BELADY", capacity=3))
        assert offline.overall.misses <= online.overall.misses
        assert offline.overall.requests == online.overall.requests

    def test_request_counts_scale_linearly(self):
        r1 = run(small_scenario(seed=6, requests=100))
        r2 = run(small_scenario(seed=6, requests=300))
        assert r2.overall.requests == 3 * r1.overall.requests

    def test_miss_ratio_variance_shrinks_with_more_requests(self):
        def ratios(requests):
            return [run(small_scenario(seed=s, requests=requests)).miss_ratio
                    for s in range(10)]

        assert np.var(ratios(400)) < np.var(ratios(100)) * 1.5


@st.composite
def weighted_scenarios(draw, policy):
    """Weighted topologies, priorities and edge weights like 3.17 that binary
    floats round, any subset of nodes as users in shuffled order, empty servers."""
    seed = draw(st.integers(0, 2**32))
    topo = random_connected_topology(seed, draw(st.integers(2, 12)), weighted=True)
    rng = make_rng(derive_seed(seed, "priorities"))
    universe = tuple(f"s{i}" for i in range(draw(st.integers(1, 15))))
    nodes = draw(st.permutations(topo.node_ids))[:draw(st.integers(1, len(topo.node_ids)))]
    users = [UserGroup(node=n, priority=round(float(rng.random()) * 4 + 0.1, 2),
                       profile=random_profile(seed + i, universe))
             for i, n in enumerate(nodes)]
    placement = tuple(draw(st.permutations(topo.node_ids))[:draw(st.integers(1, 4))])
    return Scenario(
        topology=topo,
        users=users,
        placement=placement,
        assignment={u.node: draw(st.sampled_from(placement)) for u in users},
        cache=CacheConfig(draw(st.integers(1, len(universe) + 1)), policy),
        origin=draw(st.sampled_from(topo.node_ids)),
        master_seed=seed,
        requests_per_user=draw(st.sampled_from([100, 137])),
    )


@pytest.mark.parametrize("policy", POLICIES)
@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_run_matches_the_per_request_loop(policy, data):
    """Per-server streams built from the members, one distance lookup per member:
    every statistic and the network load equal the per-request loop exactly."""
    scenario = data.draw(weighted_scenarios(policy))
    assert run(scenario) == run_per_request(scenario)


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_cache_axis_sweeps_match_the_per_request_loop(data):
    """cache_size and policy sweeps replay one prebuilt set of streams: every
    value equals the per-request loop on its own scenario, network load to the
    last bit, and the table does not depend on the cache it was built under."""
    base = data.draw(weighted_scenarios(data.draw(st.sampled_from(POLICIES))))
    capacities = data.draw(st.lists(st.integers(1, 16), min_size=2, max_size=4))
    policies = data.draw(st.permutations(POLICIES))[:data.draw(st.integers(2, 5))]
    sweeps = [("cache_size", capacities, lambda c: replace(base.cache, capacity=c)),
              ("policy", policies, lambda p: replace(base.cache, policy=p))]
    for axis, values, config in sweeps:
        table = experiment_sweep(base, axis, values)
        assert [value for value, _ in table] == values
        for value, result in table:
            want = run_per_request(replace(base, cache=config(value)))
            assert result == want
            assert result.network_load.hex() == want.network_load.hex()
    other = replace(base, cache=CacheConfig(1, "LRU" if base.cache.policy != "LRU" else "LFU"))
    assert run(base) == run(base, _server_streams(other.validate()))


class TestScenarioValidation:
    def test_requests_per_user_floor(self):
        s = small_scenario()
        s.requests_per_user = 99
        with pytest.raises(ValidationError, match="at least 100"):
            s.validate()

    def test_unknown_origin(self):
        s = small_scenario()
        s.origin = "nope"
        with pytest.raises(ValidationError, match="origin"):
            s.validate()

    def test_assignment_must_cover_users(self):
        s = small_scenario()
        del s.assignment[s.users[0].node]
        with pytest.raises(ValidationError, match="cover"):
            s.validate()

    def test_assignment_target_in_placement(self):
        s = small_scenario()
        s.assignment[s.users[0].node] = s.topology.node_ids[2]
        with pytest.raises(ValidationError, match="non-server"):
            s.validate()


class TestExperimentSweep:
    def test_singleton_equals_run(self):
        s = small_scenario(seed=9)
        table = experiment_sweep(s, "cache_size", [s.cache.capacity])
        assert table[0][1] == run(s)

    def test_cache_size_sweep_belady_monotone(self):
        s = small_scenario(seed=10, policy="BELADY")
        table = experiment_sweep(s, "cache_size", list(range(1, 13)))
        ratios = [r.miss_ratio for _, r in table]
        assert all(ratios[i] >= ratios[i + 1] for i in range(len(ratios) - 1))

    def test_policy_sweep(self):
        s = small_scenario(seed=11)
        table = experiment_sweep(s, "policy", ["LRU", "LFU", "BELADY"])
        by_policy = {v: r for v, r in table}
        assert by_policy["BELADY"].overall.misses <= by_policy["LRU"].overall.misses

    def test_server_count_sweep_reoptimizes(self):
        s = small_scenario(seed=12)
        table = experiment_sweep(s, "server_count", [1, 2, 4])
        dists = [r.max_user_distance for _, r in table]
        assert dists[0] >= dists[-1]

    @pytest.mark.parametrize("axis, values", [("cache_size", [1, 2, 3, 6, 12]),
                                              ("policy", list(POLICIES))])
    def test_cache_axes_draw_each_stream_once(self, monkeypatch, axis, values):
        s = small_scenario(seed=13)
        calls = []

        def counted(user, master_seed, count):
            calls.append(user.node)
            return generate_requests(user, master_seed, count)

        monkeypatch.setattr(simulation, "generate_requests", counted)
        experiment_sweep(s, axis, values)
        assert sorted(calls) == sorted(u.node for u in s.users)

    def test_empty_values_rejected(self):
        with pytest.raises(ValidationError):
            experiment_sweep(small_scenario(), "cache_size", [])

    def test_unknown_axis_rejected(self):
        with pytest.raises(ValidationError):
            experiment_sweep(small_scenario(), "frequency", [1])


def test_server_count_sweep_desk_scale_shape():
    """More servers help caching overall but not at every step, while the
    maximum distance only improves; mirrors the k-sweep experiment."""
    from cdnsim import Topology, ZipfModel, generate_users
    from cdnsim.rng import derive_seed, make_rng

    rng = make_rng(derive_seed(124, "desk-topo"))
    ids = [f"n{i:03d}" for i in range(124)]
    edges = []
    for i in range(1, 124):
        edges.append((ids[int(rng.integers(0, i))], ids[i], 1.0))
    while len(edges) < 126:
        a, b = int(rng.integers(0, 124)), int(rng.integers(0, 124))
        if a != b:
            edges.append((ids[min(a, b)], ids[max(a, b)], 1.0))
    topo = Topology([(i, 1.0) for i in ids], edges)
    users = generate_users(topo, ZipfModel(0.3, 100, 15), master_seed=124)
    base = Scenario(topology=topo, users=users, placement=(ids[0],),
                    assignment={u.node: ids[0] for u in users},
                    cache=CacheConfig(10, "BELADY"), origin=ids[0],
                    master_seed=124, requests_per_user=100)
    table = experiment_sweep(base, "server_count", list(range(1, 11)))
    ratios = [r.miss_ratio for _, r in table]
    max_dists = [r.max_user_distance for _, r in table]
    assert ratios[-1] < ratios[0]  # more servers help overall
    # ... but not every additional server: this seed bumps up at k=2
    assert any(ratios[i] < ratios[i + 1] for i in range(len(ratios) - 1))
    assert all(max_dists[i] >= max_dists[i + 1] for i in range(len(max_dists) - 1))
