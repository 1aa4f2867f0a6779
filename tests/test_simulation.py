
import re
from dataclasses import FrozenInstanceError, replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cdnsim import (
    CacheConfig,
    Scenario,
    UserGroup,
    ValidationError,
    closest_assignment,
    experiment_sweep,
    generate_requests,
    run,
)
from cdnsim import simulation
from cdnsim.assignment import optimize
from cdnsim.cache import POLICIES
from cdnsim.placement import _members
from cdnsim.rng import derive_seed, make_rng
from cdnsim.simulation import _requests
from conftest import (
    path_topology,
    profile_from_dict,
    random_connected_topology,
    random_profile,
    with_priorities,
)
from oracles import run_per_request


def small_scenario(seed=0, policy="LRU", capacity=3, requests=100):
    topo = random_connected_topology(seed, 8)
    universe = tuple(f"s{i}" for i in range(12))
    users = [
        UserGroup(node=n, profile=random_profile(seed * 17 + i, universe))
        for i, n in enumerate(topo.node_ids)
    ]
    placement = (topo.node_ids[0], topo.node_ids[4])
    return Scenario(
        topology=topo,
        users=users,
        placement=placement,
        assignment=closest_assignment(topo, users, placement),
        cache=CacheConfig(capacity, policy),
        origin=topo.node_ids[1],
        master_seed=seed,
        requests_per_user=requests,
    )


class TestGenerateRequests:
    def test_degenerate_profile(self):
        user = UserGroup(node="u", profile=profile_from_dict({"a": 1.0}, ("a", "b")))
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
        user = UserGroup(node="u", profile=profile_from_dict({"a": 0.75, "b": 0.25}))
        draws = generate_requests(user, 42, n)
        count_a = draws.count("a")
        sigma = np.sqrt(n * 0.75 * 0.25)
        assert abs(count_a - n * 0.75) <= 3 * sigma

    def test_zero_probability_never_drawn(self):
        user = UserGroup(node="u", profile=profile_from_dict({"a": 0.5, "b": 0.5, "c": 0.0}))
        assert "c" not in set(generate_requests(user, 11, 5000))

    @pytest.mark.parametrize("count", [150.0, True, -1, 2.5, "150", None])
    def test_count_must_be_a_non_negative_int(self, count):
        # an int, not a bool, as for a CacheConfig capacity; 0 is an empty stream
        user = UserGroup(node="u", profile=profile_from_dict({"a": 0.5, "b": 0.5}))
        with pytest.raises(ValidationError,
                           match=re.escape(f"count must be an int >= 0, got {count!r}")):
            generate_requests(user, 1, count)


class TestRun:
    def test_capacity_covering_universe_leaves_only_cold_misses(self):
        s = small_scenario(capacity=12)
        r = run(s)
        assert r.overall.misses == r.overall.cold_misses

    def test_single_user_hand_computed(self):
        topo = path_topology(["A", "B"])
        users = [UserGroup(node="A", profile=profile_from_dict({"a": 1.0}, ("a",)))]
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
        floor = sum(s.topology.distance(u.node, s.assignment[u.node]) * s.requests_per_user
                    for u in s.users)
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
        expected = sum(topo.distance(n, "B") for n in topo.node_ids) * 100
        assert r.network_load == pytest.approx(expected)

    def test_overflowing_network_load_is_rejected(self):
        # priority x distance is finite (3 x 2e306), 300 requests of 1e306 are not
        topo = path_topology(["A", "B", "C"], weight=1e306)
        users = [UserGroup(node=n, profile=profile_from_dict({"a": 0.5, "b": 0.5}))
                 for n in topo.node_ids]
        s = Scenario(topo, users, ("B",), dict.fromkeys(topo.node_ids, "B"),
                     CacheConfig(1), "B", 0)
        with pytest.raises(ValidationError, match=r"^network load overflows to inf$"):
            run(s)

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
    topo = with_priorities(topo, {n: round(float(rng.random()) * 4 + 0.1, 2) for n in nodes})
    users = [UserGroup(node=n, profile=random_profile(seed + i, universe))
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
    """Every sweep replays one request table: each value equals the per-request
    loop on its own scenario (its own plan on the server_count axis), network
    load to the last bit, and the table depends on neither the plan nor the
    cache it was built under."""
    base = data.draw(weighted_scenarios(data.draw(st.sampled_from(POLICIES))))
    nodes = base.topology.node_ids
    capacities = data.draw(st.lists(st.integers(1, 16), min_size=2, max_size=4))
    policies = data.draw(st.permutations(POLICIES))[:data.draw(st.integers(2, 5))]
    counts = data.draw(st.lists(st.integers(1, len(nodes)), min_size=2, max_size=3))

    def planned(k):
        placement, assignment, _ = optimize(base.topology, base.users, k=k)
        return replace(base, placement=placement, assignment=assignment)

    def cached(**change):
        return replace(base, cache=replace(base.cache, **change))

    sweeps = [("cache_size", capacities, lambda c: cached(capacity=c)),
              ("policy", policies, lambda p: cached(policy=p)),
              ("server_count", counts, planned)]
    for axis, values, scenario in sweeps:
        table = experiment_sweep(base, axis, values)
        assert [value for value, _ in table] == values
        for value, result in table:
            want = run_per_request(scenario(value))
            assert result == want
            assert result.network_load.hex() == want.network_load.hex()
    server = nodes[0] if base.placement == (nodes[-1],) else nodes[-1]
    other = replace(base, placement=(server,), assignment={u.node: server for u in base.users},
                    cache=CacheConfig(1, "LRU" if base.cache.policy != "LRU" else "LFU"))
    assert run(base) == run(base, _requests(other))


@pytest.mark.parametrize("edit", [lambda table, node: table.pop(node),
                                  lambda table, node: table.clear(),
                                  lambda table, node: table[node].pop(),
                                  lambda table, node: table[node].append(table[node][0])],
                         ids=["missing-user", "empty", "one-short", "one-long"])
def test_run_rejects_a_table_that_does_not_fit(edit):
    """`run` replays a passed table only if it holds `requests_per_user`
    requests for every user of the scenario."""
    s = small_scenario(seed=3)
    table = _requests(s)
    edit(table, s.users[0].node)
    with pytest.raises(ValidationError, match=re.escape(
            f"request table needs 100 for user {s.users[0].node!r}")):
        run(s, table)


def test_run_checks_and_groups_its_plan_once(monkeypatch):
    calls = []

    def counted(*args):
        calls.append(args)
        return _members(*args)

    monkeypatch.setattr(simulation, "_members", counted)
    run(small_scenario(seed=4))
    assert len(calls) == 1


class TestScenarioValidation:
    def test_requests_per_user_floor(self):
        s = small_scenario()
        with pytest.raises(ValidationError,
                           match="requests_per_user must be an int >= 100, got 99$"):
            replace(s, requests_per_user=99)

    @pytest.mark.parametrize("count", [150.0, True, 2.5, "150", None])
    def test_requests_per_user_must_be_an_int(self, count):
        with pytest.raises(ValidationError, match=re.escape(
                f"requests_per_user must be an int >= 100, got {count!r}")):
            run(replace(small_scenario(), requests_per_user=count))

    def test_unknown_origin(self):
        s = small_scenario()
        with pytest.raises(ValidationError, match="unknown node 'nope'"):
            replace(s, origin="nope")

    def test_a_built_scenario_is_frozen(self):
        """A scenario is checked once, when it is built, so its fields cannot be
        assigned afterwards; `replace` builds and checks a new one."""
        s = small_scenario()
        with pytest.raises(FrozenInstanceError):
            s.requests_per_user = 99

    def test_assignment_must_cover_users(self):
        s = small_scenario()
        del s.assignment[s.users[0].node]
        with pytest.raises(ValidationError,
                           match=f"user {s.users[0].node!r} missing from assignment"):
            s.validate()

    def test_assignment_target_in_placement(self):
        s = small_scenario()
        s.assignment[s.users[0].node] = s.topology.node_ids[2]
        with pytest.raises(ValidationError,
                           match=f"user {s.users[0].node!r} assigned outside placement"):
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
                                              ("policy", list(POLICIES)),
                                              ("server_count", [1, 2, 4])])
    def test_cache_axes_draw_each_stream_once(self, monkeypatch, axis, values):
        s = small_scenario(seed=13)
        calls = []

        def counted(user, master_seed, count):
            calls.append(user.node)
            return generate_requests(user, master_seed, count)

        monkeypatch.setattr(simulation, "generate_requests", counted)
        experiment_sweep(s, axis, values)
        assert sorted(calls) == sorted(u.node for u in s.users)

    @pytest.mark.parametrize("axis, value", [("cache_size", 2.5), ("cache_size", True),
                                             ("server_count", 1.5), ("server_count", True)])
    def test_values_are_checked_not_coerced(self, axis, value):
        with pytest.raises(ValidationError, match="must be an int"):
            experiment_sweep(small_scenario(), axis, [value])

    def test_empty_values_rejected(self):
        with pytest.raises(ValidationError):
            experiment_sweep(small_scenario(), "cache_size", [])

    @pytest.mark.parametrize("axis, value", [("cache_size", 3), ("policy", "LFU"),
                                             ("server_count", 2)])
    def test_bad_request_count_fails_before_the_draw(self, axis, value):
        """A base with a bad request count cannot be built, so no sweep reaches
        `generate_requests`' count check."""
        with pytest.raises(ValidationError,
                           match=re.escape("requests_per_user must be an int >= 100, got -5")):
            experiment_sweep(replace(small_scenario(), requests_per_user=-5), axis, [value])

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
