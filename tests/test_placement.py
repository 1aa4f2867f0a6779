import re

import pytest
from hypothesis import given, settings, strategies as st

from cdnsim import (
    CacheConfig,
    InfeasibleError,
    Scenario,
    Topology,
    UserGroup,
    ValidationError,
    ZipfModel,
    closest_assignment,
    dragoon,
    farthest_first_init,
    front_sweep,
    generate_users,
    greedy_correlation,
    one_center,
    optimize,
    relocate_servers,
    run,
    user_correlations,
)
from cdnsim.placement import PlacementObjective, _Eval
from cdnsim.rng import make_rng
from conftest import (
    dummy_profile,
    random_connected_topology,
    ring_topology,
    star_topology,
    uniform_users,
)

import oracles


@st.composite
def shuffled_instances(draw):
    """(topology, users in shuffled order, servers). Unit weights tie heavily;
    the weighted graphs carry two-decimal weights, which binary floats round."""
    topo = random_connected_topology(draw(st.integers(0, 10_000)), draw(st.integers(2, 14)),
                                     weighted=draw(st.booleans()))
    nodes = draw(st.permutations(topo.node_ids))[: draw(st.integers(1, len(topo.node_ids)))]
    users = [UserGroup(node=n, priority=draw(st.sampled_from([0.5, 1.0, 3.0])),
                       profile=dummy_profile()) for n in nodes]
    servers = draw(st.permutations(topo.node_ids))[: draw(st.integers(1, len(topo.node_ids)))]
    return topo, users, tuple(servers)


def _objective_center(topo, users, candidates):
    ev = _Eval(topo, users)
    return min(candidates, key=lambda c: (ev.objective((c,)), c))


@st.composite
def center_instances(draw):
    """(topology, users with float priorities, candidates in shuffled order):
    mirror-symmetric rings, where candidates tie in exact arithmetic but their
    float means can differ in the last bit, and random weighted graphs."""
    priority = st.floats(0.1, 5.0)
    if draw(st.booleans()):
        n = draw(st.integers(16, 40))
        topo = ring_topology(n)
        half = [draw(priority) for _ in range(n // 2 + 1)]
        priorities = [half[min(i, n - i)] for i in range(n)]
    else:
        topo = random_connected_topology(draw(st.integers(0, 10_000)),
                                         draw(st.integers(2, 20)), weighted=True)
        priorities = [draw(priority) for _ in topo.node_ids]
    users = [UserGroup(node=n, priority=w, profile=dummy_profile())
             for n, w in zip(topo.node_ids, priorities)]
    candidates = draw(st.permutations(topo.node_ids))[: draw(st.integers(1, len(topo.node_ids)))]
    return topo, users, tuple(candidates)


class TestClosestAssignment:
    def test_tie_breaks_to_lower_id(self, path3):
        users = uniform_users(path3)
        a = closest_assignment(path3, users, ("A", "C"))
        assert a["B"] == "A"

    def test_single_server(self, path5):
        users = uniform_users(path5)
        a = closest_assignment(path5, users, ("C",))
        assert set(a.values()) == {"C"}

    @pytest.mark.parametrize("seed", range(5))
    def test_matches_per_user_argmin_oracle(self, seed):
        topo = random_connected_topology(seed, 8, weighted=True)
        users = uniform_users(topo)
        servers = tuple(topo.node_ids[:3])
        a = closest_assignment(topo, users, servers)
        for u in users:
            # independent scan: smallest (distance, id) pair wins
            best = min(servers, key=lambda s: (topo.distance(u.node, s), s))
            assert a[u.node] == best

    @pytest.mark.parametrize("seed", range(3))
    def test_keys_come_in_node_id_order(self, seed):
        topo = random_connected_topology(seed, 9, weighted=True)
        users = uniform_users(topo)
        make_rng(seed).shuffle(users)
        assert [u.node for u in users] != list(topo.node_ids)
        a = closest_assignment(topo, users, tuple(topo.node_ids[3:6]))
        assert list(a) == list(topo.node_ids)

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(shuffled_instances())
    def test_matches_the_per_user_loop(self, instance):
        topo, users, servers = instance
        assert closest_assignment(topo, users, servers) == \
            oracles.closest_assignment_loop(topo, users, servers)


class TestEvaluatePlacement:
    """The placement objective under closest assignment."""

    def test_path_center(self, path3):
        obj = _Eval(path3, uniform_users(path3)).objective(("B",))
        assert obj == PlacementObjective(1.0, pytest.approx(2 / 3))

    def test_servers_everywhere(self, path5):
        users = uniform_users(path5)
        obj = _Eval(path5, users).objective(path5.node_ids)
        assert obj == PlacementObjective(0.0, 0.0)

    @pytest.mark.parametrize("seed", range(5))
    def test_recomputation_oracle(self, seed):
        topo = random_connected_topology(seed, 10, weighted=True)
        users = uniform_users(topo)
        servers = tuple(topo.node_ids[:2])
        obj = _Eval(topo, users).objective(servers)
        dists = [min(topo.distance(u.node, s) for s in servers) for u in users]
        assert obj.max_dist == pytest.approx(max(dists))
        assert obj.avg_dist == pytest.approx(sum(dists) / len(dists))

    def test_priority_weighting(self, path3):
        heavy = [
            UserGroup(node="A", priority=5.0, profile=dummy_profile()),
            UserGroup(node="C", priority=1.0, profile=dummy_profile()),
        ]
        obj = _Eval(path3, heavy).objective(("B",))
        assert obj.max_dist == 5.0  # 5 * dist(A,B)
        assert obj.avg_dist == 3.0  # (5*1 + 1*1) / 2


class TestOneCenter:
    def test_path3(self, path3):
        assert one_center(path3, uniform_users(path3)) == "B"

    def test_path5_symmetry(self, path5):
        assert one_center(path5, uniform_users(path5)) == "C"

    @pytest.mark.parametrize("seed", range(6))
    def test_exhaustive_scan_oracle(self, seed):
        topo = random_connected_topology(seed, 12, weighted=True)
        users = uniform_users(topo)
        got = one_center(topo, users)
        best = None
        for c in topo.node_ids:
            w = [u.priority * topo.distance(u.node, c) for u in users]
            key = (max(w), sum(w) / len(w), c)
            if best is None or key < best:
                best = key
        assert got == best[2]

    @pytest.mark.parametrize("slope, center", [(0.3, "n04"), (1.3, "n05")])
    def test_ring_ties_follow_the_objective(self, slope, center):
        """On a mirror-symmetric ring n04 and n05 are equal in exact arithmetic;
        `_Eval` rates them equal at slope 0.3 (the lower id wins) and gives n05
        the smaller mean at 1.3, and `one_center` agrees with it both times."""
        topo = ring_topology(9)
        users = [UserGroup(node=n, priority=1.0 + slope * min(i, 9 - i),
                           profile=dummy_profile()) for i, n in enumerate(topo.node_ids)]
        assert one_center(topo, users) == center == _objective_center(topo, users,
                                                                      topo.node_ids)

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(center_instances())
    def test_matches_the_objective(self, instance):
        """`one_center` is the candidate with the smallest `_Eval.objective`,
        ties to the lower id, on float priorities too."""
        topo, users, candidates = instance
        assert one_center(topo, users, candidates) == _objective_center(topo, users,
                                                                         candidates)


class TestFarthestFirst:
    def test_path5_k2(self, path5):
        # mark C; farthest is A by tie-break; then E
        got = farthest_first_init(path5, uniform_users(path5), 2)
        assert got == ("A", "E")

    def test_k_equals_node_count(self, path3):
        got = farthest_first_init(path3, uniform_users(path3), 3)
        assert got == ("A", "B", "C")

    def test_k1_path3(self, path3):
        got = farthest_first_init(path3, uniform_users(path3), 1)
        assert got == ("A",)

    def test_k_out_of_range(self, path3):
        with pytest.raises(InfeasibleError):
            farthest_first_init(path3, uniform_users(path3), 4)

    @pytest.mark.parametrize("k", [1.5, 2.0, True])
    @pytest.mark.parametrize("name", ["optimize", "brute_force_placement"])
    def test_k_must_be_an_int(self, name, k, path3):
        # the rule CacheConfig applies to a capacity: an int, not a bool
        users = uniform_users(path3)
        call = {
            "optimize": lambda: optimize(path3, users, k=k),
            "brute_force_placement": lambda: oracles.brute_force_placement(path3, users, k),
        }[name]
        with pytest.raises(ValidationError, match=f"k must be an int, got {k!r}$"):
            call()

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(shuffled_instances())
    def test_matches_the_first_maximum_loop(self, instance):
        topo, users, servers = instance
        k = len(servers)
        assert farthest_first_init(topo, users, k) == \
            oracles.farthest_first_init_loop(topo, users, k)


class TestDragoon:
    def test_path3_k1_moves_to_center(self, path3):
        placement, obj, log = dragoon(path3, uniform_users(path3), 1)
        assert placement == ("B",)
        assert obj.max_dist == 1.0
        assert [(m.from_node, m.to_node) for m in log] == [("A", "B")]

    def test_path5_k2_reaches_optimum(self, path5):
        users = uniform_users(path5)
        placement, obj, _ = dragoon(path5, users, 2)
        _, opt = oracles.brute_force_placement(path5, users, 2)
        assert opt.max_dist == 1.0
        assert obj.max_dist == 1.0

    @pytest.mark.parametrize("seed", range(10))
    def test_never_worse_than_init(self, seed):
        topo = random_connected_topology(seed, 10, weighted=(seed % 2 == 0))
        users = uniform_users(topo)
        for k in (1, 2, 3):
            init = farthest_first_init(topo, users, k)
            init_obj = _Eval(topo, users).objective(init)
            _, obj, _ = dragoon(topo, users, k)
            assert obj <= init_obj

    def test_deterministic(self):
        topo = random_connected_topology(7, 15, weighted=True)
        users = uniform_users(topo)
        runs = [dragoon(topo, users, 3) for _ in range(3)]
        assert runs[0] == runs[1] == runs[2]

    def test_objective_decreases_along_log(self):
        topo = random_connected_topology(13, 20)
        users = uniform_users(topo)
        _, _, log = dragoon(topo, users, 2)
        objs = [(m.max_dist, m.avg_dist) for m in log]
        assert all(objs[i] > objs[i + 1] for i in range(len(objs) - 1))


class TestBruteForce:
    def test_path3(self, path3):
        placement, obj = oracles.brute_force_placement(path3, uniform_users(path3), 1)
        assert placement == ("B",)
        assert obj.max_dist == 1.0

    def test_star_center(self):
        topo = star_topology("m", ["a", "b", "c", "d"])
        placement, obj = oracles.brute_force_placement(topo, uniform_users(topo), 1)
        assert placement == ("m",)
        assert obj.max_dist == 1.0

    def test_guard_rejects_huge_instance(self):
        topo = random_connected_topology(0, 60)
        with pytest.raises(InfeasibleError, match="guard"):
            oracles.brute_force_placement(topo, uniform_users(topo), 10)


@pytest.mark.parametrize("seed", range(12))
def test_dragoon_within_two_approx(seed):
    topo = random_connected_topology(seed, 4 + seed % 9, weighted=(seed % 3 == 0))
    users = uniform_users(topo)
    for k in (1, 2, 3):
        if k > len(topo.node_ids):
            continue
        _, obj, _ = dragoon(topo, users, k)
        _, opt = oracles.brute_force_placement(topo, users, k)
        assert obj.max_dist <= 2 * opt.max_dist + 1e-12


class TestDistanceInputErrors:
    """Unknown nodes, empty user lists and repeated servers are input errors,
    not lookup failures."""

    @pytest.mark.parametrize("name", ["optimize", "one_center", "closest_assignment"])
    def test_unknown_server_node(self, name, path3):
        users = uniform_users(path3)
        call = {
            "optimize": lambda: optimize(path3, users, placement=("Z",)),
            "one_center": lambda: one_center(path3, users, candidates=("Z",)),
            "closest_assignment": lambda: closest_assignment(path3, users, ("Z",)),
        }[name]
        with pytest.raises(ValidationError, match="unknown node 'Z'"):
            call()

    @pytest.mark.parametrize("name", ["optimize", "front_sweep"])
    def test_user_outside_the_topology(self, name, path3):
        users = uniform_users(path3) + [UserGroup(node="Q", profile=dummy_profile())]
        call = {
            "optimize": lambda: optimize(path3, users, k=1),
            "front_sweep": lambda: front_sweep(path3, users, 1, 3),
        }[name]
        with pytest.raises(ValidationError, match="unknown node 'Q'"):
            call()

    @pytest.mark.parametrize("name", ["optimize", "optimize_placement", "closest_assignment",
                                      "one_center", "run"])
    def test_no_users(self, name, path3):
        cache = CacheConfig(capacity=3, policy="LRU")
        call = {
            "optimize": lambda: optimize(path3, [], k=1),
            "optimize_placement": lambda: optimize(path3, [], placement=("A",)),
            "closest_assignment": lambda: closest_assignment(path3, [], ("A",)),
            "one_center": lambda: one_center(path3, []),
            "run": lambda: run(Scenario(path3, [], ("A",), {}, cache, "A", 0)),
        }[name]
        with pytest.raises(ValidationError, match="no users"):
            call()

    @pytest.mark.parametrize("name", ["optimize", "optimize_correlation", "closest_assignment",
                                      "greedy_correlation", "relocate_servers", "run"])
    def test_placement_with_a_repeated_node(self, name, path5):
        """A repeated server would hold an empty twin slot or vanish from the plan."""
        users = generate_users(path5, ZipfModel(0.3, 20, 5), 0)
        servers = ("B", "D", "D")
        closest = {u.node: "B" if u.node < "D" else "D" for u in users}
        cache = CacheConfig(capacity=3, policy="LRU")
        call = {
            "optimize": lambda: optimize(path5, users, placement=servers),
            "optimize_correlation": lambda: optimize(path5, users, placement=servers,
                                                     optimizer="correlation"),
            "closest_assignment": lambda: closest_assignment(path5, users, servers),
            "greedy_correlation": lambda: greedy_correlation(users, servers, closest),
            "relocate_servers": lambda: relocate_servers(path5, users, servers, closest),
            "run": lambda: run(Scenario(path5, users, servers, closest, cache, "A", 0)),
        }[name]
        with pytest.raises(ValidationError, match="placement contains duplicate nodes"):
            call()

    @pytest.mark.parametrize("name", ["optimize", "closest_assignment", "greedy_correlation",
                                      "user_correlations", "relocate_servers"])
    def test_placement_entry_that_is_not_a_string(self, name, path3):
        """Placements are sorted by node id: a non-string entry is rejected first."""
        users = uniform_users(path3)
        servers = ("A", 2)
        assignment = {"A": "A", "B": 2, "C": 2}
        call = {
            "optimize": lambda: optimize(path3, users, placement=servers),
            "closest_assignment": lambda: closest_assignment(path3, users, servers),
            "greedy_correlation": lambda: greedy_correlation(users, servers, assignment),
            "user_correlations": lambda: user_correlations(users, assignment),
            "relocate_servers": lambda: relocate_servers(path3, users, servers, assignment),
        }[name]
        with pytest.raises(ValidationError,
                           match="placement entries must be node id strings, not 2"):
            call()

    @pytest.mark.parametrize("name", ["greedy_correlation", "user_correlations",
                                      "relocate_servers", "run"])
    @pytest.mark.parametrize("value", [2, ["A"]], ids=["int", "unhashable"])
    def test_assignment_value_that_is_not_a_string(self, name, value, path3):
        """`_members` rejects the value, unhashable too, before anything hashes
        it; `user_correlations` takes its placement from the values."""
        users = uniform_users(path3)
        assignment = {"A": value, "B": "A", "C": "A"}
        cache = CacheConfig(capacity=1, policy="LRU")
        call = {
            "greedy_correlation": lambda: greedy_correlation(users, ("A",), assignment),
            "user_correlations": lambda: user_correlations(users, assignment),
            "relocate_servers": lambda: relocate_servers(path3, users, ("A",), assignment),
            "run": lambda: run(Scenario(path3, users, ("A",), assignment, cache, "A", 0)),
        }[name]
        message = (f"placement entries must be node id strings, not {value!r}"
                   if name == "user_correlations" else "user 'A' assigned outside placement")
        with pytest.raises(ValidationError, match=re.escape(message) + "$"):
            call()

    def test_unhashable_placement_entry_reaches_run(self, path3):
        """`Scenario.validate` sends each placement entry through `Topology.index`."""
        users = uniform_users(path3)
        scenario = Scenario(path3, users, (["A"],), {u.node: "A" for u in users},
                            CacheConfig(capacity=1, policy="LRU"), "A", 0)
        with pytest.raises(ValidationError, match=re.escape("unknown node ['A']") + "$"):
            run(scenario)


@st.composite
def weighted_user_sets(draw):
    """(topology, users in id order, the same users shuffled, k, seed). Edge
    weights and priorities are decimals that binary floats round, so a sum in
    another order can differ in its last bits."""
    seed = draw(st.integers(0, 10_000))
    base = random_connected_topology(seed, draw(st.integers(3, 16)), weighted=True)
    priority = st.sampled_from([0.3, 0.7, 1.9, 2.45])
    topo = Topology([(n, draw(priority)) for n in base.node_ids], list(base.edges))
    users = generate_users(topo, ZipfModel(0.3, 20, 5), seed)
    k = draw(st.integers(1, min(4, len(users))))
    return topo, users, draw(st.permutations(users)), k, seed


def _order_free_calls(topo, k, placement, closest, seed):
    """Each public entry point that takes users, its other inputs fixed."""
    cache = CacheConfig(capacity=3, policy="LRU")
    return {
        "front_sweep": lambda users: front_sweep(topo, users, k, 6),
        "greedy_correlation": lambda users: greedy_correlation(users, placement, closest),
        "run": lambda users: run(Scenario(topo, users, placement, closest, cache,
                                          placement[0], seed)),
        "optimize": lambda users: optimize(topo, users, k=k, optimizer="correlation"),
        "dragoon": lambda users: dragoon(topo, users, k),
        "one_center": lambda users: one_center(topo, users),
        "relocate_servers": lambda users: relocate_servers(topo, users, placement, closest),
    }


@pytest.mark.parametrize("name", ["front_sweep", "greedy_correlation", "run", "optimize",
                                  "dragoon", "one_center", "relocate_servers"])
@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(instance=weighted_user_sets())
def test_users_are_a_set(name, instance):
    """A shuffled user list gives bit-identical results: every priority-weighted
    distance is reduced in user-id order."""
    topo, users, shuffled_users, k, seed = instance
    placement, closest, _ = optimize(topo, users, k=k)
    call = _order_free_calls(topo, k, placement, closest, seed)[name]
    assert call(shuffled_users) == call(users)


@st.composite
def shuffled_plans(draw):
    """(topology, users shuffled, k, a placement of k nodes shuffled)."""
    topo, _, shuffled_users, k, _ = draw(weighted_user_sets())
    return topo, shuffled_users, k, tuple(draw(st.permutations(topo.node_ids))[:k])


def _plans(topo, users, k, placement):
    """Each public planner's (placement, assignment) pairs, None for a part it
    does not return; the given placement and assignment come in shuffled order."""
    closest = closest_assignment(topo, users, placement)
    shuffled = {u.node: closest[u.node] for u in users}
    return {
        "dragoon": lambda: [(dragoon(topo, users, k)[0], None)],
        "farthest_first_init": lambda: [(farthest_first_init(topo, users, k), None)],
        "closest_assignment": lambda: [(None, closest)],
        "greedy_correlation": lambda: [(None, greedy_correlation(users, placement, shuffled)[0])],
        "relocate_servers": lambda: [relocate_servers(topo, users, placement, shuffled)],
        "optimize_k_distance": lambda: [optimize(topo, users, k=k)[:2]],
        "optimize_k_correlation": lambda: [optimize(topo, users, k=k,
                                                    optimizer="correlation")[:2]],
        "optimize_placement_distance": lambda: [optimize(topo, users, placement=placement)[:2]],
        "optimize_placement_correlation": lambda: [
            optimize(topo, users, placement=placement, optimizer="correlation")[:2]],
        "front_sweep": lambda: [(p.placement, dict(p.assignment))
                                for p in front_sweep(topo, users, k, 6)],
    }


@pytest.mark.parametrize("name", ["dragoon", "farthest_first_init", "closest_assignment",
                                  "greedy_correlation", "relocate_servers",
                                  "optimize_k_distance", "optimize_k_correlation",
                                  "optimize_placement_distance",
                                  "optimize_placement_correlation", "front_sweep"])
@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(instance=shuffled_plans())
def test_every_plan_comes_in_id_order(name, instance):
    """Every planner returns its placement as a tuple in id order and its
    assignment with the users in node-id order, whatever order it was given."""
    topo, users, k, placement = instance
    for servers, assignment in _plans(topo, users, k, placement)[name]():
        if servers is not None:
            assert type(servers) is tuple and list(servers) == sorted(servers)
        if assignment is not None:
            assert list(assignment) == sorted(u.node for u in users)
