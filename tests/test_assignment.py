import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import cdnsim.assignment
from cdnsim import (
    CacheConfig,
    Profile,
    Scenario,
    Topology,
    UserGroup,
    ValidationError,
    ZipfModel,
    closest_assignment,
    dragoon,
    experiment_sweep,
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
from cdnsim.assignment import _CorrEval
from cdnsim.profiles import midranks_descending
from cdnsim.rng import make_rng
from conftest import (desk_topology, path_topology, profile_from_dict, random_connected_topology,
                      random_profile)
from oracles import relocate_servers_ranking, total_correlation

UNIVERSE_ABC = ("A", "B", "C")


def two_user_example(nodes=("u1", "u2")):
    p1 = profile_from_dict({"A": 0.5, "B": 0.5, "C": 0.0}, UNIVERSE_ABC)
    p2 = profile_from_dict({"A": 0.3, "B": 0.0, "C": 0.7}, UNIVERSE_ABC)
    return [
        UserGroup(node=nodes[0], profile=p1),
        UserGroup(node=nodes[1], profile=p2),
    ]


class TestCandidateCorr:
    """rho[user, server] of the batched evaluator, each user counted in."""

    def test_sole_member_is_self_correlation(self):
        users = two_user_example()
        rho = _CorrEval(users, ("s", "t"), {"u1": "s", "u2": "t"}).rho
        assert rho[1, 1] == 1.0

    def test_worked_example_user1(self):
        users = two_user_example()
        rho = _CorrEval(users, ("s",), {"u1": "s", "u2": "s"}).rho
        assert rho[0, 0] == pytest.approx(0.125)
        assert rho[1, 0] == pytest.approx(0.5)

    def test_empty_server_attracts_by_self_correlation(self):
        users = two_user_example()
        # u2 considering the empty server "t": would-be singleton
        rho = _CorrEval(users, ("s", "t"), {"u1": "s", "u2": "s"}).rho
        assert rho[1, 1] == 1.0


def exhaustive_optimum(users, servers):
    best = -np.inf
    best_a = None
    for combo in itertools.product(servers, repeat=len(users)):
        a = {u.node: s for u, s in zip(users, combo)}
        total = total_correlation(users, a)
        if total > best:
            best, best_a = total, a
    return best, best_a


class TestGreedyCorrelation:
    def test_identical_profiles_no_moves(self):
        topo = path_topology(["w", "x", "y", "z"])
        p = random_profile(1, UNIVERSE_ABC)
        users = [UserGroup(node=n, profile=p) for n in topo.node_ids]
        a0 = {"w": "w", "x": "w", "y": "z", "z": "z"}
        a, total, log = greedy_correlation(users, ("w", "z"), a0)
        assert a == a0
        assert len(log) == 1 and log[0].moves_proposed == 0
        assert total == log[-1].total_corr_before and not log[-1].accepted

    def test_two_clusters_converge_to_pure(self):
        # adversarial start: one cluster-1 user stranded with three others
        uni = tuple(f"s{i}" for i in range(4))
        c1 = profile_from_dict({"s0": 0.6, "s1": 0.4}, uni)
        c2 = profile_from_dict({"s2": 0.6, "s3": 0.4}, uni)
        users = [
            UserGroup(node="w", profile=c1),
            UserGroup(node="x", profile=c2),
            UserGroup(node="y", profile=c1),
            UserGroup(node="z", profile=c2),
        ]
        a0 = {"w": "w", "x": "w", "y": "w", "z": "z"}
        a, total, log = greedy_correlation(users, ("w", "z"), a0)
        assert a["w"] == a["y"] and a["x"] == a["z"] and a["w"] != a["x"]
        opt, _ = exhaustive_optimum(users, ("w", "z"))
        assert total == pytest.approx(opt)
        assert total == log[-1].total_corr_before and not log[-1].accepted

    def test_a_batch_re_ranks_only_the_servers_it_touches(self, monkeypatch):
        # u1 and u2 make s1 rank like A, so u3 (B, the reverse of A) leaves s1
        # for s2, where u4 likes B too; u5 keeps s3, which no move touches
        uni = ("a", "b", "c", "d")
        a_, b_, c_ = ([0.4, 0.3, 0.2, 0.1], [0.1, 0.2, 0.3, 0.4], [0.3, 0.4, 0.1, 0.2])
        users = [UserGroup(node=f"u{i}", profile=Profile(uni, np.array(p)))
                 for i, p in enumerate([a_, a_, b_, b_, c_], start=1)]
        a0 = {"u1": "s1", "u2": "s1", "u3": "s1", "u4": "s2", "u5": "s3"}
        calls = [0]

        def counting(values):
            calls[0] += 1
            return midranks_descending(values)

        monkeypatch.setattr(cdnsim.assignment, "midranks_descending", counting)
        a, _, log = greedy_correlation(users, ("s1", "s2", "s3"), a0)
        assert a == {**a0, "u3": "s2"}
        assert [(b.moves_proposed, b.accepted) for b in log] == [(1, True), (0, False)]
        # the users' own ranks and the starting total's rows; the first round's
        # 3 columns and its trial's rows; then only s1 and s2 re-ranked, and
        # the empty round's trial rows
        assert calls[0] == 1 + 1 + (3 + 1) + (2 + 1)

    def test_a_rejected_batch_ranks_no_column(self, monkeypatch):
        # criterion 10's instance at k=10 rejects its first batch: the greedy
        # ranks the 10 columns its proposals need, and none for the trial
        topo = desk_topology()
        users = generate_users(topo, ZipfModel(0.3, 100, 15), master_seed=124)
        placement, _, _ = dragoon(topo, users, 10)
        a0 = closest_assignment(topo, users, placement)
        rebuilt = []
        rebuild = _CorrEval._rebuild
        monkeypatch.setattr(_CorrEval, "_rebuild", lambda ev, j: rebuilt.append(j) or rebuild(ev, j))
        final, _, log = greedy_correlation(users, placement, a0)
        assert [(b.moves_proposed, b.accepted) for b in log] == [(118, False)]
        assert final == a0
        assert rebuilt == list(range(10))

    @pytest.mark.parametrize("seed", range(15))
    def test_accepted_iterations_strictly_increase(self, seed):
        topo = random_connected_topology(seed, 7)
        universe = tuple(f"s{i}" for i in range(6))
        users = [UserGroup(node=n, profile=random_profile(seed * 31 + i, universe))
                 for i, n in enumerate(topo.node_ids)]
        servers = tuple(topo.node_ids[:2])
        a0 = closest_assignment(topo, users, servers)
        _, total, log = greedy_correlation(users, servers, a0)
        for rec in log:
            if rec.accepted:
                assert rec.total_corr_after > rec.total_corr_before
        # every record but the last is accepted; the last is a rejected or empty
        # round, whose starting total is the returned one
        assert all(rec.accepted for rec in log[:-1])
        assert total == log[-1].total_corr_before and not log[-1].accepted

    def test_deterministic(self):
        topo = random_connected_topology(3, 8)
        universe = tuple(f"s{i}" for i in range(5))
        users = [UserGroup(node=n, profile=random_profile(i, universe))
                 for i, n in enumerate(topo.node_ids)]
        servers = tuple(topo.node_ids[:3])
        a0 = closest_assignment(topo, users, servers)
        first = greedy_correlation(users, servers, a0)
        second = greedy_correlation(users, servers, a0)
        assert first == second

    def test_rejects_assignment_outside_placement(self):
        users = [UserGroup(node="A", profile=random_profile(0, UNIVERSE_ABC))]
        with pytest.raises(ValidationError, match="user 'A' assigned outside placement"):
            greedy_correlation(users, ("B",), {"A": "C"})
        with pytest.raises(ValidationError, match="user 'A' missing from"):
            greedy_correlation(users, ("B",), {})


def _profile_calls(topo, users, assignment):
    """Each public entry point that takes a user list; an empty `assignment`
    places its one server at the topology's first node."""
    servers = tuple(sorted(set(assignment.values()))) or topo.node_ids[:1]
    scenario = Scenario(topology=topo, users=users, placement=servers, assignment=assignment,
                        cache=CacheConfig(2), origin=servers[0], master_seed=0)
    return {
        "dragoon": lambda: dragoon(topo, users, 2),
        "farthest_first_init": lambda: farthest_first_init(topo, users, 2),
        "one_center": lambda: one_center(topo, users),
        "closest_assignment": lambda: closest_assignment(topo, users, servers),
        "optimize_distance": lambda: optimize(topo, users, k=2),
        "user_correlations": lambda: user_correlations(users, assignment),
        "relocate_servers": lambda: relocate_servers(topo, users, servers, assignment),
        "greedy_correlation": lambda: greedy_correlation(users, servers, assignment),
        "optimize": lambda: optimize(topo, users, k=2, optimizer="correlation"),
        "front_sweep": lambda: front_sweep(topo, users, 2, 4),
        "run": lambda: run(scenario),
        "cache_size_sweep": lambda: experiment_sweep(scenario, "cache_size", [2, 3]),
        "server_count_sweep": lambda: experiment_sweep(scenario, "server_count", [2]),
    }


@pytest.mark.parametrize("name", list(_profile_calls(path_topology(["A", "B"]), [], {})))
@pytest.mark.parametrize("nodes, message", [("AAC", "duplicate user nodes"), ("", "no users")],
                         ids=["repeated_node", "empty"])
def test_user_list_is_checked_by_every_stage(name, nodes, message, path3):
    """A repeated node would count one user twice, and an empty list has no
    objective: every stage rejects both before it computes anything."""
    users = [UserGroup(node=n, profile=random_profile(i, UNIVERSE_ABC))
             for i, n in enumerate(nodes)]
    call = _profile_calls(path3, users, {n: n for n in nodes})[name]
    with pytest.raises(ValidationError, match=f"^{message}$"):
        call()


@pytest.mark.parametrize("name", ["user_correlations", "greedy_correlation", "optimize",
                                  "front_sweep", "run", "cache_size_sweep",
                                  "server_count_sweep"])
def test_user_without_profile_is_rejected(name, path3):
    """Each stage that reads profiles runs on these users, and a user without
    one is rejected when its group is built, before any stage is reached."""
    def users(b_profile):
        return [UserGroup(node="A", profile=random_profile(0, UNIVERSE_ABC)),
                UserGroup(node="B", profile=b_profile),
                UserGroup(node="C", profile=random_profile(2, UNIVERSE_ABC))]

    assignment = {"A": "A", "B": "A", "C": "C"}
    assert _profile_calls(path3, users(random_profile(1, UNIVERSE_ABC)), assignment)[name]()
    with pytest.raises(ValidationError, match="^user 'B' has no profile$"):
        _profile_calls(path3, users(None), assignment)[name]()


@pytest.mark.parametrize("name", ["user_correlations", "relocate_servers", "run",
                                  "greedy_correlation"])
def test_user_missing_from_assignment_is_rejected(name, path3):
    users = [UserGroup(node=n, profile=random_profile(i, UNIVERSE_ABC))
             for i, n in enumerate(path3.node_ids)]
    call = _profile_calls(path3, users, {"A": "B", "B": "B"})[name]
    with pytest.raises(ValidationError, match="user 'C' missing from assignment"):
        call()


@pytest.mark.parametrize("name", ["user_correlations", "greedy_correlation",
                                  "relocate_servers", "run"])
def test_assignment_entry_for_a_non_user_is_rejected(name, path3):
    """Node C is in the topology but is no user, so its entry fits no user."""
    users = [UserGroup(node=n, profile=random_profile(i, UNIVERSE_ABC))
             for i, n in enumerate("AB")]
    call = _profile_calls(path3, users, {"A": "A", "B": "A", "C": "A"})[name]
    with pytest.raises(ValidationError, match="node 'C' in assignment is not a user"):
        call()


@st.composite
def relocation_instances(draw):
    """A weighted topology, priorities other than 1 and an arbitrary assignment
    onto k servers, so that groups are scattered and some are empty.

    Edge weights and priorities are decimals that binary floats cannot hold, so
    two candidates whose averages tie exactly on paper can differ in the last
    bit, depending on the order in which the members are summed. Rings with one
    shared weight and one shared priority make such ties common: every node of
    the ring sees the same multiset of distances.
    """
    n = draw(st.integers(2, 16))
    rng = make_rng(draw(st.integers(0, 2**32)))
    ids = [f"n{i:02d}" for i in range(n)]
    weights = [0.1, 0.2, 0.3, 0.7]
    priorities = [0.1, 0.3, 0.7, 1.1, 2.2]
    if draw(st.booleans()):
        w = float(rng.choice(weights))
        edges = [(ids[i], ids[(i + 1) % n], w) for i in range(n)]
        priorities = [float(rng.choice(priorities))]
    else:
        edges = [(ids[int(rng.integers(i))], ids[i], float(rng.choice(weights)))
                 for i in range(1, n)]
        for _ in range(draw(st.integers(0, n))):
            a, b = sorted(rng.choice(n, size=2, replace=False).tolist())
            edges.append((ids[a], ids[b], float(rng.choice(weights))))
    topo = Topology([(i, float(rng.choice(priorities))) for i in ids], edges)
    users = [UserGroup(node=node, profile=random_profile(i, ("s0", "s1")))
             for i, node in enumerate(ids)]
    k = draw(st.integers(1, n))
    servers = tuple(sorted(rng.choice(ids, size=k, replace=False).tolist()))
    assignment = {u.node: servers[int(rng.integers(k))] for u in users}
    shuffled = [users[i] for i in rng.permutation(n)]
    return topo, users, servers, assignment, shuffled


class TestRelocateServers:
    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(relocation_instances())
    def test_matches_the_full_ranking_oracle(self, instance):
        # every caller passes users in node-id order, as the oracle gets them here;
        # the one_center path gives the same result for any user order
        topo, users, servers, assignment, shuffled = instance
        expected = relocate_servers_ranking(topo, users, servers, assignment)
        assert relocate_servers(topo, users, servers, assignment) == expected
        assert relocate_servers(topo, shuffled, servers, assignment) == expected

    def test_group_on_path_moves_to_middle(self, path3):
        users = [
            UserGroup(node="A", profile=random_profile(0, UNIVERSE_ABC)),
            UserGroup(node="C", profile=random_profile(1, UNIVERSE_ABC)),
        ]
        a = {"A": "A", "C": "A"}
        placement, new_a = relocate_servers(path3, users, ("A",), a)
        assert placement == ("B",)
        assert new_a == {"A": "B", "C": "B"}

    def test_singleton_group_stays_home(self, path3):
        users = [UserGroup(node="A", profile=random_profile(0, UNIVERSE_ABC))]
        placement, new_a = relocate_servers(path3, users, ("C",), {"A": "C"})
        assert placement == ("A",)
        assert new_a == {"A": "A"}

    def test_empty_server_keeps_location(self, path3):
        users = [UserGroup(node="A", profile=random_profile(0, UNIVERSE_ABC))]
        placement, new_a = relocate_servers(path3, users, ("B", "C"), {"A": "C"})
        assert placement == ("A", "B")
        assert new_a == {"A": "A"}

    @pytest.mark.parametrize("seed", range(6))
    def test_per_group_one_center_oracle(self, seed):
        topo = random_connected_topology(seed, 12, weighted=True)
        universe = tuple(f"s{i}" for i in range(4))
        users = [UserGroup(node=n, profile=random_profile(i, universe))
                 for i, n in enumerate(topo.node_ids)]
        servers = tuple(topo.node_ids[:3])
        a = closest_assignment(topo, users, servers)
        placement, new_a = relocate_servers(topo, users, servers, a)
        # every group's new location minimizes the group's (max, avg) objective
        groups = {}
        for u in users:
            groups.setdefault(new_a[u.node], []).append(u)
        for server, members in groups.items():
            w = lambda c: [topo.priorities[m.node] * topo.distance(m.node, c) for m in members]
            best = min(topo.node_ids, key=lambda c: (max(w(c)), float(np.mean(w(c))), c))
            claimed = set(placement) - {server}
            if best not in claimed:
                assert server == best

    @pytest.mark.parametrize("seed", range(6))
    def test_never_increases_group_max_distance(self, seed):
        topo = random_connected_topology(seed + 50, 12)
        universe = tuple(f"s{i}" for i in range(4))
        users = [UserGroup(node=n, profile=random_profile(i, universe))
                 for i, n in enumerate(topo.node_ids)]
        servers = tuple(topo.node_ids[:3])
        a = closest_assignment(topo, users, servers)
        placement, new_a = relocate_servers(topo, users, servers, a)
        old_max = {s: 0.0 for s in servers}
        new_max = {}
        for u in users:
            old_max[a[u.node]] = max(old_max[a[u.node]], topo.distance(u.node, a[u.node]))
        for u in users:
            s = new_a[u.node]
            new_max[s] = max(new_max.get(s, 0.0), topo.distance(u.node, s))
        # compare per group via the old->new server mapping
        mapping = {a[u.node]: new_a[u.node] for u in users}
        for old_server, new_server in mapping.items():
            assert new_max[new_server] <= old_max[old_server] + 1e-12


class TestOptimize:
    """optimize is the composition of the stages it documents, nothing more."""

    @pytest.mark.parametrize("seed", range(3))
    def test_composes_the_stages(self, seed):
        topo = random_connected_topology(seed, 12)
        universe = tuple(f"s{i}" for i in range(6))
        users = [UserGroup(node=n, profile=random_profile(seed * 17 + i, universe))
                 for i, n in enumerate(topo.node_ids)]
        placement, _, _ = dragoon(topo, users, 3)
        closest = closest_assignment(topo, users, placement)
        assert optimize(topo, users, k=3) == (placement, closest, [])
        greedy, _, log = greedy_correlation(users, placement, closest)
        expected = (*relocate_servers(topo, users, placement, greedy), log)
        # a given placement wins over k
        assert optimize(topo, users, k=1, placement=placement,
                        optimizer="correlation") == expected

    def test_rejects_unknown_optimizer_and_missing_plan(self, path3):
        users = [UserGroup(node="A", profile=random_profile(0, UNIVERSE_ABC))]
        with pytest.raises(ValidationError):
            optimize(path3, users, k=1, optimizer="latency")
        with pytest.raises(ValidationError):
            optimize(path3, users)
