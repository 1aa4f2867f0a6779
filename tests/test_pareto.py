import itertools
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import cdnsim.assignment
from cdnsim import (
    CacheConfig,
    Scenario,
    UserGroup,
    ValidationError,
    ZipfModel,
    closest_assignment,
    front_sweep,
    generate_users,
    non_dominated,
    run,
)
from cdnsim.pareto import SolutionPoint
from cdnsim.placement import dragoon
from cdnsim.profiles import midranks_descending
from cdnsim.rng import derive_seed, make_rng
from conftest import (desk_topology, path_topology, profile_from_dict, random_connected_topology,
                      random_profile)
from oracles import brute_force_placement, dominates, front_sweep_pairwise, total_correlation


def point(avg_dist, total_corr, step=0):
    return SolutionPoint(
        placement=("a",),
        assignment=(("u", "a"),),
        avg_dist=avg_dist,
        total_corr=total_corr,
        max_dist=avg_dist,
        step=step,
    )


class TestDominates:
    def test_strictly_better_both(self):
        assert dominates(point(1.0, 5.0), point(2.0, 4.0))

    def test_self_is_not_dominant(self):
        p = point(1.0, 5.0)
        assert not dominates(p, p)

    def test_incomparable(self):
        assert not dominates(point(1.0, 4.0), point(2.0, 5.0))
        assert not dominates(point(2.0, 5.0), point(1.0, 4.0))

    def test_equal_one_axis(self):
        assert dominates(point(1.0, 5.0), point(1.0, 4.0))
        assert dominates(point(1.0, 5.0), point(2.0, 5.0))


def quadratic_filter(points):
    """Oracle: O(n^2) dominance scan plus (avg_dist, total_corr) dedup."""
    kept = []
    seen = set()
    for p in points:
        if any(dominates(q, p) for q in points):
            continue
        key = (p.avg_dist, p.total_corr)
        if key in seen:
            continue
        seen.add(key)
        kept.append(p)
    return sorted(kept, key=lambda p: p.avg_dist)


class TestNonDominated:
    def test_chain_of_incomparables_retained(self):
        # corr must rise with dist for points to be mutually incomparable
        pts = [point(3, 5), point(2, 4), point(1, 3)]
        front = non_dominated(pts)
        assert [(p.avg_dist, p.total_corr) for p in front] == [(1, 3), (2, 4), (3, 5)]

    def test_cheaper_point_dominates_worse_corr(self):
        front = non_dominated([point(1, 5), point(2, 4), point(3, 3)])
        assert [(p.avg_dist, p.total_corr) for p in front] == [(1, 5)]

    def test_duplicate_corr_keeps_cheaper(self):
        front = non_dominated([point(1, 5), point(2, 5)])
        assert [(p.avg_dist, p.total_corr) for p in front] == [(1, 5)]

    @pytest.mark.parametrize("seed", range(20))
    def test_matches_quadratic_oracle(self, seed):
        rng = make_rng(derive_seed(seed, "points"))
        pts = [
            point(float(rng.integers(0, 12)), float(rng.integers(0, 12)), step=i)
            for i in range(int(rng.integers(2, 60)))
        ]
        got = [(p.avg_dist, p.total_corr) for p in non_dominated(pts)]
        want = [(p.avg_dist, p.total_corr) for p in quadratic_filter(pts)]
        assert got == want

    def test_sorted_and_strictly_increasing(self):
        rng = make_rng(1)
        pts = [point(float(rng.random()), float(rng.random())) for _ in range(200)]
        front = non_dominated(pts)
        dists = [p.avg_dist for p in front]
        corrs = [p.total_corr for p in front]
        assert dists == sorted(dists)
        assert all(corrs[i] < corrs[i + 1] for i in range(len(corrs) - 1))


def walk_instance(seed=0, n=10):
    """(topology, users) with random profiles on a random connected graph."""
    topo = random_connected_topology(seed, n)
    universe = tuple(f"s{i}" for i in range(8))
    users = [
        UserGroup(node=node, profile=random_profile(seed * 101 + i, universe))
        for i, node in enumerate(topo.node_ids)
    ]
    return topo, users


class TestFrontSweep:
    def test_steps_two_gives_endpoints_only(self):
        front = front_sweep(*walk_instance(1), k=2, steps=2)
        assert 1 <= len(front) <= 2
        assert {p.step for p in front} <= {0, 1}

    def test_no_dominated_pairs(self):
        front = front_sweep(*walk_instance(2), k=2, steps=20)
        for a, b in itertools.permutations(front, 2):
            assert not dominates(a, b)

    def test_deterministic(self):
        assert front_sweep(*walk_instance(3), 2, 15) == front_sweep(*walk_instance(3), 2, 15)

    def test_endpoints_span_the_tradeoff(self):
        topo, users = walk_instance(5)
        front = front_sweep(topo, users, 2, 30)
        place0, _, _ = dragoon(topo, users, 2)
        a0 = closest_assignment(topo, users, place0)
        w = [topo.priorities[u.node] * topo.distance(u.node, a0[u.node]) for u in users]
        min_avg = float(np.mean(w))
        assert front[0].avg_dist == pytest.approx(min_avg)
        # recorded correlation endpoint is the best correlation on the front
        assert front[-1].total_corr == max(p.total_corr for p in front)

    def test_two_cluster_endpoints_match_exhaustive(self):
        # <= 8 users: endpoints checked against enumeration of all assignments
        uni = tuple(f"s{i}" for i in range(6))
        c1 = profile_from_dict({"s0": 0.5, "s1": 0.3, "s2": 0.2}, uni)
        c2 = profile_from_dict({"s3": 0.5, "s4": 0.3, "s5": 0.2}, uni)
        topo = path_topology([f"n{i}" for i in range(6)])
        users = [
            UserGroup(node=f"n{i}", profile=(c1 if i in (0, 2, 4) else c2))
            for i in range(6)
        ]
        front = front_sweep(topo, users, 2, 2)

        # distance endpoint: dragoon meets the exact k-center optimum here
        place0, obj0, _ = dragoon(topo, users, 2)
        _, bf_obj = brute_force_placement(topo, users, 2)
        assert obj0 == bf_obj
        assert front[0].avg_dist == pytest.approx(obj0.avg_dist)

        # correlation endpoint: exhaustive enumeration over the fixed placement
        best_corr = -np.inf
        for combo in itertools.product(place0, repeat=len(users)):
            a = {u.node: sv for u, sv in zip(users, combo)}
            best_corr = max(best_corr, total_correlation(users, a))
        assert front[-1].total_corr == pytest.approx(best_corr)

    def test_steps_below_two_rejected(self):
        with pytest.raises(ValidationError):
            front_sweep(*walk_instance(6), 2, 1)

    @pytest.mark.parametrize("steps", [2.5, 3.0, True, "3", None])
    def test_steps_must_be_an_int(self, steps):
        # the rule CacheConfig applies to a capacity: an int, not a bool
        with pytest.raises(ValidationError,
                           match=re.escape(f"steps must be an int >= 2, got {steps!r}")):
            front_sweep(*walk_instance(6), 2, steps)

    def test_simulate_attaches_results(self):
        # front points are plain plans: each one replays through the public run()
        topo, users = walk_instance(8)
        for p in front_sweep(topo, users, 2, 5):
            result = run(Scenario(topology=topo, users=users, placement=p.placement,
                                  assignment=dict(p.assignment), cache=CacheConfig(3, "LRU"),
                                  origin=topo.node_ids[0], master_seed=8))
            assert 0.0 <= result.miss_ratio <= 1.0

    def test_front_is_finer_grained_than_four_points(self):
        # enough walk steps on a desk-size scenario produce a rich front
        front = front_sweep(*walk_instance(9, n=16), k=3, steps=60)
        assert len(front) >= 4


class TestWalkAgainstPairwiseOracle:
    """The walk's one evaluator against a fresh pairwise evaluator per step,
    point for point."""

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(seed=st.integers(0, 2**32), n=st.integers(2, 12),
           universe=st.integers(2, 12), alpha=st.sampled_from([0.0, 0.3, 1.0]),
           data=st.data())
    def test_generated_instances(self, seed, n, universe, alpha, data):
        # alpha 0 deals one probability to every liked service: tie-heavy ranks
        topo = random_connected_topology(seed, n, weighted=bool(seed % 2))
        model = ZipfModel(alpha, universe, data.draw(st.integers(1, universe)))
        users = generate_users(topo, model, seed)
        k = data.draw(st.integers(1, min(4, n)))
        steps = data.draw(st.integers(2, 30))
        assert front_sweep(topo, users, k, steps) == front_sweep_pairwise(topo, users, k, steps)

    @pytest.mark.parametrize("steps", [10, 50])
    @pytest.mark.parametrize("seed", [124, 2718])
    def test_desk_instance(self, seed, steps):
        topo = desk_topology()
        users = generate_users(topo, ZipfModel(0.3, 100, 15), master_seed=seed)
        assert front_sweep(topo, users, 10, steps) == front_sweep_pairwise(topo, users, 10, steps)


def test_a_walk_step_re_ranks_two_columns(monkeypatch):
    # one step more re-ranks the candidate rows of the two servers the move
    # changes, one row per user each, and its total ranks one row per occupied
    # server (all 10); the end points cost the same either way
    topo = desk_topology()
    users = generate_users(topo, ZipfModel(0.3, 100, 15), master_seed=124)
    rows = [0]

    def counting(values):
        rows[0] += len(values) if np.ndim(values) == 2 else 1
        return midranks_descending(values)

    monkeypatch.setattr(cdnsim.assignment, "midranks_descending", counting)
    ranked = []
    for steps in (10, 11):
        rows[0] = 0
        front_sweep(topo, users, 10, steps)
        ranked.append(rows[0])
    assert ranked[1] - ranked[0] == 2 * len(users) + 10
