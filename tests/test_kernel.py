"""Differential tests: the batched rank-correlation kernel against the per-pair oracles.

Every comparison is exact (==): the kernel is meant to reproduce the
reference bit for bit, ties included.
"""

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from cdnsim import (
    Profile,
    UserGroup,
    ZipfModel,
    closest_assignment,
    dragoon,
    generate_profile,
    generate_users,
    greedy_correlation,
    make_universe,
    user_correlations,
    zipf_pmf,
)
from cdnsim.assignment import _CorrEval
from cdnsim.profiles import midranks_descending
from cdnsim.rng import derive_seed, make_rng
from conftest import desk_topology, random_connected_topology, ring_topology
from oracles import PairwiseCorr, midranks_loop, total_correlation

EXACT = settings(max_examples=150, deadline=None, derandomize=True, database=None)


def tie_heavy_row(rng, n: int, kind: str) -> np.ndarray:
    counts = rng.integers(0, 4, n).astype(np.float64)
    counts[rng.integers(n)] += 1  # never all zero
    if kind == "counts":
        return counts / rng.integers(1, 4)
    if kind == "equal":
        return np.full(n, counts[0])
    if kind == "normalized":
        return counts / counts.sum()
    # a server-style sum of normalized vectors, normalized again: rounding in
    # the sum can create or break exact ties
    total = np.zeros(n)
    for _ in range(int(rng.integers(2, 6))):
        c = rng.integers(0, 3, n).astype(np.float64)
        c[rng.integers(n)] += 1
        total += c / c.sum()
    return total / total.sum()


@st.composite
def row_batches(draw):
    n = draw(st.one_of(st.just(2), st.integers(2, 40), st.integers(120, 260)))
    m = draw(st.integers(1, 6))
    kind = draw(st.sampled_from(["counts", "equal", "normalized", "summed"]))
    rng = make_rng(draw(st.integers(0, 2**32)))
    return np.stack([tie_heavy_row(rng, n, kind) for _ in range(m)])


class TestMidranks:
    @EXACT
    @given(row_batches())
    def test_batched_matches_loop(self, rows):
        batched = midranks_descending(rows)
        for row, ranks in zip(rows, batched):
            assert np.array_equal(ranks, midranks_loop(row))
            assert np.array_equal(midranks_descending(row), ranks)

    def test_length_two_and_all_equal(self):
        rows = np.array([[1.0, 1.0], [2.0, 1.0], [1.0, 2.0]])
        assert midranks_descending(rows).tolist() == [[1.5, 1.5], [1.0, 2.0], [2.0, 1.0]]
        assert midranks_descending(np.full(5, 0.2)).tolist() == [3.0] * 5

    def test_profile_ranks_use_the_kernel(self):
        p = Profile(("a", "b", "c", "d"), np.array([0.25, 0.5, 0.25, 0.0]))
        assert midranks_descending(p.probs).tolist() == [2.5, 1.0, 2.5, 4.0]

    def test_empty(self):
        assert midranks_descending(np.array([])).shape == (0,)


def _users_from_counts(seed: int, nodes: list[str], universe_size: int) -> list[UserGroup]:
    rng = make_rng(derive_seed(seed, "kernel-counts"))
    universe = make_universe(universe_size)
    users = []
    for node in nodes:
        counts = rng.integers(0, 4, universe_size).astype(np.float64)
        counts[rng.integers(universe_size)] += 1
        users.append(UserGroup(node=node, profile=Profile(universe, counts / counts.sum())))
    return users


def _users_from_zipf(seed: int, nodes: list[str], universe_size: int,
                     alpha: float) -> list[UserGroup]:
    model = ZipfModel(alpha, universe_size, max(1, universe_size // 2))
    universe = make_universe(universe_size)
    global_pmf = zipf_pmf(alpha, universe_size)
    within = zipf_pmf(alpha, model.profile_size)
    return [UserGroup(node=n, profile=generate_profile(derive_seed(seed, n), universe,
                                                       global_pmf, within))
            for n in nodes]


@st.composite
def instances(draw):
    """(topology, users, placement, assignment): random, tie-heavy, empty servers allowed."""
    seed = draw(st.integers(0, 2**32))
    n = draw(st.integers(2, 14))
    topo = random_connected_topology(seed, n)
    nodes = list(topo.node_ids)
    universe_size = draw(st.one_of(st.integers(2, 12), st.integers(120, 160)))
    if draw(st.booleans()):
        users = _users_from_counts(seed, nodes, universe_size)
    else:
        users = _users_from_zipf(seed, nodes, universe_size,
                                 draw(st.sampled_from([0.0, 0.3, 1.0])))
    k = draw(st.integers(1, min(4, n)))
    placement = tuple(sorted(draw(st.permutations(nodes))[:k]))
    assignment = {node: placement[draw(st.integers(0, k - 1))] for node in nodes}
    return topo, users, placement, assignment


@st.composite
def walks(draw):
    """An instance with at least two servers and 1-8 moves of any user to any
    other server; half the time the profiles are tie-heavy (alpha 0, or small
    counts, over 2-5 services)."""
    _, users, placement, assignment = draw(instances())
    assume(len(placement) >= 2)
    if draw(st.booleans()):
        seed, size = draw(st.integers(0, 2**32)), draw(st.integers(2, 5))
        nodes = [u.node for u in users]
        users = (_users_from_zipf(seed, nodes, size, 0.0) if draw(st.booleans())
                 else _users_from_counts(seed, nodes, size))
    current = dict(assignment)
    moves = []
    for _ in range(draw(st.integers(1, 8))):
        user = draw(st.sampled_from(sorted(current)))
        server = draw(st.sampled_from([s for s in placement if s != current[user]]))
        current[user] = server
        moves.append((user, server))
    return users, placement, assignment, moves


def assert_matches_a_fresh_evaluator(ev, users, placement):
    fresh = _CorrEval(users, placement, ev.assignment)
    assert np.array_equal(ev.sums, fresh.sums)
    assert np.array_equal(ev.rho, fresh.rho)
    assert np.array_equal(ev.own(), fresh.own())
    assert ev.total() == fresh.total()


class TestAgainstPairwiseOracle:
    @EXACT
    @given(instances())
    def test_matrix_total_and_own(self, inst):
        _, users, placement, assignment = inst
        oracle = PairwiseCorr(users, placement)
        assert np.array_equal(_CorrEval(users, placement, assignment).rho,
                              oracle.matrix(assignment))
        assert total_correlation(users, assignment) == oracle.total(assignment)
        assert list(user_correlations(users, assignment).values()) == oracle.own(assignment)
        # the input order of the users never changes a coefficient
        backward = list(reversed(users))
        assert total_correlation(backward, assignment) == oracle.total(assignment)
        assert (list(user_correlations(backward, assignment).items())
                == list(user_correlations(users, assignment).items()))

    @EXACT
    @given(walks())
    def test_moves_match_a_fresh_evaluator(self, walk):
        # a move rebuilds the servers it touches; every other column must
        # already be right, after one pair at a time or the whole walk at once
        users, placement, assignment, moves = walk
        ev = _CorrEval(users, placement, assignment)
        for user, server in moves:
            ev.move([(user, server)])
            assert_matches_a_fresh_evaluator(ev, users, placement)
        batch = _CorrEval(users, placement, assignment)
        batch.move(moves)
        assert_matches_a_fresh_evaluator(batch, users, placement)
        assert batch.assignment == ev.assignment
        oracle = PairwiseCorr(users, placement)
        assert np.array_equal(ev.rho, oracle.matrix(ev.assignment))
        assert ev.own().tolist() == oracle.own(ev.assignment)
        assert ev.total() == oracle.total(ev.assignment)

    @EXACT
    @given(instances())
    def test_columns_do_not_depend_on_the_other_servers(self, inst):
        # an evaluator over the occupied servers plus one more gives that
        # server's column of the full matrix: user_correlations, which holds
        # only the occupied servers, relies on the others changing nothing
        _, users, placement, assignment = inst
        expected = PairwiseCorr(users, placement).matrix(assignment)
        occupied = set(assignment.values())
        for j, server in enumerate(placement):
            servers = tuple(sorted(occupied | {server}))
            rho = _CorrEval(users, servers, assignment).rho
            assert np.array_equal(rho[:, servers.index(server)], expected[:, j])

    @EXACT
    @given(instances())
    def test_proposals_and_greedy_log(self, inst):
        _, users, placement, assignment = inst
        oracle = PairwiseCorr(users, placement)
        assert (_CorrEval(users, placement, assignment).proposals()
                == oracle.proposals(assignment))
        final, total, log = greedy_correlation(users, placement, assignment)
        expected_final, expected_log = oracle.greedy(assignment)
        assert [tuple(b) for b in log] == expected_log
        assert final == expected_final
        assert total == oracle.total(final) == log[-1].total_corr_before
        assert not log[-1].accepted


@pytest.mark.parametrize("seed, accepted", [(2, 13), (5, 8)])
def test_desk_greedy_with_many_batches_matches_oracle(seed, accepted):
    """Criterion 10's topology, alpha 0.3, universe 100, profile size 15,
    k=2: the greedy accepts many batches on one evaluator. Seed 2 ends on a
    rejected batch, seed 5 on a round with no proposals."""
    topo = desk_topology()
    users = generate_users(topo, ZipfModel(0.3, 100, 15), master_seed=seed)
    placement, _, _ = dragoon(topo, users, 2)
    a0 = closest_assignment(topo, users, placement)
    final, total, log = greedy_correlation(users, placement, a0)
    expected_final, expected_log = PairwiseCorr(users, placement).greedy(a0)
    assert [tuple(b) for b in log] == expected_log
    assert final == expected_final
    assert total == total_correlation(users, final) == log[-1].total_corr_before
    assert sum(b.accepted for b in log) == accepted
    assert (log[-1].moves_proposed == 0) == (seed == 5)


def test_ring_instance_matches_oracle():
    """60-node ring, alpha 0.3, universe 40, profile size 10, k=6, seed 5: the
    instance where the old fsum-based rho path disagreed with the optimizer."""
    topo = ring_topology(60)
    users = generate_users(topo, ZipfModel(0.3, 40, 10), master_seed=5)
    placement, _, _ = dragoon(topo, users, 6)
    a0 = closest_assignment(topo, users, placement)
    oracle = PairwiseCorr(users, placement)
    ev = _CorrEval(users, placement, a0)
    assert np.array_equal(ev.rho, oracle.matrix(a0))
    assert ev.proposals() == oracle.proposals(a0)
    final, total, log = greedy_correlation(users, placement, a0)
    expected_final, expected_log = oracle.greedy(a0)
    assert [tuple(b) for b in log] == expected_log
    assert final == expected_final
    assert total == total_correlation(users, final) == oracle.total(final)
    assert total == log[-1].total_corr_before and not log[-1].accepted
