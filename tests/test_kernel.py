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
    load_trace,
    make_universe,
    user_correlations,
    zipf_pmf,
)
from cdnsim.assignment import _CorrEval
from cdnsim.profiles import midranks_descending
from cdnsim.rng import derive_seed, make_rng
from conftest import desk_topology, random_connected_topology, ring_topology
from oracles import PairwiseCorr, midranks_loop, sum_row_loop, total_correlation

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


@st.composite
def ranked_arrays(draw):
    """A 1-, 2- or 3-D array of rows of 1-40 values: heavy ties among few
    values with +-0.0 and +-inf, all-equal rows, or long runs of zeros at
    both ends of every row."""
    n = draw(st.one_of(st.integers(1, 2), st.integers(3, 40)))
    shape = (*draw(st.lists(st.integers(1, 4), max_size=2)), n)
    rng = make_rng(draw(st.integers(0, 2**32)))
    values = rng.choice([0.0, -0.0, np.inf, -np.inf, 0.25, 0.5, 1.0, -1.0], size=shape)
    kind = draw(st.sampled_from(["few values", "equal", "zero ends"]))
    if kind == "equal":
        values[...] = values[..., :1]
    elif kind == "zero ends":
        edge = n // 3
        values[..., edge:n - edge] = rng.integers(1, 4, size=(*shape[:-1], n - 2 * edge)) / 4
        values[..., :edge] = 0.0
        values[..., n - edge:] = -0.0
    return values


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

    @EXACT
    @given(ranked_arrays())
    def test_any_shape_matches_loop(self, values):
        ranks = midranks_descending(values)
        assert ranks.shape == values.shape
        rows = values.reshape(-1, values.shape[-1])
        for row, row_ranks in zip(rows, ranks.reshape(rows.shape)):
            assert np.array_equal(row_ranks, midranks_loop(row))


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


def _users_from_trace(seed: int, nodes: list[str], universe_size: int) -> list[UserGroup]:
    """`load_trace` profiles: the first user requests every service and each
    other user between one service and all of them, so support sizes differ."""
    rng = make_rng(derive_seed(seed, "kernel-trace"))
    lines = ["node_id,service_id,count"]
    for node in nodes:
        size = universe_size if node == nodes[0] else int(rng.integers(1, universe_size + 1))
        liked = rng.permutation(universe_size)[:size]
        lines += [f"{node},s{s:03d},{int(rng.integers(1, 6))}" for s in liked.tolist()]
    return load_trace("\n".join(lines).encode())


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


@st.composite
def batches(draw):
    """An instance with at least two servers and Zipf or `load_trace` profiles,
    and a batch of any users to any servers; half the time the batch ends by
    moving every member of one server away, which empties it."""
    _, users, placement, assignment = draw(instances())
    assume(len(placement) >= 2)
    nodes = [u.node for u in users]
    if draw(st.booleans()):
        seed, size = draw(st.integers(0, 2**32)), draw(st.integers(2, 30))
        users = (_users_from_trace(seed, nodes, size) if draw(st.booleans())
                 else _users_from_zipf(seed, nodes, size, draw(st.sampled_from([0.3, 1.0]))))
    current = dict(assignment)
    moves = []
    for _ in range(draw(st.integers(0, 8))):
        move = (draw(st.sampled_from(sorted(nodes))), draw(st.sampled_from(placement)))
        current[move[0]] = move[1]
        moves.append(move)
    if draw(st.booleans()):
        emptied = draw(st.sampled_from(sorted(set(current.values()))))
        others = [s for s in placement if s != emptied]
        moves += [(u, draw(st.sampled_from(others)))
                  for u in sorted(nodes) if current[u] == emptied]
    return users, placement, assignment, moves


@st.composite
def sum_row_instances(draw):
    """`load_trace` users with counts of 1, 2 and 3, whose probabilities such
    as 1/3 and 2/7 round in binary, placed so that some servers hold no user,
    some one and some several, in interleaved user-id order, and a batch of
    moves of any users to any servers."""
    sizes = draw(st.lists(st.sampled_from([0, 1, 1, 2, 4]), min_size=2, max_size=5))
    assume(any(sizes))
    nodes = [f"u{i}" for i in range(sum(sizes))]
    services = draw(st.integers(2, 8))
    lines = ["node_id,service_id,count"]
    for node in nodes:  # the first user likes every service, so the universe has them all
        liked = (range(services) if node == nodes[0]
                 else sorted(draw(st.sets(st.integers(0, services - 1), min_size=1))))
        lines += [f"{node},s{s},{draw(st.sampled_from([1, 2, 3]))}" for s in liked]
    placement = tuple(f"v{j}" for j in range(len(sizes)))
    members = iter(draw(st.permutations(nodes)))
    assignment = {next(members): server for server, size in zip(placement, sizes)
                  for _ in range(size)}
    moves = draw(st.lists(st.tuples(st.sampled_from(nodes), st.sampled_from(placement)),
                          max_size=6))
    return load_trace("\n".join(lines).encode()), placement, assignment, moves


@EXACT
@given(sum_row_instances())
def test_sum_rows_are_the_loop_they_replace(instance):
    """Every sum row the kernel holds or tries is, bit for bit, the `+=` loop
    over its members in user-id order: after construction, in the trial sums
    of `total_after` and after `move`."""
    users, placement, assignment, moves = instance
    ev = _CorrEval(users, placement, assignment)

    def assert_loop_sums(owner, sums):
        loop = np.stack([sum_row_loop(ev.P, owner, j) for j in range(len(placement))])
        assert sums.tobytes() == loop.tobytes()

    assert_loop_sums(ev.owner, ev.sums)
    trials = []
    own = ev._own
    ev._own = lambda owner, sums: trials.append((owner, sums)) or own(owner, sums)
    ev.total_after(moves)
    [(owner, sums)] = trials
    assert_loop_sums(owner, sums)
    ev.move(moves)
    assert np.array_equal(ev.owner, owner)
    assert_loop_sums(ev.owner, ev.sums)


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
    @given(batches())
    def test_trial_totals_and_lazy_columns_are_exact(self, batch):
        # a batch's trial total is the total after the move, bit for bit, and
        # leaves the evaluator as it was; the own coefficients, ranked from
        # one row per server, are the diagonal of the lazily ranked matrix
        users, placement, assignment, moves = batch
        ev = _CorrEval(users, placement, assignment)
        owner, sums = ev.owner.copy(), ev.sums.copy()
        trial = ev.total_after(moves)
        assert np.array_equal(ev.owner, owner) and np.array_equal(ev.sums, sums)
        assert np.array_equal(ev.own(), ev.rho[np.arange(len(ev.users)), ev.owner])
        ev.move(moves)
        assert trial == ev.total()
        assert_matches_a_fresh_evaluator(ev, users, placement)
        assert np.array_equal(ev.own(), ev.rho[np.arange(len(ev.users)), ev.owner])

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
