import re
import tracemalloc
from dataclasses import FrozenInstanceError, fields

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from cdnsim import (
    Profile,
    UserGroup,
    ValidationError,
    ZipfModel,
    generate_profile,
    generate_requests,
    generate_users,
    load_trace,
    make_universe,
    user_correlations,
    zipf_pmf,
)
from cdnsim import simulation
from conftest import desk_topology, profile_from_dict, random_profile
from oracles import generate_requests_dense

UNIVERSE_ABC = ("A", "B", "C")

# frozen first-build output of generate_profile(alpha=.3, N=100, U=15, seed=42)
PROFILE_SEED42 = {
    "s04": 0.09202666295614909,
    "s06": 0.1132981119772385,
    "s25": 0.06990877167219967,
    "s30": 0.053761118908755644,
    "s31": 0.05248553966631792,
    "s33": 0.05518294411589181,
    "s52": 0.06319653408697148,
    "s59": 0.0513315362535511,
    "s67": 0.050280003012621095,
    "s69": 0.05678356731706509,
    "s71": 0.058607057868281465,
    "s76": 0.06618770119968626,
    "s81": 0.08148661856413635,
    "s90": 0.06071495488633479,
    "s96": 0.07474887751479971,
}


class TestZipfPmf:
    def test_uniform_limit(self):
        assert np.allclose(zipf_pmf(0.0, 4), [0.25, 0.25, 0.25, 0.25])

    def test_alpha_one_analytic(self):
        assert np.allclose(zipf_pmf(1.0, 3), [6 / 11, 3 / 11, 2 / 11])

    def test_high_precision_normalization(self):
        # oracle: 50-digit arithmetic for the rank-1 probability
        import mpmath

        mpmath.mp.dps = 50
        alpha = mpmath.mpf("0.3")
        h = sum(mpmath.power(r, -alpha) for r in range(1, 101))
        expected = float(1 / h)
        assert abs(zipf_pmf(0.3, 100)[0] - expected) < 1e-14

    @pytest.mark.parametrize("alpha", [0.0, 0.3, 0.8, 1.0])
    @pytest.mark.parametrize("n", [1, 10, 1000, 10_000])
    def test_descending_and_normalized(self, alpha, n):
        pmf = zipf_pmf(alpha, n)
        assert abs(pmf.sum() - 1.0) < 1e-12
        assert (np.diff(pmf) <= 0).all()
        assert (pmf > 0).all()

    @pytest.mark.parametrize("alpha, n", [(300, 100), (1000, 100), (1e308, 100), (99, 2000),
                                          (276, 15)])
    def test_alpha_that_underflows_a_rank_is_rejected(self, alpha, n):
        """1/n^alpha at 0 would drop rank n from every profile drawn with this pmf."""
        with pytest.raises(ValidationError,
                           match=re.escape(f"alpha={alpha!r} is too large for n={n}")):
            zipf_pmf(alpha, n)

    def test_generate_users_rejects_an_underflowing_alpha(self):
        with pytest.raises(ValidationError, match="alpha=300 is too large for n=100"):
            generate_users(desk_topology(), ZipfModel(300, 100, 15), 0)

    @pytest.mark.parametrize("alpha, universe_size", [(161, 100), (98, 2000)])
    def test_largest_alphas_still_give_full_profiles(self, alpha, universe_size):
        users = generate_users(desk_topology(), ZipfModel(alpha, universe_size, 15), 0)
        assert {len(u.profile.support) for u in users} == {15}


def zipf_profile(model: ZipfModel, seed: int):
    """generate_profile with the model's Zipf pmfs, as generate_users calls it."""
    return generate_profile(seed, make_universe(model.universe_size),
                            zipf_pmf(model.alpha, model.universe_size),
                            zipf_pmf(model.alpha, model.profile_size))


class TestGenerateProfile:
    def test_full_universe_alpha_zero_is_uniform(self):
        model = ZipfModel(alpha=0.0, universe_size=8, profile_size=8)
        p = zipf_profile(model, 1)
        assert np.allclose(p.probs, 1 / 8)

    def test_single_service(self):
        model = ZipfModel(alpha=0.3, universe_size=10, profile_size=1)
        p = zipf_profile(model, 5)
        assert sorted(p.probs)[-1] == 1.0
        assert np.count_nonzero(p.probs) == 1

    def test_determinism_fixture(self):
        model = ZipfModel(alpha=0.3, universe_size=100, profile_size=15)
        p = zipf_profile(model, 42)
        nonzero = {s: v for s, v in p.entries.items() if v > 0}
        assert set(nonzero) == set(PROFILE_SEED42)
        for s, v in PROFILE_SEED42.items():
            assert nonzero[s] == pytest.approx(v, abs=0, rel=0)

    def test_support_size_and_sum(self):
        model = ZipfModel(alpha=0.3, universe_size=50, profile_size=12)
        for seed in range(20):
            p = zipf_profile(model, seed)
            assert np.count_nonzero(p.probs) == 12
            assert abs(p.probs.sum() - 1.0) < 1e-12

    def test_universe_must_match_the_global_pmf(self):
        with pytest.raises(ValidationError):
            generate_profile(1, make_universe(5), zipf_pmf(0.3, 6), zipf_pmf(0.3, 2))

    def test_oversized_profile_rejected(self):
        with pytest.raises(ValidationError):
            ZipfModel(alpha=0.3, universe_size=5, profile_size=6)


class TestLoadTrace:
    def test_normalization(self):
        users = load_trace(b"node_id,service_id,count\nn1,a,3\nn1,b,1\n")
        assert len(users) == 1
        assert users[0].profile.entries == {"a": 0.75, "b": 0.25}

    def test_single_row(self):
        users = load_trace(b"node_id,service_id,count\nn1,a,7\n")
        assert users[0].profile.entries == {"a": 1.0}

    def test_fuzz_rows_sum_to_one(self):
        rng = np.random.default_rng(9)
        lines = ["node_id,service_id,count"]
        for _ in range(1000):
            lines.append(
                f"n{rng.integers(0, 20)},svc{rng.integers(0, 40)},{rng.integers(1, 50)}"
            )
        users = load_trace("\n".join(lines).encode())
        for u in users:
            assert abs(u.profile.probs.sum() - 1.0) < 1e-9

    def test_errors(self):
        with pytest.raises(ValidationError, match="unknown columns"):
            load_trace(b"node,svc,n\nn1,a,3\n")
        with pytest.raises(ValidationError, match="non-positive"):
            load_trace(b"node_id,service_id,count\nn1,a,0\n")
        with pytest.raises(ValidationError, match="empty node"):
            load_trace(b"node_id,service_id,count\n,a,3\n")
        with pytest.raises(ValidationError, match="no data"):
            load_trace(b"node_id,service_id,count\n")

    @pytest.mark.parametrize("data, message", [
        (b"", "empty trace file"),
        (b"node_id,service_id,count\nn1,a\n", "line 2: expected 3 columns, got 2"),
        (b"node_id,service_id,count\nn1,a,3\nn2, ,3\n", "line 3: empty service id"),
        (b"node_id,service_id,count\nn1,a,x\n", "line 2: bad count 'x'"),
    ], ids=["empty-file", "column-count", "empty-service", "bad-count"])
    def test_bad_trace_is_rejected(self, data, message):
        with pytest.raises(ValidationError, match=re.escape(message) + "$"):
            load_trace(data)

    def test_blank_lines_are_skipped(self):
        users = load_trace(b"node_id,service_id,count\n\nn1,a,3\n   \nn1,b,1\n\n")
        assert [u.node for u in users] == ["n1"]
        assert users[0].profile.entries == {"a": 0.75, "b": 0.25}

    def test_not_utf8(self):
        with pytest.raises(ValidationError, match="trace is not UTF-8: .*can't decode byte 0xff"):
            load_trace(b"node_id,service_id,count\nn1,\xff,3\n")
        with pytest.raises(ValidationError, match="trace is not UTF-8"):
            load_trace(b"\xff")


def one_server(*profiles: Profile) -> dict[str, float]:
    """user_correlations of users u0, u1, ... all assigned to one server."""
    users = [UserGroup(node=f"u{i}", profile=p) for i, p in enumerate(profiles)]
    return user_correlations(users, {u.node: "srv" for u in users})


class TestSpearman:
    """The assignment kernel's coefficient, through `user_correlations`."""

    def test_worked_example_user1(self):
        # the paper's server profile (A 0.4, B 0.25, C 0.35) is the mean of u1 and u2
        u1 = profile_from_dict({"A": 0.5, "B": 0.5, "C": 0.0}, UNIVERSE_ABC)
        u2 = profile_from_dict({"A": 0.3, "B": 0.0, "C": 0.7}, UNIVERSE_ABC)
        assert one_server(u1, u2)["u0"] == pytest.approx(0.125, abs=1e-9)

    def test_worked_example_user2(self):
        u1 = profile_from_dict({"A": 0.5, "B": 0.5, "C": 0.0}, UNIVERSE_ABC)
        u2 = profile_from_dict({"A": 0.3, "B": 0.0, "C": 0.7}, UNIVERSE_ABC)
        assert one_server(u1, u2)["u1"] == pytest.approx(0.5, abs=1e-9)

    def test_self_correlation_distinct_probs(self):
        # a sole member's server profile is its own profile
        p = profile_from_dict({"A": 0.5, "B": 0.3, "C": 0.2}, UNIVERSE_ABC)
        assert one_server(p) == {"u0": 1.0}

    def test_reversed_ranks(self):
        # two descending members outweigh the ascending one: the server ranks
        # the services exactly the other way round
        universe = make_universe(6)
        asc = np.arange(1, 7, dtype=float)
        p = Profile(universe, asc / asc.sum())
        q = Profile(universe, asc[::-1] / asc.sum())
        assert one_server(p, q, q)["u0"] == pytest.approx(-1.0)

    @pytest.mark.parametrize("seed", range(10))
    def test_symmetry(self, seed):
        # a server's profile does not depend on which member holds which
        # profile: swapping two members' profiles swaps their coefficients
        universe = make_universe(12)
        p, q = random_profile(seed, universe), random_profile(seed + 100, universe)
        pq, qp = one_server(p, q), one_server(q, p)
        assert (pq["u0"], pq["u1"]) == (qp["u1"], qp["u0"])

    def test_errors(self):
        p = random_profile(0, make_universe(4))
        q = random_profile(0, make_universe(5))
        with pytest.raises(ValidationError, match="user 'u1' has a different universe"):
            one_server(p, q)
        single = profile_from_dict({"A": 1.0}, ("A",))
        with pytest.raises(ValidationError,
                           match="need at least 2 services for rank correlation"):
            one_server(single, single)


def test_sampled_frequencies_match_pmf_within_3_sigma():
    # 1e5 seeded draws from the rank pmf, checked rank by rank
    n = 100_000
    universe = make_universe(20)
    pmf = zipf_pmf(0.3, 20)
    user = UserGroup(node="u", profile=Profile(universe, pmf))
    draws = generate_requests(user, master_seed=123, count=n)
    counts = {s: 0 for s in universe}
    for item in draws:
        counts[item] += 1
    for s, p in zip(universe, pmf):
        sigma = np.sqrt(n * p * (1 - p))
        assert abs(counts[s] - n * p) <= 3 * sigma, s


def test_profile_validation():
    with pytest.raises(ValidationError):
        profile_from_dict({"A": 0.5, "B": 0.6}, ("A", "B"))
    with pytest.raises(ValidationError):
        Profile(("A", "B"), np.array([1.2, -0.2]))
    for probs in ([1.0], [0.5, 0.25, 0.25], [[0.5, 0.5]]):
        with pytest.raises(ValidationError, match="^probability vector does not match universe$"):
            Profile(("A", "B"), np.array(probs))


def test_profile_repr_names_size_and_top_services():
    profile = profile_from_dict({"a": 0.25, "b": 0.5, "c": 0.125, "d": 0.125})
    assert repr(profile) == "Profile(4 services, top=[('b', 0.5), ('a', 0.25), ('c', 0.125)])"


@pytest.mark.parametrize("node", [1, ["A"], None])
def test_user_node_id_must_be_a_string(node):
    """Every stage sorts users by node id, so an id that is no string is an input error."""
    with pytest.raises(ValidationError,
                       match=re.escape(f"user node ids must be strings, not {node!r}") + "$"):
        UserGroup(node=node, profile=profile_from_dict({"a": 1.0}))


@pytest.mark.parametrize("profile", [None, {"a": 1.0}, np.array([1.0])],
                         ids=["none", "dict", "array"])
def test_user_without_profile_is_rejected(profile):
    """A user group is a node and a profile: every group has one from the
    start, so no stage downstream checks for it."""
    with pytest.raises(ValidationError, match="^user 'B' has no profile$"):
        UserGroup(node="B", profile=profile)
    with pytest.raises(ValidationError, match="^user node ids must be strings, not 2$"):
        UserGroup(node=2, profile=profile)  # the node is checked first


def test_user_group_is_a_node_and_a_profile():
    """The priority of a user's node lives in the topology only, and a group
    keeps the node and profile it was checked with."""
    profile = profile_from_dict({"a": 1.0})
    assert [f.name for f in fields(UserGroup)] == ["node", "profile"]
    with pytest.raises(TypeError):
        UserGroup(node="n")  # the profile is required
    with pytest.raises(TypeError):
        UserGroup(node="n", priority=2.0, profile=profile)
    user = UserGroup(node="n", profile=profile)
    with pytest.raises(FrozenInstanceError):
        user.profile = None


def test_non_finite_input_rejected():
    with pytest.raises(ValidationError, match="non-finite probability"):
        Profile(("a", "b"), np.array([np.nan, np.nan]))
    with pytest.raises(ValidationError, match="non-finite probability"):
        Profile(("a", "b"), np.array([np.inf, 0.0]))
    for alpha in (np.nan, np.inf):
        with pytest.raises(ValidationError,
                           match=f"alpha must be a finite real >= 0, got {alpha}$"):
            ZipfModel(alpha=alpha)


# small integer weights: ties are common, and so are zeros at either end
weights = st.lists(st.sampled_from([0, 0, 1, 2, 3, 7]), min_size=1, max_size=40)


def normalized(w: list[int]) -> np.ndarray:
    """`w` as a probability vector, normalized as `generate_profile` normalizes;
    an all-zero `w` likes its last service only."""
    probs = np.array(w, dtype=np.float64)
    if not probs.any():
        probs[-1] = 1.0
    probs /= probs.sum()
    return probs


class TestSparseProfile:
    """A profile stores only its liked services; every read keeps its dense meaning,
    and the request draw over the liked services equals the draw over the dense
    vector, list for list."""

    @settings(max_examples=200, deadline=None)
    @given(w=weights, seed=st.integers(0, 2**32), count=st.integers(0, 300))
    @example(w=[0, 3, 3, 0], seed=1, count=0)  # zeros at both ends, ties, no draws
    @example(w=[0, 0, 5, 0, 0], seed=2, count=200)  # a single liked service
    @example(w=[1], seed=3, count=50)  # a one-service universe
    def test_draw_equals_the_dense_draw(self, w, seed, count):
        probs = normalized(w)
        user = UserGroup(node="u", profile=Profile(make_universe(len(w)), probs))
        assert generate_requests(user, seed, count) == generate_requests_dense(user, seed, count)

    @settings(max_examples=50, deadline=None)
    @given(rows=st.lists(st.tuples(st.sampled_from(["n1", "n2", "n3"]),
                                   st.sampled_from(["a", "b", "c", "d", "e"]),
                                   st.integers(1, 4)), min_size=1, max_size=12),
           seed=st.integers(0, 2**32))
    def test_trace_profiles_draw_as_dense(self, rows, seed):
        """A trace's universe is every service of every node, so a node's
        profile has zeros wherever the others alone request."""
        text = "node_id,service_id,count\n" + "".join(f"{n},{s},{c}\n" for n, s, c in rows)
        for user in load_trace(text.encode()):
            assert generate_requests(user, seed, 100) == generate_requests_dense(user, seed, 100)

    def test_draw_past_the_last_cumulative_value(self, monkeypatch):
        """The liked probabilities sum to just under 1, so a draw can reach past
        their last cumulative value: it names the last liked service, not the
        universe's last service, which this profile does not like."""
        probs = np.array([0.5, 0.5 - 1e-10, 0.0])
        user = UserGroup(node="u", profile=Profile(("a", "b", "c"), probs))
        draws = np.array([0.25, 0.5, 1 - 1e-10, 1 - 5e-11])

        class Fixed:
            def random(self, count):
                return draws[:count]

        monkeypatch.setattr(simulation, "make_rng", lambda seed: Fixed())
        assert generate_requests(user, 0, 4) == ["a", "b", "b", "b"]

    @settings(max_examples=100, deadline=None)
    @given(w=weights, v=weights)
    def test_reads_keep_their_dense_meaning(self, w, v):
        probs = normalized(w)
        universe = make_universe(len(w))
        p = Profile(universe, probs)
        assert np.array_equal(p.probs, probs)
        assert not p.probs.flags.writeable
        assert p.entries == {s: float(x) for s, x in zip(universe, probs)}
        assert p == Profile(universe, probs.copy())
        q = Profile(make_universe(len(v)), normalized(v))
        assert (p == q) == (len(v) == len(w) and np.array_equal(probs, normalized(v)))

    def test_storage_is_the_support(self):
        p = Profile(("a", "b", "c", "d"), np.array([0.0, 0.75, 0.0, 0.25]))
        assert p.support.tolist() == [1, 3]
        assert p.values.tolist() == [0.75, 0.25]
        assert not p.support.flags.writeable and not p.values.flags.writeable


def test_users_hold_memory_by_profile_size_not_universe():
    """124 users liking 100 of 20,000 services each: a dense vector per user
    would hold 19.8 MB, the liked services about 0.2 MB; most of the rest is
    the universe's 20,000 id strings, shared by every profile."""
    topo = desk_topology()
    tracemalloc.start()
    try:
        users = generate_users(topo, ZipfModel(0.8, 20_000, 100), 124)
        held, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(users) == 124
    assert held < 4 * 2**20
