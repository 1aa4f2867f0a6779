import numpy as np
import pytest

from cdnsim import (
    Profile,
    UserGroup,
    ValidationError,
    ZipfModel,
    generate_profile,
    generate_requests,
    load_trace,
    make_universe,
    spearman,
    zipf_pmf,
)
from conftest import random_profile

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


class TestSpearman:
    def test_worked_example_user1(self):
        u1 = Profile.from_dict({"A": 0.5, "B": 0.5, "C": 0.0}, UNIVERSE_ABC)
        srv = Profile.from_dict({"A": 0.4, "B": 0.25, "C": 0.35}, UNIVERSE_ABC)
        assert spearman(u1, srv) == pytest.approx(0.125, abs=1e-9)

    def test_worked_example_user2(self):
        u2 = Profile.from_dict({"A": 0.3, "B": 0.0, "C": 0.7}, UNIVERSE_ABC)
        srv = Profile.from_dict({"A": 0.4, "B": 0.25, "C": 0.35}, UNIVERSE_ABC)
        assert spearman(u2, srv) == pytest.approx(0.5, abs=1e-9)

    def test_self_correlation_distinct_probs(self):
        p = Profile.from_dict({"A": 0.5, "B": 0.3, "C": 0.2}, UNIVERSE_ABC)
        assert spearman(p, p) == 1.0

    def test_reversed_ranks(self):
        universe = make_universe(6)
        asc = np.arange(1, 7, dtype=float)
        p = Profile(universe, asc / asc.sum())
        q = Profile(universe, asc[::-1] / asc.sum())
        assert spearman(p, q) == pytest.approx(-1.0)

    @pytest.mark.parametrize("seed", range(10))
    def test_symmetry(self, seed):
        universe = make_universe(12)
        p, q = random_profile(seed, universe), random_profile(seed + 100, universe)
        assert spearman(p, q) == spearman(q, p)

    def test_errors(self):
        p = random_profile(0, make_universe(4))
        q = random_profile(0, make_universe(5))
        with pytest.raises(ValidationError):
            spearman(p, q)
        single = Profile.from_dict({"A": 1.0}, ("A",))
        with pytest.raises(ValidationError):
            spearman(single, single)


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
        Profile.from_dict({"A": 0.5, "B": 0.6}, ("A", "B"))
    with pytest.raises(ValidationError):
        Profile(("A", "B"), np.array([1.2, -0.2]))
    with pytest.raises(ValidationError):
        UserGroup(node="n", priority=0.0)


def test_non_finite_input_rejected():
    with pytest.raises(ValidationError, match="non-finite probability"):
        Profile(("a", "b"), np.array([np.nan, np.nan]))
    with pytest.raises(ValidationError, match="non-finite probability"):
        Profile(("a", "b"), np.array([np.inf, 0.0]))
    for priority in (np.nan, np.inf):
        with pytest.raises(ValidationError, match="non-finite priority"):
            UserGroup(node="n", priority=priority)
    for alpha in (np.nan, np.inf):
        with pytest.raises(ValidationError, match="alpha must be finite"):
            ZipfModel(alpha=alpha)
