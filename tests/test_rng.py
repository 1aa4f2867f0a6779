import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cdnsim import ZipfModel, generate_users, zipf_pmf
from cdnsim import rng as rng_module
from cdnsim.rng import derive_seed, left_sum, make_rng, weighted_sample_without_replacement
from conftest import desk_topology
from oracles import weighted_sample_scan

# zeros, and magnitudes far enough apart that adding them rounds
weights = st.lists(st.one_of(st.just(0.0), st.floats(1e-3, 1e3), st.floats(1e14, 1e17)),
                   min_size=1, max_size=60)


def test_left_sum_rounds_left_to_right():
    # compensated summation (Python 3.12's sum()) gives 1.0
    assert left_sum([1e16, 1.0, -1e16]) == 0.0
    assert left_sum([]) == 0.0


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(values=st.lists(st.floats(-1e17, 1e17)))
def test_left_sum_is_the_loop(values):
    total = 0.0
    for v in values:
        total += v
    assert left_sum(values) == total


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(w=weights, seed=st.integers(0, 2**32), data=st.data())
def test_weighted_sample_matches_the_scan(w, seed, data):
    k = data.draw(st.integers(0, len(w)))
    rng_seed = derive_seed(seed, "weighted-sample")
    assert (weighted_sample_without_replacement(make_rng(rng_seed), w, k)
            == weighted_sample_scan(make_rng(rng_seed), w, k))


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(alpha=st.floats(0, 3), n=st.integers(1, 2000), seed=st.integers(0, 2**32),
       data=st.data())
def test_weighted_sample_matches_the_scan_on_zipf_weights(alpha, n, seed, data):
    k = data.draw(st.integers(0, n))
    w = zipf_pmf(alpha, n)
    rng_seed = derive_seed(seed, "zipf-sample")
    picks = weighted_sample_without_replacement(make_rng(rng_seed), w, k)
    assert picks == weighted_sample_scan(make_rng(rng_seed), w.tolist(), k)
    assert len(set(picks)) == k


def count_exact_picks(monkeypatch) -> list[int]:
    """Replace the sampler's exact recompute with a wrapper that counts calls."""
    calls = [0]
    exact = rng_module._exact_pick

    def counting(*args):
        calls[0] += 1
        return exact(*args)

    monkeypatch.setattr(rng_module, "_exact_pick", counting)
    return calls


@pytest.mark.parametrize("master_seed", [124, 2718])
@pytest.mark.parametrize("model", [ZipfModel(0.8, 2000, 100), ZipfModel(0.3, 100, 15)])
def test_workload_profiles_never_take_the_exact_path(monkeypatch, master_seed, model):
    # the desk instance's 124 profiles at both benchmark workload shapes
    calls = count_exact_picks(monkeypatch)
    users = generate_users(desk_topology(), model, master_seed)
    assert len(users) == 124
    assert calls[0] == 0


@pytest.mark.parametrize("w", [[1e17, 1e-3, 5.0], [0.0] * 4, [1.0, -0.5, 2.0]])
def test_filter_falls_back_where_it_cannot_vouch(monkeypatch, w):
    calls = count_exact_picks(monkeypatch)
    picks = weighted_sample_without_replacement(make_rng(7), w, len(w))
    assert sorted(picks) == list(range(len(w)))
    assert calls[0] >= 1


# the docstring's margin for n = 2, k = 1 and a total of exactly 1.0
MARGIN_2_1 = 26 * 2.0**-52


@pytest.mark.parametrize("side", ["upper", "lower"])
def test_a_gap_equal_to_the_margin_takes_the_exact_path(monkeypatch, side):
    # weights [a, 1 - a] sum to exactly 1.0, so the drawn point is u itself
    # and the gap between a and u is exactly the margin
    u = make_rng(3).random()
    a = u + MARGIN_2_1 if side == "upper" else u - MARGIN_2_1
    assert 0 < a < 1 and a + (1 - a) == 1.0 and abs(a - u) == MARGIN_2_1
    calls = count_exact_picks(monkeypatch)
    picks = weighted_sample_without_replacement(make_rng(3), [a, 1 - a], 1)
    assert picks == ([0] if side == "upper" else [1])
    assert calls[0] == 1


def test_a_point_above_a_rounded_down_partial_sum_is_not_trusted():
    # once the 4.0 is drawn, the filter's running sum over the next weight is
    # fl(4 + t) - 4 < t, and the second drawn point falls between the two:
    # the exact pick is 1, while the filter's candidate is 2
    w = [4.0, 0.42549875259854675, 1.0]
    assert float(np.cumsum(w)[1]) - 4.0 < w[1]
    assert weighted_sample_without_replacement(make_rng(2), w, 2) == [0, 1]
    assert weighted_sample_scan(make_rng(2), w, 2) == [0, 1]
