from hypothesis import given, settings, strategies as st

from cdnsim.rng import derive_seed, left_sum, make_rng, weighted_sample_without_replacement
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
