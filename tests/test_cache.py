import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from cdnsim import (
    CacheConfig,
    ValidationError,
    belady_misses,
    replay,
)
from cdnsim.cache import LFUCache, LIRSCache, LRU2Cache, LRUCache, POLICIES

import oracles

# the online policies and their classes; LIRSCache holds a fixed tenth as HIR slots
ONLINE = {"LRU": LRUCache, "LRU2": LRU2Cache, "LFU": LFUCache, "LIRS": LIRSCache}

# traces over alphabets of 1..6 items
small_traces = st.integers(1, 6).flatmap(
    lambda n: st.lists(st.sampled_from("abcdef"[:n]), max_size=40))

# (trace, capacity): alphabets of 1..40 items, capacities 1..alphabet+2. Half
# the requests go to the first three items, so hits grow the eviction heaps
# past their rebuild size (twice the capacity) while the cache is still
# filling as well as after; the longer traces rebuild them many times.
traces_and_capacities = st.integers(1, 40).flatmap(
    lambda n: st.tuples(
        st.lists(st.one_of(st.integers(0, min(n, 3) - 1), st.integers(0, n - 1)).map(str),
                 max_size=400),
        st.integers(1, n + 2)))

# (trace, capacity) for LIRS: capacities 1..32, so the HIR queue holds one to
# three blocks (C = 25 is where round() and rounding half up part). Traces of
# at least 4C requests over 2C + 4 items, half of them on the first three, fill
# the cache and bring blocks back while they are still on stack S, resident
# or not
lirs_cases = st.integers(1, 32).flatmap(
    lambda c: st.tuples(
        st.lists(st.one_of(st.integers(0, 2), st.integers(0, 2 * c + 3)).map(str),
                 min_size=4 * c, max_size=400),
        st.just(c)))


def zipf_trace(seed: int, length: int, universe: int, alpha: float = 0.8) -> list[str]:
    rng = np.random.default_rng(seed)
    ranks = np.arange(1, universe + 1, dtype=float) ** -alpha
    pmf = ranks / ranks.sum()
    idx = rng.choice(universe, size=length, p=pmf)
    return [f"i{i:03d}" for i in idx]


class TestLRU:
    def test_spec_trace(self):
        # a,b,c,a with C=2: c evicts a, then a evicts b
        cache = LRUCache(2)
        results = [cache.access(x) for x in "abca"]
        assert [hit for hit, _ in results] == [False, False, False, False]
        assert results[2] == (False, "a")
        assert results[3] == (False, "b")

    def test_hit_refreshes_recency(self):
        cache = LRUCache(2)
        for x in "aba":
            cache.access(x)
        assert cache.access("c") == (False, "b")  # a was refreshed, b is LRU


class TestLFU:
    def test_spec_trace(self):
        # a,a,b,c,b with C=2: c evicts b (count 1 vs 2), then b evicts c
        cache = LFUCache(2)
        results = [cache.access(x) for x in "aabcb"]
        assert [hit for hit, _ in results] == [False, True, False, False, False]
        assert results[3] == (False, "b")
        assert results[4] == (False, "c")
        assert sum(not hit for hit, _ in results) == 4

    def test_counters_persist_after_eviction(self):
        cache = LFUCache(2)
        for x in "aabbc":  # at c: counts tie at 2, a is older -> evict a
            cache.access(x)
        # a returns carrying lifetime count 3, so it displaces c (count 1)
        assert cache.access("a") == (False, "c")
        # and with a's historical count intact, b is now the weakest
        assert cache.access("d") == (False, "b")


class TestLRU2:
    def test_once_accessed_items_preferred(self):
        cache = LRU2Cache(2)
        for x in "aba":
            cache.access(x)
        # a has 2 accesses, b only 1 -> evict b despite a being older
        assert cache.access("c") == (False, "b")

    def test_oldest_penultimate_wins(self):
        cache = LRU2Cache(2)
        for x in "abab":
            cache.access(x)
        # penultimate(a)=1, penultimate(b)=2 -> evict a
        assert cache.access("c") == (False, "a")

    def test_history_survives_eviction(self):
        cache = LRU2Cache(2)
        for x in "abab":
            cache.access(x)
        cache.access("c")  # evicts a; c has 1 access
        hit, evicted = cache.access("a")  # a re-enters with 2 lifetime accesses
        assert hit is False and evicted == "c"


class TestLIRS:
    def test_residency_never_exceeds_capacity(self):
        for cap in (1, 2, 3, 5, 8):
            cache, residents = LIRSCache(cap), 0
            for x in zipf_trace(cap, 500, 20):
                hit, evicted = cache.access(x)
                residents += (not hit) - (evicted is not None)
                assert residents <= cap

    def test_capacity_one(self):
        cache = LIRSCache(1)
        misses = sum(not cache.access(x)[0] for x in "ababab")
        assert misses == 6  # single slot thrashes on alternation

    def test_loop_pattern_beats_lru(self):
        # cyclic scan of capacity+1 items: LRU misses forever, LIRS locks a
        # LIR set after warm-up
        trace = list("abcdef") * 20
        lru = replay(trace, CacheConfig(5, "LRU"))
        lirs = replay(trace, CacheConfig(5, "LIRS"))
        assert lru.hits == 0
        assert lirs.hits > 60

    def test_stack_promotion(self):
        cache = LIRSCache(3)  # 1 HIR slot, 2 LIR slots
        for x in "ab":
            cache.access(x)  # warm-up: a, b become LIR
        cache.access("c")  # resident HIR
        cache.access("c")  # HIR hit while on the stack: promote, demote bottom LIR
        # a is now the resident HIR; the next miss pushes it out of the queue
        assert cache.access("d") == (False, "a")

    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(case=lirs_cases)
    @example(case=(zipf_trace(3, 3000, 40), 10))
    @example(case=(zipf_trace(4, 3000, 60), 25))
    def test_matches_the_paper_access_for_access(self, case):
        trace, capacity = case
        cache, reference = LIRSCache(capacity), oracles.LIRSReference(capacity)
        for item in trace:
            assert cache.access(item) == reference.access(item)


class TestBelady:
    def test_spec_trace(self):
        stats = belady_misses(list("abacb"), 2)
        assert stats.misses == 3
        assert stats.hits == 2
        assert stats.cold_misses == 3

    def test_single_repeated_item(self):
        stats = belady_misses(["x"] * 50, 4)
        assert stats.misses == 1

    def test_evicts_never_reused_first(self):
        # at d: a never reused, b reused later -> evict a
        stats = belady_misses(list("abdbd"), 2)
        assert stats.misses == 3

    def test_tie_breaks_by_service_id(self):
        # c arrives, neither a nor b reused: evict "a" (lexicographic)
        stats = belady_misses(list("abcb"), 2)
        assert stats.misses == 3 and stats.hits == 1

    @pytest.mark.parametrize("seed", range(10))
    def test_dominates_online_policies(self, seed):
        trace = zipf_trace(seed, 400, 25)
        optimal = belady_misses(trace, 3)
        for policy in ONLINE:
            online = replay(trace, CacheConfig(3, policy))
            assert optimal.misses <= online.misses, policy


class TestHeapsAgainstScans:
    """The heap-based LRU-2, LFU and Belady against the per-miss scans they replaced."""

    @pytest.mark.parametrize("fast, scan", [(LRU2Cache, oracles.LRU2Cache),
                                            (LFUCache, oracles.LFUCache)],
                             ids=["LRU2", "LFU"])
    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(case=traces_and_capacities)
    @example(case=(zipf_trace(3, 3000, 40), 1))
    @example(case=(zipf_trace(4, 3000, 40), 7))
    @example(case=(zipf_trace(5, 3000, 40), 25))
    # hits outgrow the heap before the cache is full, so inserting b rebuilds
    # it, and b, the true victim at c, must be among the residents by then
    @example(case=(list("aaaaabc"), 2))
    def test_online_access_for_access(self, fast, scan, case):
        trace, capacity = case
        heap_cache, scan_cache = fast(capacity), scan(capacity)
        for item in trace:
            assert heap_cache.access(item) == scan_cache.access(item)
            assert len(heap_cache._heap) <= 2 * capacity + 1

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(case=traces_and_capacities)
    @example(case=(zipf_trace(3, 3000, 40), 1))
    @example(case=(zipf_trace(4, 3000, 40), 7))
    @example(case=(zipf_trace(5, 3000, 40), 25))
    def test_belady(self, case):
        trace, capacity = case
        assert belady_misses(trace, capacity) == oracles.belady_misses(trace, capacity)


class TestReplayAndStats:
    def test_empty_trace(self):
        stats = replay([], CacheConfig(4, "LRU"))
        assert (stats.requests, stats.hits, stats.misses, stats.cold_misses) == (0, 0, 0, 0)
        assert stats.miss_ratio == 0.0

    @pytest.mark.parametrize("policy", POLICIES)
    def test_deterministic(self, policy):
        trace = zipf_trace(5, 300, 15)
        assert replay(trace, CacheConfig(4, policy)) == replay(trace, CacheConfig(4, policy))

    @pytest.mark.parametrize("policy", POLICIES)
    def test_capacity_covers_trace(self, policy):
        trace = zipf_trace(7, 200, 10)
        distinct = len(set(trace))
        stats = replay(trace, CacheConfig(distinct, policy))
        assert stats.misses == distinct
        assert stats.cold_misses == distinct

    @pytest.mark.parametrize("policy", POLICIES)
    @pytest.mark.parametrize("capacity", range(1, 9))
    @settings(max_examples=25, deadline=None, derandomize=True, database=None)
    @given(trace=small_traces)
    @example(trace=zipf_trace(11, 300, 20))
    def test_cold_misses_equal_distinct_items(self, policy, capacity, trace):
        stats = replay(trace, CacheConfig(capacity, policy))
        assert stats.cold_misses == len(set(trace))
        assert stats.requests == len(trace) == stats.hits + stats.misses
        if policy == "BELADY":
            return
        # replay derives its statistics from the misses alone; count them, and
        # the first-request misses, from the cache's own answers
        cache = ONLINE[policy](capacity)
        seen, misses, cold = set(), 0, 0
        for item in trace:
            hit, _ = cache.access(item)
            misses += not hit
            cold += not hit and item not in seen
            seen.add(item)
        assert stats.misses == misses
        assert stats.cold_misses == cold

    def test_config_validation(self):
        with pytest.raises(ValidationError):
            CacheConfig(0, "LRU")
        with pytest.raises(ValidationError):
            CacheConfig(4, "FIFO")


@pytest.mark.parametrize("policy", ["LRU", "BELADY"])
def test_stack_policies_monotone_in_capacity(policy):
    for seed in range(3):
        trace = zipf_trace(seed + 30, 500, 25)
        misses = [replay(trace, CacheConfig(c, policy)).misses for c in range(1, 21)]
        assert all(misses[i] >= misses[i + 1] for i in range(len(misses) - 1))
