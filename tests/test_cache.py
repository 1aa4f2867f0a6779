import heapq
from contextlib import contextmanager

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import cdnsim.cache
from cdnsim import (
    CacheConfig,
    ValidationError,
    belady_misses,
    replay,
)
from cdnsim.cache import POLICIES, _victims

import oracles

ONLINE = ("LRU", "LRU2", "LFU", "LIRS")  # LIRS holds a fixed tenth of C as HIR slots

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

_END = object()


def accesses(trace: list, config: CacheConfig) -> list[tuple]:
    """Each request's (hit, evicted item or None), rebuilt from the victims of
    one replay.

    Under demand paging a request hits if and only if its item is resident,
    and a miss removes its victim and inserts the item. Each victim must be
    resident, it is None exactly while the cache has a free slot, and every
    victim must be consumed.
    """
    resident, results, victims = set(), [], iter(_victims(trace, config))
    for item in trace:
        if item in resident:
            results.append((True, None))
            continue
        victim = next(victims, _END)
        assert victim is not _END, "fewer victims than misses"
        if victim is None:
            assert len(resident) < config.capacity
        else:
            assert len(resident) == config.capacity and victim in resident
            resident.remove(victim)
        resident.add(item)
        results.append((False, victim))
    assert next(victims, _END) is _END, "more victims than misses"
    return results


@contextmanager
def heap_sizes():
    """Records the eviction heap's length after each push in `cdnsim.cache`."""
    sizes = []

    def push(heap, key):
        heapq.heappush(heap, key)
        sizes.append(len(heap))

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(cdnsim.cache, "heappush", push)
        yield sizes


def zipf_trace(seed: int, length: int, universe: int, alpha: float = 0.8) -> list[str]:
    rng = np.random.default_rng(seed)
    ranks = np.arange(1, universe + 1, dtype=float) ** -alpha
    pmf = ranks / ranks.sum()
    idx = rng.choice(universe, size=length, p=pmf)
    return [f"i{i:03d}" for i in idx]


class TestLRU:
    def test_spec_trace(self):
        # a,b,c,a with C=2: c evicts a, then a evicts b
        results = accesses(list("abca"), CacheConfig(2, "LRU"))
        assert [hit for hit, _ in results] == [False, False, False, False]
        assert results[2] == (False, "a")
        assert results[3] == (False, "b")

    def test_hit_refreshes_recency(self):
        results = accesses(list("abac"), CacheConfig(2, "LRU"))
        assert results[3] == (False, "b")  # a was refreshed, b is LRU


class TestLFU:
    def test_spec_trace(self):
        # a,a,b,c,b with C=2: c evicts b (count 1 vs 2), then b evicts c
        results = accesses(list("aabcb"), CacheConfig(2, "LFU"))
        assert [hit for hit, _ in results] == [False, True, False, False, False]
        assert results[3] == (False, "b")
        assert results[4] == (False, "c")
        assert sum(not hit for hit, _ in results) == 4

    def test_counters_persist_after_eviction(self):
        # at c: counts tie at 2, a is older -> evict a
        results = accesses(list("aabbcad"), CacheConfig(2, "LFU"))
        # a returns carrying lifetime count 3, so it displaces c (count 1)
        assert results[5] == (False, "c")
        # and with a's historical count intact, b is now the weakest
        assert results[6] == (False, "b")


class TestLRU2:
    def test_once_accessed_items_preferred(self):
        results = accesses(list("abac"), CacheConfig(2, "LRU2"))
        # a has 2 accesses, b only 1 -> evict b despite a being older
        assert results[3] == (False, "b")

    def test_oldest_penultimate_wins(self):
        results = accesses(list("ababc"), CacheConfig(2, "LRU2"))
        # penultimate(a)=1, penultimate(b)=2 -> evict a
        assert results[4] == (False, "a")

    def test_history_survives_eviction(self):
        # c evicts a; c has 1 access, a re-enters with 2 lifetime accesses
        results = accesses(list("ababca"), CacheConfig(2, "LRU2"))
        assert results[4] == (False, "a")
        assert results[5] == (False, "c")


class TestLIRS:
    def test_residency_never_exceeds_capacity(self):
        for cap in (1, 2, 3, 5, 8):
            residents = 0
            for hit, evicted in accesses(zipf_trace(cap, 500, 20), CacheConfig(cap, "LIRS")):
                residents += (not hit) - (evicted is not None)
                assert residents <= cap

    def test_capacity_one(self):
        misses = replay(list("ababab"), CacheConfig(1, "LIRS")).misses
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
        # C=3: 1 HIR slot, 2 LIR slots. a, b become LIR in warm-up; c is the
        # resident HIR, and its hit while on the stack promotes it and demotes
        # the bottom LIR block, a, to the resident HIR, so d pushes a out
        results = accesses(list("abccd"), CacheConfig(3, "LIRS"))
        assert results[3] == (True, None)
        assert results[4] == (False, "a")

    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(case=lirs_cases)
    @example(case=(zipf_trace(3, 3000, 40), 10))
    @example(case=(zipf_trace(4, 3000, 60), 25))
    def test_matches_the_paper_access_for_access(self, case):
        trace, capacity = case
        reference = oracles.LIRSReference(capacity)
        assert accesses(trace, CacheConfig(capacity, "LIRS")) == [
            reference.access(item) for item in trace]


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
        assert accesses(list("abdbd"), CacheConfig(2, "BELADY"))[2] == (False, "a")

    def test_tie_breaks_by_service_id(self):
        # c arrives, a is never reused and b is: evict a
        stats = belady_misses(list("abcb"), 2)
        assert stats.misses == 3 and stats.hits == 1
        # c arrives, neither b nor a reused: evict "a" (lexicographic), not the
        # older b
        assert accesses(list("bac"), CacheConfig(2, "BELADY"))[2] == (False, "a")

    @pytest.mark.parametrize("seed", range(10))
    def test_dominates_online_policies(self, seed):
        trace = zipf_trace(seed, 400, 25)
        optimal = belady_misses(trace, 3)
        for policy in ONLINE:
            online = replay(trace, CacheConfig(3, policy))
            assert optimal.misses <= online.misses, policy


class TestHeapsAgainstScans:
    """LRU and the heap loop of LRU-2, LFU and Belady against per-miss scans."""

    @pytest.mark.parametrize("policy, scan", [("LRU", oracles.LRUScan),
                                              ("LRU2", oracles.LRU2Scan),
                                              ("LFU", oracles.LFUScan)],
                             ids=["LRU", "LRU2", "LFU"])
    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(case=traces_and_capacities)
    @example(case=(zipf_trace(3, 3000, 40), 1))
    @example(case=(zipf_trace(4, 3000, 40), 7))
    @example(case=(zipf_trace(5, 3000, 40), 25))
    # hits outgrow the heap before the cache is full, so inserting b rebuilds
    # it, and b, the true victim at c, must be among the residents by then
    @example(case=(list("aaaaabc"), 2))
    def test_online_access_for_access(self, policy, scan, case):
        trace, capacity = case
        with heap_sizes() as sizes:
            results = accesses(trace, CacheConfig(capacity, policy))
        scan_cache = scan(capacity)
        assert results == [scan_cache.access(item) for item in trace]
        # every request of a heap policy pushes its key or rebuilds the heap
        assert bool(sizes) == (policy != "LRU" and bool(trace))
        assert max(sizes, default=0) <= 2 * capacity + 1

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(case=traces_and_capacities)
    @example(case=(zipf_trace(3, 3000, 40), 1))
    @example(case=(zipf_trace(4, 3000, 40), 7))
    @example(case=(zipf_trace(5, 3000, 40), 25))
    def test_belady(self, case):
        trace, capacity = case
        stats, victims = oracles.belady_scan(trace, capacity)
        assert belady_misses(trace, capacity) == stats
        with heap_sizes() as sizes:
            assert _victims(trace, CacheConfig(capacity, "BELADY")) == victims
        assert max(sizes, default=0) <= 2 * capacity + 1


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
        config = CacheConfig(capacity, policy)
        stats = replay(trace, config)
        assert stats.cold_misses == len(set(trace))
        assert stats.requests == len(trace) == stats.hits + stats.misses
        # replay derives its statistics from the number of victims alone;
        # count the misses, and the first-request misses, from each request's
        # (hit, evicted) as rebuilt from the victims
        seen, misses, cold = set(), 0, 0
        for item, (hit, _) in zip(trace, accesses(trace, config)):
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

    # each was accepted once: nan and inf as an unbounded cache, nan with LIRS
    # as a bare ValueError out of round(), 2.5 as is and True as capacity 1
    @pytest.mark.parametrize("capacity", [float("nan"), float("inf"), 2.5, True],
                             ids=["nan", "inf", "2.5", "True"])
    def test_capacity_must_be_an_int(self, capacity):
        for policy in POLICIES:
            with pytest.raises(ValidationError, match="capacity"):
                CacheConfig(capacity, policy)


@pytest.mark.parametrize("policy", ["LRU", "BELADY"])
def test_stack_policies_monotone_in_capacity(policy):
    for seed in range(3):
        trace = zipf_trace(seed + 30, 500, 25)
        misses = [replay(trace, CacheConfig(c, policy)).misses for c in range(1, 21)]
        assert all(misses[i] >= misses[i + 1] for i in range(len(misses) - 1))
