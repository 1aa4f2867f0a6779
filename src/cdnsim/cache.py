"""Uniform-item cache engine with pluggable replacement policies.

All policies are demand paging: a miss always inserts the requested item and,
at capacity, evicts exactly one resident chosen from the pre-insertion
residents. Belady's offline optimum therefore lower-bounds every online
policy here. Items have uniform size; capacity counts items. Every cache
answers `access(item)` with `(hit, evicted item or None)`, one call per
request; `replay` derives the statistics from the misses.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from heapq import heapify, heappop, heappush

from .errors import ValidationError
from .profiles import ServiceId

POLICIES = ("LRU", "LRU2", "LFU", "LIRS", "BELADY")

_NEVER = float("inf")

_HIR_FRACTION = 0.1


@dataclass(frozen=True)
class CacheConfig:
    capacity: int
    policy: str = "LRU"

    def __post_init__(self):
        if self.capacity < 1:
            raise ValidationError("cache capacity must be >= 1")
        if self.policy not in POLICIES:
            raise ValidationError(f"unknown policy {self.policy!r}; one of {POLICIES}")


@dataclass
class CacheStats:
    requests: int = 0
    hits: int = 0
    misses: int = 0
    cold_misses: int = 0

    @property
    def miss_ratio(self) -> float:
        return self.misses / self.requests if self.requests else 0.0

    def add(self, other: "CacheStats") -> "CacheStats":
        return CacheStats(
            self.requests + other.requests,
            self.hits + other.hits,
            self.misses + other.misses,
            self.cold_misses + other.cold_misses,
        )


class LRUCache:
    def __init__(self, capacity: int):
        self.capacity = capacity
        self._order: OrderedDict[ServiceId, None] = OrderedDict()

    def access(self, item):
        order = self._order
        if item in order:
            order.move_to_end(item)
            return True, None
        evicted = None
        if len(order) >= self.capacity:
            evicted, _ = order.popitem(last=False)
        order[item] = None
        return False, evicted


class _HeapCache:
    """Evicts the resident with the smallest key, popped from a min-heap with
    lazy deletion. `_keys` maps each resident to its current key, and each
    access pushes the fresh key `_touch` returns. A popped key counts only if
    it is its item's entry in `_keys` (identity, not equality), so stale keys
    and the keys of evicted items are skipped. Keys end with the item, so no
    two residents' keys compare equal. Rebuilt from `_keys` once it outgrows
    twice the capacity, the heap stays O(C): an access costs amortised O(log C).
    """

    def __init__(self, capacity: int):
        self.capacity = capacity
        self._clock = 0
        self._keys: dict[ServiceId, tuple] = {}
        self._heap: list[tuple] = []

    def _touch(self, item: ServiceId) -> tuple:
        """Record one access to `item`; return its eviction key, ending with the item."""
        raise NotImplementedError

    def access(self, item):
        self._clock += 1
        keys, heap = self._keys, self._heap
        hit = item in keys
        evicted = None
        if not hit and len(keys) >= self.capacity:
            while True:
                key = heappop(heap)
                if keys.get(key[-1]) is key:
                    break
            evicted = key[-1]
            del keys[evicted]
        key = keys[item] = self._touch(item)
        if len(heap) > 2 * self.capacity:
            # the rebuild reads `_keys`, so `item` must be in it already
            self._heap = list(keys.values())
            heapify(self._heap)
        else:
            heappush(heap, key)
        return hit, evicted


class LRU2Cache(_HeapCache):
    """LRU-2: evict the resident whose second-most-recent access is oldest.

    Residents referenced fewer than twice have infinite backward-2 distance
    and are preferred victims, oldest single access first. Access history
    persists across evictions (no correlated-reference or retention cutoff),
    so an item's second touch gives it a finite distance even after it was
    dropped in between.
    """

    def __init__(self, capacity: int):
        super().__init__(capacity)
        self._last: dict[ServiceId, int] = {}

    def _touch(self, item):
        previous = self._last.get(item)
        self._last[item] = self._clock
        if previous is None:
            return (0, self._clock, item)
        return (1, previous, item)


class LFUCache(_HeapCache):
    """Perfect LFU: frequency counters survive eviction; ties fall back to LRU."""

    def __init__(self, capacity: int):
        super().__init__(capacity)
        self._count: dict[ServiceId, int] = {}

    def _touch(self, item):
        count = self._count[item] = self._count.get(item, 0) + 1
        return (count, self._clock, item)


class LIRSCache:
    """LIRS with the standard LIR/HIR stack semantics.

    The resident HIR queue holds max(1, round(_HIR_FRACTION * capacity)) items,
    which leaves at least one LIR slot for every capacity >= 2; at capacity 1
    the one slot is HIR. Stack S keeps recency history including non-resident
    entries; its bottom is always LIR after pruning.
    """

    def __init__(self, capacity: int):
        self.capacity = capacity
        self._hir_size = max(1, round(_HIR_FRACTION * capacity))
        self._lir_size = capacity - self._hir_size
        self._stack: OrderedDict[ServiceId, None] = OrderedDict()  # oldest first
        self._queue: OrderedDict[ServiceId, None] = OrderedDict()  # resident HIR, FIFO
        self._lir: set[ServiceId] = set()

    def _stack_push(self, item):
        if item in self._stack:
            del self._stack[item]
        self._stack[item] = None

    def _prune(self):
        while self._stack:
            bottom = next(iter(self._stack))
            if bottom in self._lir:
                break
            del self._stack[bottom]

    def _demote_bottom_lir(self):
        # during warm-up non-LIR entries can sit below the lowest LIR block
        self._prune()
        bottom = next(iter(self._stack))
        del self._stack[bottom]
        self._lir.remove(bottom)
        self._queue[bottom] = None
        self._prune()

    def _promote(self, item):
        """HIR block seen again while still on the stack becomes LIR."""
        self._queue.pop(item, None)
        self._lir.add(item)
        self._stack_push(item)
        if len(self._lir) > self._lir_size:
            self._demote_bottom_lir()

    def access(self, item):
        lir, queue = self._lir, self._queue
        if item in lir:
            self._stack_push(item)
            self._prune()
            return True, None
        hit = item in queue
        evicted = None
        if not hit:
            if len(lir) + len(queue) >= self.capacity:
                evicted, _ = queue.popitem(last=False)
            if len(lir) < self._lir_size:
                # cold start: fill the LIR partition first
                lir.add(item)
                self._stack_push(item)
                return False, evicted
        if item in self._stack:
            self._promote(item)
        else:
            # a newcomer, or a resident HIR block that aged off the stack:
            # to the top of the stack and the end of the queue
            self._stack_push(item)
            queue.pop(item, None)
            queue[item] = None
        return hit, evicted


class _BeladyCache(_HeapCache):
    """Belady's choice on one known trace, which must be accessed in order."""

    def __init__(self, capacity: int, trace: list[ServiceId]):
        super().__init__(capacity)
        self._next_use: list[float] = [_NEVER] * len(trace)
        later: dict[ServiceId, int] = {}
        for i in range(len(trace) - 1, -1, -1):
            self._next_use[i] = later.get(trace[i], _NEVER)
            later[trace[i]] = i

    def _touch(self, item):
        return (-self._next_use[self._clock - 1], item)


def belady_misses(trace: list[ServiceId], capacity: int) -> CacheStats:
    """Offline optimum: evict the resident reused farthest in the future.

    Items never used again beat any finite horizon; remaining ties break by
    the lexicographically smallest service id.
    """
    return replay(trace, CacheConfig(capacity, "BELADY"))


def replay(trace: list[ServiceId], config: CacheConfig) -> CacheStats:
    """Run a whole trace through one cache and return its statistics."""
    if config.policy == "BELADY":
        cache = _BeladyCache(config.capacity, trace)
    else:
        policy = {"LRU": LRUCache, "LRU2": LRU2Cache, "LFU": LFUCache,
                  "LIRS": LIRSCache}[config.policy]
        cache = policy(config.capacity)
    access = cache.access
    return _stats(trace, sum(not access(item)[0] for item in trace))


def _stats(trace: list[ServiceId], misses: int) -> CacheStats:
    """Every policy loads an item only on a miss, so an item's first request is
    its only cold miss: cold misses are the distinct items of the trace."""
    return CacheStats(len(trace), len(trace) - misses, misses, len(set(trace)))

