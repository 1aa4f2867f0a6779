"""Uniform-item cache engine with pluggable replacement policies.

All policies are demand paging: a miss always inserts the requested item and,
at capacity, evicts exactly one resident chosen from the pre-insertion
residents. Belady's offline optimum therefore lower-bounds every online
policy here. Items have uniform size; capacity counts items.
"""

from __future__ import annotations

import heapq
from collections import OrderedDict
from dataclasses import dataclass

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


class OnlineCache:
    """Decides what stays resident; subclasses implement residency and victim
    choice. Statistics are derived from the misses by `replay`."""

    def __init__(self, capacity: int):
        self.capacity = capacity
        self._clock = 0

    def access(self, item: ServiceId) -> tuple[bool, ServiceId | None]:
        """Request one item; returns (hit, evicted item if any)."""
        self._clock += 1
        if self._contains(item):
            self._on_hit(item)
            return True, None
        return False, self._insert(item)

    def _contains(self, item: ServiceId) -> bool:
        raise NotImplementedError

    def _on_hit(self, item: ServiceId):
        raise NotImplementedError

    def _insert(self, item: ServiceId) -> ServiceId | None:
        raise NotImplementedError


class LRUCache(OnlineCache):
    def __init__(self, capacity: int):
        super().__init__(capacity)
        self._order: OrderedDict[ServiceId, None] = OrderedDict()

    def _contains(self, item):
        return item in self._order

    def _on_hit(self, item):
        self._order.move_to_end(item)

    def _insert(self, item):
        evicted = None
        if len(self._order) >= self.capacity:
            evicted, _ = self._order.popitem(last=False)
        self._order[item] = None
        return evicted


class _HeapCache(OnlineCache):
    """Evicts the resident with the smallest `_key`, popped from a min-heap
    with lazy deletion: each touch pushes a fresh key, and a popped key counts
    only while its item is resident and the key is current (keys hold the
    clock, which never repeats). Rebuilt from the residents once it outgrows
    twice the capacity, the heap stays O(C): an access costs amortised O(log C).
    """

    def __init__(self, capacity: int):
        super().__init__(capacity)
        self._resident: set[ServiceId] = set()
        self._heap: list[tuple] = []

    def _key(self, item: ServiceId) -> tuple:
        """Eviction order as of the last `_record`, ending with the item."""
        raise NotImplementedError

    def _record(self, item: ServiceId):
        raise NotImplementedError

    def _contains(self, item):
        return item in self._resident

    def _on_hit(self, item):
        self._record(item)
        if len(self._heap) > 2 * self.capacity:
            # the rebuild reads the residents, so `item` must be one already
            self._heap = [self._key(x) for x in self._resident]
            heapq.heapify(self._heap)
        else:
            heapq.heappush(self._heap, self._key(item))

    def _insert(self, item):
        evicted = None
        if len(self._resident) >= self.capacity:
            while True:
                key = heapq.heappop(self._heap)
                evicted = key[-1]
                if evicted in self._resident and key == self._key(evicted):
                    break
            self._resident.remove(evicted)
        self._resident.add(item)
        self._on_hit(item)
        return evicted


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
        self._prev: dict[ServiceId, int] = {}

    def _record(self, item):
        if item in self._last:
            self._prev[item] = self._last[item]
        self._last[item] = self._clock

    def _key(self, item):
        if item in self._prev:
            return (1, self._prev[item], item)
        return (0, self._last[item], item)


class LFUCache(_HeapCache):
    """Perfect LFU: frequency counters survive eviction; ties fall back to LRU."""

    def __init__(self, capacity: int):
        super().__init__(capacity)
        self._count: dict[ServiceId, int] = {}
        self._last: dict[ServiceId, int] = {}

    def _record(self, item):
        self._count[item] = self._count.get(item, 0) + 1
        self._last[item] = self._clock

    def _key(self, item):
        return (self._count[item], self._last[item], item)


class LIRSCache(OnlineCache):
    """LIRS with the standard LIR/HIR stack semantics.

    The resident HIR queue holds max(1, round(_HIR_FRACTION * capacity)) items,
    clamped so at least one LIR slot remains for capacity >= 2. Stack S keeps
    recency history including non-resident entries; its bottom is always LIR
    after pruning.
    """

    def __init__(self, capacity: int):
        super().__init__(capacity)
        hir = max(1, round(_HIR_FRACTION * capacity))
        self._hir_size = min(hir, capacity - 1) if capacity >= 2 else 1
        self._lir_size = capacity - self._hir_size
        self._stack: OrderedDict[ServiceId, None] = OrderedDict()  # oldest first
        self._queue: OrderedDict[ServiceId, None] = OrderedDict()  # resident HIR, FIFO
        self._lir: set[ServiceId] = set()

    def resident_count(self) -> int:
        return len(self._lir) + len(self._queue)

    def _contains(self, item):
        return item in self._lir or item in self._queue

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

    def _on_hit(self, item):
        if item in self._lir:
            self._stack_push(item)
            self._prune()
        elif item in self._stack:
            self._promote(item)
        else:
            # resident HIR that already aged off the stack: refresh both
            self._stack_push(item)
            self._queue.move_to_end(item)

    def _insert(self, item):
        evicted = None
        if self.resident_count() >= self.capacity:
            evicted, _ = self._queue.popitem(last=False)
        if len(self._lir) < self._lir_size:
            # cold start: fill the LIR partition first
            self._lir.add(item)
            self._stack_push(item)
        elif item in self._stack:
            self._promote(item)
        else:
            self._stack_push(item)
            self._queue[item] = None
        return evicted


class _BeladyCache(_HeapCache):
    """Belady's choice on one known trace, which must be accessed in order."""

    def __init__(self, capacity: int, trace: list[ServiceId]):
        super().__init__(capacity)
        self._next_use: list[float] = [_NEVER] * len(trace)
        later: dict[ServiceId, int] = {}
        for i in range(len(trace) - 1, -1, -1):
            self._next_use[i] = later.get(trace[i], _NEVER)
            later[trace[i]] = i
        self._next: dict[ServiceId, float] = {}

    def _record(self, item):
        self._next[item] = self._next_use[self._clock - 1]

    def _key(self, item):
        return (-self._next[item], item)


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
    return _stats(trace, sum(not cache.access(item)[0] for item in trace))


def _stats(trace: list[ServiceId], misses: int) -> CacheStats:
    """Every policy loads an item only on a miss, so an item's first request is
    its only cold miss: cold misses are the distinct items of the trace."""
    return CacheStats(len(trace), len(trace) - misses, misses, len(set(trace)))

