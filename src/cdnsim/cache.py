"""Uniform-item cache engine with pluggable replacement policies.

All policies are demand paging: a miss always inserts the requested item and,
at capacity, evicts exactly one resident chosen from the pre-insertion
residents. Belady's offline optimum therefore lower-bounds every online
policy here. Items have uniform size; capacity counts items.

Each policy replays a whole trace in one private function and returns its
victims: one entry per miss, the evicted item, or None while the cache fills.
`replay` counts the misses as the length of that list; the hits and the
evictions of every request follow from the trace and the victims alone.

LRU-2, LFU and Belady evict the resident with the smallest key, and each of
their keys depends on the trace alone, never on what is resident: LRU-2 keeps
an item's access history across evictions, LFU keeps its count across
evictions, and Belady reads the future. So one pass over the trace gives every
request its key before the replay starts, and the three share one loop.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from heapq import heapify, heappop, heappush
from typing import TYPE_CHECKING

from .errors import POLICIES, _check_choice, _check_int

if TYPE_CHECKING:
    from .profiles import ServiceId

_HIR_FRACTION = 0.1


@dataclass(frozen=True)
class CacheConfig:
    capacity: int
    policy: str = "LRU"

    def __post_init__(self):
        _check_int("cache capacity", self.capacity, 1)
        _check_choice("policy", self.policy, POLICIES)


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


def _lru(trace: list[ServiceId], capacity: int) -> list[ServiceId | None]:
    """Evict the least recently requested resident."""
    order: OrderedDict[ServiceId, None] = OrderedDict()  # least recent first
    victims: list[ServiceId | None] = []
    move_to_end, popitem, append = order.move_to_end, order.popitem, victims.append
    for item in trace:
        if item in order:
            move_to_end(item)
            continue
        append(popitem(last=False)[0] if len(order) >= capacity else None)
        order[item] = None
    return victims


def _lirs(trace: list[ServiceId], capacity: int) -> list[ServiceId | None]:
    """LIRS with the standard LIR/HIR stack semantics.

    The resident HIR queue holds max(1, round(_HIR_FRACTION * capacity)) items,
    which leaves at least one LIR slot for every capacity >= 2; at capacity 1
    the one slot is HIR. Stack S keeps recency history including non-resident
    entries; its bottom is always LIR after pruning.
    """
    lir_size = capacity - max(1, round(_HIR_FRACTION * capacity))
    stack: OrderedDict[ServiceId, None] = OrderedDict()  # oldest first
    queue: OrderedDict[ServiceId, None] = OrderedDict()  # resident HIR, FIFO
    lir: set[ServiceId] = set()
    victims: list[ServiceId | None] = []

    def prune():
        while stack:
            bottom = next(iter(stack))
            if bottom in lir:
                break
            del stack[bottom]

    for item in trace:
        if item in lir:
            stack.move_to_end(item)
            prune()
            continue
        if item not in queue:
            victims.append(queue.popitem(last=False)[0]
                           if len(lir) + len(queue) >= capacity else None)
            if len(lir) < lir_size:
                # cold start: fill the LIR partition first
                lir.add(item)
                stack[item] = None
                continue
        if item in stack:
            # an HIR block seen again while still on the stack becomes LIR
            queue.pop(item, None)
            lir.add(item)
            stack.move_to_end(item)
            if len(lir) > lir_size:
                # during warm-up non-LIR entries can sit below the lowest LIR block
                prune()
                bottom, _ = stack.popitem(last=False)
                lir.remove(bottom)
                queue[bottom] = None
                prune()
        else:
            # a newcomer, or a resident HIR block that aged off the stack:
            # to the top of the stack and the end of the queue
            stack[item] = None
            queue.pop(item, None)
            queue[item] = None
    return victims


def _lru2_keys(trace: list[ServiceId]) -> list[int]:
    """Oldest second-last access first; items seen once before all others,
    oldest access first. History outlives eviction (no correlated-reference or
    retention cutoff), so an item's second request gives it a finite backward-2
    distance even after it was dropped in between."""
    n = len(trace)
    last: dict[ServiceId, int] = {}
    keys = []
    for i, item in enumerate(trace):
        previous = last.get(item)
        keys.append(i if previous is None else (n + previous) * n + i)
        last[item] = i
    return keys


def _lfu_keys(trace: list[ServiceId]) -> list[int]:
    """Perfect LFU: the fewest requests so far first, counts kept across
    evictions; ties go to the least recent request."""
    n = len(trace)
    count: dict[ServiceId, int] = {}
    keys = []
    for i, item in enumerate(trace):
        c = count[item] = count.get(item, 0) + 1
        keys.append(c * n + i)
    return keys


def _belady_keys(trace: list[ServiceId]) -> list[int]:
    """The farthest next use first. Items never used again go before any of
    those, the smallest id first."""
    n = len(trace)
    keys = [0] * n
    last: dict[ServiceId, int] = {}
    for i, item in enumerate(trace):
        previous = last.get(item)
        if previous is not None:
            keys[previous] = previous - i * n  # major: minus the next use
        last[item] = i
    never = -n - len(last)  # below minus any next use
    for rank, item in enumerate(sorted(last)):
        i = last[item]
        keys[i] = (rank + never) * n + i
    return keys


def _smallest_key(trace: list[ServiceId], capacity: int,
                  keys: list[int]) -> list[ServiceId | None]:
    """Evict the resident whose latest request has the smallest key.

    Request i's key is `major * n + i` for `n = len(trace)` and any integer
    `major`, so keys are unique and the request, and with it the item, is
    `trace[key % n]`. `current` maps each resident to its latest request's key;
    the min-heap holds those keys and stale ones, and a popped key counts only
    if it equals its item's entry in `current`. Rebuilt from `current` once it
    outgrows twice the capacity, the heap stays O(C): a request costs amortised
    O(log C).
    """
    n = len(trace)
    current: dict[ServiceId, int] = {}
    heap: list[int] = []
    victims: list[ServiceId | None] = []
    for item, key in zip(trace, keys):
        if item not in current:
            victim = None
            if len(current) >= capacity:
                while True:
                    key_out = heappop(heap)
                    victim = trace[key_out % n]
                    if current.get(victim) == key_out:
                        break
                del current[victim]
            victims.append(victim)
        current[item] = key
        if len(heap) > 2 * capacity:
            # the rebuild reads `current`, so `item` must be in it already
            heap = list(current.values())
            heapify(heap)
        else:
            heappush(heap, key)
    return victims


_KEYS = {"LRU2": _lru2_keys, "LFU": _lfu_keys, "BELADY": _belady_keys}


def _victims(trace: list[ServiceId], config: CacheConfig) -> list[ServiceId | None]:
    """Each miss's evicted item in request order, None while the cache fills."""
    if config.policy == "LRU":
        return _lru(trace, config.capacity)
    if config.policy == "LIRS":
        return _lirs(trace, config.capacity)
    return _smallest_key(trace, config.capacity, _KEYS[config.policy](trace))


def replay(trace: list[ServiceId], config: CacheConfig) -> CacheStats:
    """Run a whole trace through one cache and return its statistics.

    Every policy loads an item only on a miss, so an item's first request is
    its only cold miss: cold misses are the distinct items of the trace."""
    misses = len(_victims(trace, config))
    return CacheStats(len(trace), len(trace) - misses, misses, len(set(trace)))
