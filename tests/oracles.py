"""Reference implementations that the fast paths in `src/` are checked against.

These are the straightforward versions the fast paths replaced:

- for the batched correlation kernel, a per-element midrank loop and a
  per-(user, server) evaluator that rebuilds and ranks one candidate vector
  at a time;
- the server relocation that ranked every node itself before it called
  `placement.one_center`;
- for the cache replays, which evict by keys computed from the trace (LRU-2,
  LFU and Belady, in one smallest-key heap loop) or by recency order (LRU,
  in one `OrderedDict` loop), replacement that scans every resident on each
  miss for its victim;
- for the one-pass LIRS replay, LIRS written from its paper with plain lists;
- for the Floyd–Warshall APSP, a heap-based Dijkstra run from every node;
- for the bisection over cumulative weights, weighted sampling by a linear
  scan;
- for the request draw over a profile's liked services, the draw over the
  cumulative sum of its whole dense vector;
- for the per-server request streams of the simulation, one loop over every
  user's interleaved requests with a distance lookup per request;
- for the Pareto walk's one evaluator, a fresh pairwise evaluator per step
  (this oracle and the one above take their priority-weighted distances from
  `placement._Eval`: they check streams and correlations, not distances);
- for the closest-server `argmin` over the user x server submatrix and the
  masked `argmax` of the farthest-first start, the per-user and per-node
  loops they replaced.

The baselines the acceptance criteria measure against live here too: the
exact placement by enumeration, the pairwise dominance test that the
sort-and-scan `non_dominated` replaces, and the total correlation of an
arbitrary assignment for the exhaustive assignment optimum.
"""

from __future__ import annotations

import heapq
import math
from itertools import combinations

import numpy as np

from cdnsim.assignment import optimize, user_correlations
from cdnsim.cache import _HIR_FRACTION, CacheStats, replay
from cdnsim.errors import InfeasibleError, ValidationError, _check_int
from cdnsim.pareto import SolutionPoint, non_dominated
from cdnsim.placement import Placement, PlacementObjective, _check_k, _Eval, one_center
from cdnsim.profiles import ServiceId, UserGroup
from cdnsim.rng import derive_seed, left_sum, make_rng
from cdnsim.simulation import SimulationResult, generate_requests
from cdnsim.topology import Topology

_NEVER = float("inf")

BRUTE_FORCE_LIMIT = 10_000_000


def total_correlation(users, assignment) -> float:
    """The coefficients of `user_correlations`, summed in user-id order: bit for
    bit the total the greedy optimizes."""
    return left_sum(user_correlations(users, assignment).values())


def dominates(a: SolutionPoint, b: SolutionPoint) -> bool:
    """a is at least as good in both objectives and strictly better in one."""
    if a.avg_dist > b.avg_dist or a.total_corr < b.total_corr:
        return False
    return a.avg_dist < b.avg_dist or a.total_corr > b.total_corr


def brute_force_placement(
    topo: Topology, users: list[UserGroup], k: int
) -> tuple[Placement, PlacementObjective]:
    """Exact optimum by enumerating every k-subset of nodes (desk scale only)."""
    ids = topo.node_ids
    n = len(ids)
    _check_k(k, n)
    if math.comb(n, k) > BRUTE_FORCE_LIMIT:
        raise InfeasibleError(f"C({n},{k}) exceeds enumeration guard")
    ev = _Eval(topo, users)
    best: tuple[PlacementObjective, Placement] | None = None
    for combo in combinations(ids, k):  # lexicographic, so ties resolve by id
        obj = ev.objective(combo)
        if best is None or obj < best[0]:
            best = (obj, combo)
    return best[1], best[0]


def midranks_loop(values) -> np.ndarray:
    """1-based descending ranks, ties sharing their average rank, one element at a time."""
    v = np.asarray(values, dtype=np.float64)
    n = v.size
    order = np.argsort(-v, kind="stable")
    ordered = v[order].tolist()
    in_order = [0.0] * n
    i = 0
    while i < n:
        j = i
        while j + 1 < n and ordered[j + 1] == ordered[i]:
            j += 1
        in_order[i : j + 1] = [(i + j) / 2 + 1] * (j - i + 1)
        i = j + 1
    ranks = np.empty(n, dtype=np.float64)
    ranks[order] = in_order
    return ranks


class PairwiseCorr:
    """One candidate correlation per call, server sums kept per server in a dict."""

    def __init__(self, users, placement):
        self.users = sorted(users, key=lambda u: u.node)
        self.servers = tuple(sorted(placement))
        self.P = {u.node: u.profile.probs for u in self.users}
        self.R = {u.node: midranks_loop(u.profile.probs) for u in self.users}

    def sums(self, assignment) -> dict:
        sums = {s: np.zeros(len(self.users[0].profile.universe)) for s in self.servers}
        for u in self.users:
            sums[assignment[u.node]] += self.P[u.node]
        return sums

    def corr(self, sums, assignment, user, server) -> float:
        vec = sums[server]
        if assignment[user.node] != server:
            vec = vec + self.P[user.node]
        n = len(vec)
        d = self.R[user.node] - midranks_loop(vec / vec.sum())
        return float(1.0 - 6.0 * float(d @ d) / (n * (n * n - 1)))

    def matrix(self, assignment) -> np.ndarray:
        sums = self.sums(assignment)
        return np.array([[self.corr(sums, assignment, u, s) for s in self.servers]
                         for u in self.users])

    def own(self, assignment) -> list[float]:
        sums = self.sums(assignment)
        return [self.corr(sums, assignment, u, assignment[u.node]) for u in self.users]

    def total(self, assignment) -> float:
        total = 0.0  # left to right, as sum() before Python 3.12
        for rho in self.own(assignment):
            total += rho
        return total

    def proposals(self, assignment) -> list[tuple[str, str]]:
        sums = self.sums(assignment)
        proposals = []
        for u in self.users:
            current = self.corr(sums, assignment, u, assignment[u.node])
            best = None
            for s in self.servers:
                if s == assignment[u.node]:
                    continue
                rho = self.corr(sums, assignment, u, s)
                if rho <= 0 or rho <= current:
                    continue
                if best is None or rho > best[0]:
                    best = (rho, s)
            if best is not None:
                proposals.append((current - best[0], u.node, best[1]))
        # falling gain, equal gains in user-id order
        return [(node, server) for _, node, server in sorted(proposals)]

    def greedy(self, initial) -> tuple[dict, list[tuple]]:
        """The simultaneous-reassignment greedy; log rows match BatchRecord fields."""
        assignment = dict(initial)
        total = self.total(assignment)
        log = []
        iteration = 0
        while True:
            iteration += 1
            proposals = self.proposals(assignment)
            if not proposals:
                log.append((iteration, 0, total, total, False))
                return assignment, log
            candidate = dict(assignment)
            candidate.update(proposals)
            new_total = self.total(candidate)
            accepted = new_total > total
            log.append((iteration, len(proposals), total, new_total, accepted))
            if not accepted:
                return assignment, log
            assignment, total = candidate, new_total


def relocate_servers_ranking(topo, users, placement, assignment):
    """Each server moves to its group's best free node by (max, avg, id) of the
    priority-weighted distances, ranked over every node; empty servers stay."""
    groups = {s: [] for s in placement}
    for u in users:
        groups[assignment[u.node]].append(u)
    new_location = {}
    taken = {s for s, members in groups.items() if not members}
    for s in sorted(groups):
        members = groups[s]
        if not members:
            new_location[s] = s
            continue
        rows = [topo.index(u.node) for u in members]
        prios = np.array([u.priority for u in members])
        weighted = prios[:, None] * topo.distances[rows, :]
        maxs = weighted.max(axis=0)
        avgs = weighted.mean(axis=0)
        ids = topo.node_ids
        ranked = sorted(range(len(ids)), key=lambda i: (maxs[i], avgs[i], ids[i]))
        target = next(ids[i] for i in ranked if ids[i] not in taken)
        new_location[s] = target
        taken.add(target)
    new_placement = tuple(sorted(new_location.values()))
    return new_placement, {u.node: new_location[assignment[u.node]] for u in users}


class OnlineCache:
    """A cache as three steps: `_contains`, then `_on_hit` on a hit or
    `_insert` (which returns the evicted item, if any) on a miss."""

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


class LRUScan(OnlineCache):
    """LRU: evict the resident whose last access is oldest."""

    def __init__(self, capacity: int):
        super().__init__(capacity)
        self._last: dict[ServiceId, int] = {}  # residents only

    def _contains(self, item):
        return item in self._last

    def _on_hit(self, item):
        self._last[item] = self._clock

    def _insert(self, item):
        evicted = None
        if len(self._last) >= self.capacity:
            evicted = min(self._last, key=self._last.__getitem__)
            del self._last[evicted]
        self._last[item] = self._clock
        return evicted


class LRU2Scan(OnlineCache):
    """LRU-2: evict the resident whose second-most-recent access is oldest.

    Residents referenced fewer than twice have infinite backward-2 distance
    and are preferred victims, oldest single access first. Access history
    persists across evictions (no correlated-reference or retention cutoff),
    so an item's second touch gives it a finite distance even after it was
    dropped in between.
    """

    def __init__(self, capacity: int):
        super().__init__(capacity)
        self._resident: set[ServiceId] = set()
        self._last: dict[ServiceId, int] = {}
        self._prev: dict[ServiceId, int] = {}

    def _touch(self, item):
        if item in self._last:
            self._prev[item] = self._last[item]
        self._last[item] = self._clock

    def _contains(self, item):
        return item in self._resident

    def _on_hit(self, item):
        self._touch(item)

    def _victim(self) -> ServiceId:
        once = [x for x in self._resident if x not in self._prev]
        if once:
            return min(once, key=lambda x: (self._last[x], x))
        return min(self._resident, key=lambda x: (self._prev[x], x))

    def _insert(self, item):
        evicted = None
        if len(self._resident) >= self.capacity:
            evicted = self._victim()
            self._resident.remove(evicted)
        self._touch(item)
        self._resident.add(item)
        return evicted


class LFUScan(OnlineCache):
    """Perfect LFU: frequency counters survive eviction; ties fall back to LRU."""

    def __init__(self, capacity: int):
        super().__init__(capacity)
        self._resident: set[ServiceId] = set()
        self._count: dict[ServiceId, int] = {}
        self._last: dict[ServiceId, int] = {}

    def _touch(self, item):
        self._count[item] = self._count.get(item, 0) + 1
        self._last[item] = self._clock

    def _contains(self, item):
        return item in self._resident

    def _on_hit(self, item):
        self._touch(item)

    def _insert(self, item):
        evicted = None
        if len(self._resident) >= self.capacity:
            evicted = min(self._resident, key=lambda x: (self._count[x], self._last[x], x))
            self._resident.remove(evicted)
        self._touch(item)
        self._resident.add(item)
        return evicted


class LIRSReference:
    """LIRS as Jiang and Zhang describe it (SIGMETRICS 2002), on plain lists.

    Stack S holds the LIR blocks and the HIR blocks, resident or not, whose
    recency is below that of the least recent LIR block; list Q holds the
    resident HIR blocks. The first blocks fill the LIR set. Of C slots,
    max(1, round(_HIR_FRACTION * C)) are HIR, but C >= 2 keeps one LIR slot
    (C = 1 is one HIR slot and no LIR slot).
    """

    def __init__(self, capacity: int):
        hir = max(1, round(_HIR_FRACTION * capacity))
        self.capacity = capacity
        self.lir_slots = max(capacity - hir, 1) if capacity >= 2 else 0
        self.S: list[ServiceId] = []  # bottom (least recent) first
        self.Q: list[ServiceId] = []  # front (next victim) first
        self.lir: set[ServiceId] = set()

    def access(self, x: ServiceId) -> tuple[bool, ServiceId | None]:
        if x in self.lir:
            at_bottom = self.S[0] == x
            self._to_top(x)
            if at_bottom:
                self._prune()
            return True, None
        if x in self.Q:  # resident HIR block
            self.Q.remove(x)
            self._hir_to_top(x)
            return True, None
        if len(self.lir) < self.lir_slots:  # the LIR set is not full yet
            self.lir.add(x)
            self._to_top(x)
            return False, None
        victim = self.Q.pop(0) if len(self.lir) + len(self.Q) == self.capacity else None
        self._hir_to_top(x)  # a victim still in S stays there, non-resident
        return False, victim

    def _to_top(self, x):
        if x in self.S:
            self.S.remove(x)
        self.S.append(x)

    def _prune(self):
        while self.S and self.S[0] not in self.lir:
            del self.S[0]

    def _hir_to_top(self, x):
        """HIR block x, now resident, moves to the top of S. If it was in S it
        becomes LIR, and the bottom LIR block goes to the end of Q as HIR;
        otherwise x goes to the end of Q."""
        in_stack = x in self.S
        self._to_top(x)
        if not in_stack:
            self.Q.append(x)
            return
        self.lir.add(x)
        bottom = next(b for b in self.S if b in self.lir)
        self.S.remove(bottom)
        self.lir.remove(bottom)
        self.Q.append(bottom)
        self._prune()


def dijkstra_apsp(topo) -> np.ndarray:
    """Shortest-path distances by Dijkstra from every node, rows and columns in
    `topo.node_ids` order."""
    ids = topo.node_ids
    index = {n: i for i, n in enumerate(ids)}
    adj: dict[str, list[tuple[str, float]]] = {n: [] for n in ids}
    for a, b, w in topo.edges:
        adj[a].append((b, w))
        adj[b].append((a, w))
    matrix = np.full((len(ids), len(ids)), np.inf)
    for row, source in zip(matrix, ids):
        row[index[source]] = 0.0
        heap = [(0.0, source)]
        while heap:
            d, u = heapq.heappop(heap)
            if d > row[index[u]]:
                continue
            for v, w in adj[u]:
                if d + w < row[index[v]]:
                    row[index[v]] = d + w
                    heapq.heappush(heap, (d + w, v))
    return matrix


def belady_scan(trace: list[ServiceId], capacity: int) -> tuple[CacheStats, list]:
    """Offline optimum: evict the resident reused farthest in the future.

    Items never used again beat any finite horizon; remaining ties break by
    the lexicographically smallest service id. Returns the statistics and each
    miss's victim, None while the cache fills.
    """
    if capacity < 1:
        raise ValidationError("cache capacity must be >= 1")
    positions: dict[ServiceId, list[int]] = {}
    for i, item in enumerate(trace):
        positions.setdefault(item, []).append(i)
    cursor = {item: 0 for item in positions}

    victims = []
    cold = 0
    resident: dict[ServiceId, float] = {}  # item -> next use position
    for item in trace:
        occurrences = positions[item]
        cursor[item] += 1
        next_use = occurrences[cursor[item]] if cursor[item] < len(occurrences) else _NEVER
        if item in resident:
            resident[item] = next_use
            continue
        cold += cursor[item] == 1
        victim = None
        if len(resident) >= capacity:
            victim = min(resident, key=lambda x: (-resident[x], x))
            del resident[victim]
        victims.append(victim)
        resident[item] = next_use
    misses = len(victims)
    return CacheStats(len(trace), len(trace) - misses, misses, cold), victims


def weighted_sample_scan(rng, weights, k) -> list[int]:
    """Inverse-CDF draws by a linear scan; the total is summed left to right."""
    items = list(range(len(weights)))
    remaining = list(weights)
    out = []
    for _ in range(k):
        total = 0.0
        for w in remaining:
            total += w
        x = rng.random() * total
        acc = 0.0
        pick = len(remaining) - 1
        for j, w in enumerate(remaining):
            acc += w
            if x < acc:
                pick = j
                break
        out.append(items.pop(pick))
        remaining.pop(pick)
    return out


def generate_requests_dense(user: UserGroup, master_seed: int, count: int) -> list[ServiceId]:
    """`simulation.generate_requests` over the dense vector: inverse-CDF over the
    cumulative sum of every universe entry, a draw past the last cumulative
    value clamped to the last nonzero index."""
    if user.profile is None:
        raise ValidationError(f"user {user.node!r} has no profile")
    _check_int("count", count, 0)
    rng = make_rng(derive_seed(master_seed, "requests", user.node))
    cdf = np.cumsum(user.profile.probs)
    draws = rng.random(count)
    last = np.flatnonzero(user.profile.probs)[-1]
    idx = np.minimum(np.searchsorted(cdf, draws, side="right"), last)
    universe = user.profile.universe
    return [universe[i] for i in idx.tolist()]


def run_per_request(scenario) -> SimulationResult:
    """`simulation.run` as one loop over the interleaved requests of all users,
    with a distance lookup and a network-load addition per request."""
    s = scenario.validate()
    topo = s.topology
    users = sorted(s.users, key=lambda u: u.node)
    streams = {u.node: generate_requests(u, s.master_seed, s.requests_per_user)
               for u in users}
    per_server_stream = {srv: [] for srv in s.placement}
    for r in range(s.requests_per_user):
        for u in users:
            per_server_stream[s.assignment[u.node]].append((u.node, streams[u.node][r]))
    per_server = {}
    network_load = 0.0
    for server in sorted(s.placement):
        stream = per_server_stream[server]
        for user_node, _ in stream:
            network_load += topo.distance(user_node, server)
        stats = replay([item for _, item in stream], s.cache)
        network_load += stats.misses * topo.distance(server, s.origin)
        per_server[server] = stats
    overall = CacheStats()
    for stats in per_server.values():
        overall = overall.add(stats)
    max_dist, avg_dist = _Eval(topo, users).assigned(s.assignment)
    return SimulationResult(per_server=per_server, overall=overall,
                            miss_ratio=overall.miss_ratio,
                            max_user_distance=max_dist, avg_user_distance=avg_dist,
                            network_load=network_load)


def front_sweep_pairwise(topo, users, k: int, steps: int):
    """`pareto.front_sweep` with a fresh PairwiseCorr for every proposal set
    and every recorded point's total; each step takes the first proposal."""
    dist = _Eval(topo, users)

    def point(placement, assignment, step):
        max_dist, avg_dist = dist.assigned(assignment)
        return SolutionPoint(placement=tuple(sorted(placement)),
                             assignment=tuple(sorted(assignment.items())),
                             avg_dist=avg_dist,
                             total_corr=PairwiseCorr(users, placement).total(assignment),
                             max_dist=max_dist, step=step)

    place0, a0, _ = optimize(topo, users, k=k)
    recorded = [point(place0, a0, 0)]
    assignment = dict(a0)
    for step in range(1, steps - 1):
        proposals = PairwiseCorr(users, place0).proposals(assignment)
        if not proposals:
            break
        user_node, server = proposals[0]
        assignment[user_node] = server
        recorded.append(point(place0, assignment, step))
    place_end, a_end, _ = optimize(topo, users, placement=place0, optimizer="correlation")
    recorded.append(point(place_end, a_end, steps - 1))
    return non_dominated(recorded)


def closest_assignment_loop(topo, users, placement):
    """`placement.closest_assignment` with one `argmin` per user."""
    servers = sorted(placement)
    cols = [topo.index(s) for s in servers]
    out = {}
    for u in users:
        row = topo.distances[topo.index(u.node), cols]
        out[u.node] = servers[int(np.argmin(row))]  # argmin takes first == lowest id
    return out


def farthest_first_init_loop(topo, users, k: int):
    """`placement.farthest_first_init` with a scan for the first maximum."""
    ids = topo.node_ids
    mark = one_center(topo, users)
    placed = []
    cols = [topo.index(i) for i in ids]
    dist_to_set = topo.distances[cols, topo.index(mark)].copy()
    for _ in range(k):
        best_i = None
        for i, node in enumerate(ids):
            if node in placed:
                continue
            if best_i is None or dist_to_set[i] > dist_to_set[best_i]:
                best_i = i  # id order: later equal distances never replace
        placed.append(ids[best_i])
        dist_to_set = np.minimum(dist_to_set, topo.distances[cols, topo.index(ids[best_i])])
    return tuple(sorted(placed))
