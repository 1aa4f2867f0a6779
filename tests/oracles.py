"""Reference implementations that the batched correlation kernel is checked against.

These are the straightforward versions the kernel replaced: a per-element
midrank loop and a per-(user, server) evaluator that rebuilds and ranks one
candidate vector at a time. They live here as test oracles only, next to the
server relocation that ranked every node itself before it called
`placement.one_center`.
"""

from __future__ import annotations

import numpy as np


def midranks_loop(values) -> np.ndarray:
    """1-based descending ranks, ties sharing their average rank, one element at a time."""
    v = np.asarray(values, dtype=np.float64)
    n = v.size
    order = np.argsort(-v, kind="stable")
    ranks = np.empty(n, dtype=np.float64)
    i = 0
    while i < n:
        j = i
        while j + 1 < n and v[order[j + 1]] == v[order[i]]:
            j += 1
        ranks[order[i : j + 1]] = (i + j) / 2 + 1
        i = j + 1
    return ranks


def spearman_loop(p: np.ndarray, q: np.ndarray) -> float:
    n = len(p)
    d = midranks_loop(p) - midranks_loop(q)
    return float(1.0 - 6.0 * float(d @ d) / (n * (n * n - 1)))


class PairwiseCorr:
    """One candidate correlation per call, server sums kept per server in a dict."""

    def __init__(self, users, placement):
        self.users = sorted(users, key=lambda u: u.node)
        self.servers = tuple(sorted(placement))
        self.P = {u.node: u.profile.probs for u in self.users}

    def sums(self, assignment) -> dict:
        sums = {s: np.zeros(len(self.users[0].profile.universe)) for s in self.servers}
        for u in self.users:
            sums[assignment[u.node]] += self.P[u.node]
        return sums

    def corr(self, sums, assignment, user, server) -> float:
        vec = sums[server]
        if assignment[user.node] != server:
            vec = vec + self.P[user.node]
        return spearman_loop(user.profile.probs, vec / vec.sum())

    def matrix(self, assignment) -> np.ndarray:
        sums = self.sums(assignment)
        return np.array([[self.corr(sums, assignment, u, s) for s in self.servers]
                         for u in self.users])

    def own(self, assignment) -> list[float]:
        sums = self.sums(assignment)
        return [self.corr(sums, assignment, u, assignment[u.node]) for u in self.users]

    def total(self, assignment) -> float:
        return sum(self.own(assignment))

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
                proposals.append((u.node, best[1]))
        return proposals

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


def relocate_servers_ranking(dm, users, placement, assignment):
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
        rows = [dm.index(u.node) for u in members]
        prios = np.array([u.priority for u in members])
        weighted = prios[:, None] * dm.matrix[rows, :]
        maxs = weighted.max(axis=0)
        avgs = weighted.mean(axis=0)
        ranked = sorted(range(len(dm.ids)), key=lambda i: (maxs[i], avgs[i], dm.ids[i]))
        target = next(dm.ids[i] for i in ranked if dm.ids[i] not in taken)
        new_location[s] = target
        taken.add(target)
    new_placement = tuple(sorted(new_location.values()))
    return new_placement, {u.node: new_location[assignment[u.node]] for u in users}
