"""User-to-server assignment optimized for aggregate profile correlation.

The greedy evaluates, for every user, the rank correlation against every
server's would-be profile (the user's own profile always counted in), then
applies all proposed reassignments at once. A batch only sticks if the total
correlation strictly improves; otherwise it is rolled back and the search
stops, which keeps the simultaneous update from oscillating.

A coefficient is Spearman's rho = 1 - 6*sum(d^2) / (n(n^2-1)) on descending
midranks over the full service universe, without a tie-correction term: on
heavily tied profiles the tie-corrected (Pearson-of-midranks) variant
disagrees with this form, which the optimization is calibrated against.

Every coefficient in this module comes from one batched kernel (`_CorrEval`),
and it is exact, not approximate, so that ties in the ranks are reproducible:

- a server's sum vector accumulates its members' profiles with `+=` in
  user-id order and is rebuilt from scratch for every assignment, never
  updated by subtraction, because float rounding can create or break exact
  ties and ties change ranks;
- each candidate row is normalized on its own (`row / row.sum()`), which is
  bit for bit the one-vector computation;
- midranks are multiples of 0.5, so sum(d^2) is exact in any order;
- the total adds the users' coefficients left to right in user-id order
  (`rng.left_sum`), whatever the Python version;
- the users x servers matrix is built one server column at a time, so memory
  stays at users x universe rather than users x servers x universe.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .errors import ValidationError
from .placement import Assignment, Placement, _members, closest_assignment, dragoon, one_center
from .profiles import UserGroup, midranks_descending
from .rng import left_sum
from .topology import NodeId, Topology

OPTIMIZERS = ("distance", "correlation")


class BatchRecord(NamedTuple):
    """One simultaneous-reassignment round."""

    iteration: int
    moves_proposed: int
    total_corr_before: float
    total_corr_after: float
    accepted: bool


class _CorrEval:
    """Batched rank correlations of users against candidate server profiles.

    The users' own ranks are computed once per evaluator; server sums are
    rebuilt for every assignment (see the module docstring for why).
    """

    def __init__(self, users: list[UserGroup], placement: Placement):
        if not users:
            raise ValidationError("no users to assign")
        self.users = sorted(users, key=lambda u: u.node)
        self.servers = tuple(sorted(placement))
        self.server_index = {s: j for j, s in enumerate(self.servers)}
        for u in self.users:
            if u.profile is None:
                raise ValidationError(f"user {u.node!r} has no profile")
            if u.profile.universe != self.users[0].profile.universe:
                raise ValidationError(f"user {u.node!r} has a different universe")
        n = len(self.users[0].profile.universe)
        if n < 2:
            raise ValidationError("need at least 2 services for rank correlation")
        self.denom = n * (n * n - 1)
        self.P = np.stack([u.profile.probs for u in self.users])
        self.R = midranks_descending(self.P)

    def owners(self, assignment: Assignment) -> np.ndarray:
        """Server index of every user, in user-id order."""
        _members(self.users, self.servers, assignment)  # rejects an assignment that does not fit
        return np.array([self.server_index[assignment[u.node]] for u in self.users])

    def _sums(self, owner: np.ndarray) -> np.ndarray:
        sums = np.zeros((len(self.servers), self.P.shape[1]))
        for i, j in enumerate(owner):
            sums[j] += self.P[i]
        return sums

    @staticmethod
    def _ranks(candidates: np.ndarray) -> np.ndarray:
        """Midranks of each candidate vector, normalized to a profile first."""
        return midranks_descending(candidates / candidates.sum(axis=1, keepdims=True))

    def _rho(self, ranks: np.ndarray, rows) -> np.ndarray:
        """Coefficients of users `rows` against one row of candidate ranks each."""
        d = ranks - self.R[rows]
        return 1.0 - 6.0 * (d * d).sum(axis=1) / self.denom

    def _column(self, sums: np.ndarray, owner: np.ndarray, j: int,
                rows: np.ndarray) -> np.ndarray:
        """Coefficients of users `rows` with server j, each user counted in."""
        candidates = sums[j] + self.P[rows]
        candidates[owner[rows] == j] = sums[j]
        return self._rho(self._ranks(candidates), rows)

    def matrix(self, assignment: Assignment) -> np.ndarray:
        """rho[user, server], each user counted in, users and servers in id order."""
        owner = self.owners(assignment)
        sums = self._sums(owner)
        rows = np.arange(len(self.users))
        return np.column_stack(
            [self._column(sums, owner, j, rows) for j in range(len(self.servers))]
        )

    def own(self, assignment: Assignment) -> np.ndarray:
        """Each user's coefficient with its own server, in user-id order.

        Members of a server share one candidate row, so only the occupied
        servers' rows are ranked.
        """
        owner = self.owners(assignment)
        occupied, slot = np.unique(owner, return_inverse=True)
        return self._rho(self._ranks(self._sums(owner)[occupied])[slot], slice(None))

    def total(self, assignment: Assignment) -> float:
        return left_sum(self.own(assignment).tolist())

    def proposals(self, assignment: Assignment) -> list[tuple[NodeId, NodeId]]:
        """(user, server) for each user whose best coefficient is positive and
        strictly above its current one; ties go to the lower server id. Moves
        come in order of falling gain, equal gains in user-id order."""
        rho = self.matrix(assignment)
        rows = np.arange(len(self.users))
        current = rho[rows, self.owners(assignment)]
        # the own server never passes: its coefficient equals `current`
        better = (rho > 0) & (rho > current[:, None])
        # argmax takes the first maximum, i.e. the lowest server id
        best = np.where(better, rho, -np.inf).argmax(axis=1)
        movers = np.flatnonzero(better.any(axis=1))  # in user-id order
        movers = movers[np.argsort(current[movers] - rho[movers, best[movers]], kind="stable")]
        return [(self.users[i].node, self.servers[best[i]]) for i in movers]


def user_correlations(users: list[UserGroup], assignment: Assignment) -> dict[NodeId, float]:
    """Each user's correlation with its own server's profile, in user-id order.

    These are the coefficients the greedy optimizes; their sum in this order
    (`rng.left_sum`) is its total correlation.
    """
    ev = _CorrEval(users, tuple(set(assignment.values())))
    return dict(zip((u.node for u in ev.users), ev.own(assignment).tolist()))


def greedy_correlation(
    users: list[UserGroup],
    placement: Placement,
    initial: Assignment,
) -> tuple[Assignment, float, list[BatchRecord]]:
    """Simultaneous-reassignment greedy for total profile correlation.

    Each round's proposals are applied as a batch; a batch that does not
    strictly raise the total correlation is reverted and the loop ends.
    Returns the final assignment, its total correlation (the log's last
    `total_corr_before`) and the log.
    """
    ev = _CorrEval(users, placement)
    assignment = dict(initial)
    total = ev.total(assignment)
    log: list[BatchRecord] = []
    iteration = 0
    while True:
        iteration += 1
        proposals = ev.proposals(assignment)
        if not proposals:
            log.append(BatchRecord(iteration, 0, total, total, False))
            break
        candidate = dict(assignment)
        for user_node, server in proposals:
            candidate[user_node] = server
        new_total = ev.total(candidate)
        accepted = new_total > total
        log.append(BatchRecord(iteration, len(proposals), total, new_total, accepted))
        if not accepted:
            break
        assignment, total = candidate, new_total
    return assignment, total, log


def relocate_servers(
    topo: Topology,
    users: list[UserGroup],
    placement: Placement,
    assignment: Assignment,
) -> tuple[Placement, Assignment]:
    """Move each server to the 1-center of its assigned users.

    Group membership is preserved; the assignment comes back with its targets
    renamed to the new locations. Servers without users keep their node. If
    two groups want the same node, the later server (id order) takes its best
    still-free candidate.
    """
    groups = _members(users, placement, assignment)
    new_location = {s: s for s, members in groups.items() if not members}
    taken = set(new_location)
    for s, members in groups.items():
        if members:
            free = tuple(n for n in topo.node_ids if n not in taken)
            new_location[s] = one_center(topo, members, candidates=free)
            taken.add(new_location[s])

    new_placement = tuple(sorted(new_location.values()))
    new_assignment = {u.node: new_location[assignment[u.node]] for u in users}
    return new_placement, new_assignment


def optimize(
    topo: Topology,
    users: list[UserGroup],
    k: int | None = None,
    placement: Placement | None = None,
    optimizer: str = "distance",
) -> tuple[Placement, Assignment, list[BatchRecord]]:
    """The planning pipeline: placement, closest assignment, optional greedy.

    Without a `placement`, dragoon places `k` servers. Users go to their
    closest server; the "correlation" optimizer then runs greedy_correlation
    and relocate_servers. The log is the greedy's, empty for "distance".
    """
    if optimizer not in OPTIMIZERS:
        raise ValidationError(f"unknown optimizer {optimizer!r}")
    if placement is None:
        if k is None:
            raise ValidationError("optimize needs k or a placement")
        placement, _, _ = dragoon(topo, users, k)
    assignment = closest_assignment(topo, users, placement)
    log: list[BatchRecord] = []
    if optimizer == "correlation":
        assignment, _, log = greedy_correlation(users, placement, assignment)
        placement, assignment = relocate_servers(topo, users, placement, assignment)
    return placement, assignment, log
