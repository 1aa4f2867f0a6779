"""User-to-server assignment optimized for aggregate profile correlation.

The greedy evaluates, for every user, the rank correlation against every
server's would-be profile (the user's own profile always counted in), then
applies all proposed reassignments at once. A batch only sticks if the total
correlation strictly improves; otherwise the search stops on the assignment
from before it, which keeps the simultaneous update from oscillating.

A coefficient is Spearman's rho = 1 - 6*sum(d^2) / (n(n^2-1)) on descending
midranks over the full service universe, without a tie-correction term: on
heavily tied profiles the tie-corrected (Pearson-of-midranks) variant
disagrees with this form, which the optimization is calibrated against.

Every coefficient in this module comes from one batched kernel (`_CorrEval`),
and it is exact, not approximate, so that ties in the ranks are reproducible:

- a server's sum vector accumulates its members' profiles with `+=` in
  user-id order and is rebuilt from scratch for each server a move changes,
  never updated by subtraction, because float rounding can create or break
  exact ties and ties change ranks;
- each candidate row is normalized on its own (`row / row.sum()`), which is
  bit for bit the one-vector computation;
- midranks are multiples of 0.5, so sum(d^2) is exact in any order;
- the total adds the users' coefficients left to right in user-id order
  (`rng.left_sum`), whatever the Python version;
- the users x servers matrix is built one server column at a time, so memory
  stays at users x universe rather than users x servers x universe; a move
  (a greedy batch or one Pareto walk step) re-ranks only the columns it touches.
"""

from __future__ import annotations

from itertools import count
from typing import NamedTuple

import numpy as np

from .errors import OPTIMIZERS, ValidationError, _check_choice
from .placement import (Assignment, Placement, _by_node, _check_placement, _members,
                        closest_assignment, dragoon, one_center)
from .profiles import UserGroup, midranks_descending
from .rng import left_sum
from .topology import NodeId, Topology


class BatchRecord(NamedTuple):
    """One simultaneous-reassignment round."""

    iteration: int
    moves_proposed: int
    total_corr_before: float
    total_corr_after: float
    accepted: bool


class _CorrEval:
    """The rank correlations of one assignment: rho[user, server], each user
    counted in, users (from `_by_node`) and servers in id order.

    The users' own ranks are computed once. The assignment lives only in
    `owner`; `move` is the one way to change it and rebuilds only the servers
    it touches: for every other server j, a user's candidate row is `sums[j]`
    or `sums[j] + P[user]` both before and after the move.
    """

    def __init__(self, users: list[UserGroup], placement: Placement, assignment: Assignment):
        self.users = _by_node(users)
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
        # in id order; rejects a placement or an assignment that does not fit
        self.servers = tuple(_members(self.users, placement, assignment))
        self.user_index = {u.node: i for i, u in enumerate(self.users)}
        self.server_index = {s: j for j, s in enumerate(self.servers)}
        self.owner = np.array([self.server_index[assignment[u.node]] for u in self.users])
        self.sums = np.zeros((len(self.servers), n))
        self.rho = np.empty((len(self.users), len(self.servers)))
        for j in range(len(self.servers)):
            self._rebuild(j)

    def _rebuild(self, j: int):
        """Server j's sum row from scratch, then its rho column."""
        members = np.flatnonzero(self.owner == j)  # in user-id order
        self.sums[j] = 0.0
        for i in members:
            self.sums[j] += self.P[i]
        candidates = self.sums[j] + self.P
        candidates[members] = self.sums[j]
        d = midranks_descending(candidates / candidates.sum(axis=1, keepdims=True)) - self.R
        self.rho[:, j] = 1.0 - 6.0 * (d * d).sum(axis=1) / self.denom

    @property
    def assignment(self) -> Assignment:
        """A new dict of the current assignment, users in id order."""
        return {u.node: self.servers[j] for u, j in zip(self.users, self.owner.tolist())}

    def move(self, moves: list[tuple[NodeId, NodeId]]):
        """Apply (user, server) pairs from `proposals`; rebuild each touched server once."""
        touched = set()
        for user, server in moves:
            i, j = self.user_index[user], self.server_index[server]
            touched.update((self.owner[i], j))
            self.owner[i] = j
        for j in sorted(touched):
            self._rebuild(j)

    def own(self) -> np.ndarray:
        """Each user's coefficient with its own server, in user-id order."""
        return self.rho[np.arange(len(self.users)), self.owner]

    def total(self) -> float:
        return left_sum(self.own().tolist())

    def proposals(self) -> list[tuple[NodeId, NodeId]]:
        """(user, server) for each user whose best coefficient is positive and
        strictly above its current one; ties go to the lower server id. Moves
        come in order of falling gain, equal gains in user-id order."""
        rho, current = self.rho, self.own()
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
    servers: list = []
    for server in assignment.values():  # by equality: _members rejects an unhashable one
        if server not in servers:
            servers.append(server)
    ev = _CorrEval(users, tuple(servers), assignment)
    return dict(zip((u.node for u in ev.users), ev.own().tolist()))


def greedy_correlation(
    users: list[UserGroup],
    placement: Placement,
    initial: Assignment,
) -> tuple[Assignment, float, list[BatchRecord]]:
    """Simultaneous-reassignment greedy for total profile correlation.

    Each round's proposals are applied as a batch to one evaluator; if a
    batch does not strictly raise the total correlation, the search ends with
    the assignment from before it. Returns the final assignment, its total
    correlation (the log's last `total_corr_before`) and the log.
    """
    ev = _CorrEval(users, placement, initial)
    total = ev.total()
    log: list[BatchRecord] = []
    for iteration in count(1):
        kept, proposals = ev.assignment, ev.proposals()
        ev.move(proposals)  # no proposals: nothing changes, and the round is not accepted
        new_total = ev.total()
        accepted = new_total > total
        log.append(BatchRecord(iteration, len(proposals), total, new_total, accepted))
        if not accepted:
            return kept, total, log
        total = new_total


def relocate_servers(
    topo: Topology,
    users: list[UserGroup],
    placement: Placement,
    assignment: Assignment,
) -> tuple[Placement, Assignment]:
    """Move each server to the 1-center of its assigned users.

    Group membership is preserved: the placement comes back in id order, the
    assignment in user-id order with its targets renamed to the new locations.
    Servers without users keep their node. If two groups want the same node,
    the later server (id order) takes its best still-free candidate.
    """
    groups = _members(users, placement, assignment)
    new_location = {s: s for s, members in groups.items() if not members}
    taken = set(new_location)
    for s, members in groups.items():
        if members:
            free = tuple(n for n in topo.node_ids if n not in taken)
            new_location[s] = one_center(topo, members, candidates=free)
            taken.add(new_location[s])

    return (tuple(sorted(new_location.values())),
            {u.node: new_location[assignment[u.node]] for u in _by_node(users)})


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
    and relocate_servers. Returns the placement in id order, the assignment
    in user-id order and the greedy's log (empty for "distance").
    """
    _check_choice("optimizer", optimizer, OPTIMIZERS)
    if placement is not None:
        placement = tuple(_check_placement(placement))
    elif k is None:
        raise ValidationError("optimize needs k or a placement")
    else:
        placement, _, _ = dragoon(topo, users, k)
    assignment = closest_assignment(topo, users, placement)
    log: list[BatchRecord] = []
    if optimizer == "correlation":
        assignment, _, log = greedy_correlation(users, placement, assignment)
        placement, assignment = relocate_servers(topo, users, placement, assignment)
    return placement, assignment, log
