"""Distance-correlation trade-off front between the two optimization extremes.

The walk starts at the distance-optimal solution (dragoon placement, closest
assignment) and moves toward the correlation optimum one seeded random
reassignment at a time, recording every state; the non-dominated filter keeps
the trade-off frontier. Distance is minimized, correlation is maximized.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .assignment import _CorrEval, optimize
from .errors import ValidationError
from .placement import Assignment, Placement, weighted_distances
from .profiles import UserGroup
from .rng import derive_seed, make_rng
from .topology import DistanceMatrix, Topology


@dataclass(frozen=True)
class SolutionPoint:
    placement: Placement
    assignment: tuple[tuple[str, str], ...]  # sorted (user, server) pairs
    avg_dist: float
    total_corr: float
    max_dist: float
    step: int


ParetoFront = list[SolutionPoint]


def dominates(a: SolutionPoint, b: SolutionPoint) -> bool:
    """a is at least as good in both objectives and strictly better in one."""
    if a.avg_dist > b.avg_dist or a.total_corr < b.total_corr:
        return False
    return a.avg_dist < b.avg_dist or a.total_corr > b.total_corr


def non_dominated(points: list[SolutionPoint]) -> ParetoFront:
    """Maximal non-dominated subset, deduplicated, ascending by avg_dist.

    Sort-and-scan: after ordering by (avg_dist asc, total_corr desc), a point
    survives iff its correlation strictly beats everything cheaper.
    """
    ordered = sorted(points, key=lambda p: (p.avg_dist, -p.total_corr, p.step))
    front: ParetoFront = []
    best_corr = -np.inf
    for p in ordered:
        if p.total_corr > best_corr:
            front.append(p)
            best_corr = p.total_corr
    return front


def _point(
    dm: DistanceMatrix,
    users: list[UserGroup],
    placement: Placement,
    assignment: Assignment,
    total_corr: float,
    step: int,
) -> SolutionPoint:
    weighted = weighted_distances(dm, users, assignment)
    return SolutionPoint(
        placement=tuple(sorted(placement)),
        assignment=tuple(sorted(assignment.items())),
        avg_dist=float(weighted.mean()),
        max_dist=float(weighted.max()),
        total_corr=total_corr,
        step=step,
    )


def front_sweep(
    topo: Topology, users: list[UserGroup], k: int, steps: int, master_seed: int
) -> ParetoFront:
    """Pareto front from a seeded walk between the two single-objective optima.

    Point 0 is optimize's "distance" solution (dragoon placement, closest
    assignment); the final point is its "correlation" solution on the same
    placement (greedy fixpoint, relocated servers). Interior points apply one
    randomly chosen improving reassignment per step, drawn from the greedy
    proposal set under the walk seed derived from `master_seed`.
    """
    if steps < 2:
        raise ValidationError("steps must be at least 2")
    dm = topo.distance_matrix()

    place0, a0, _ = optimize(topo, users, k=k)
    ev = _CorrEval(users, place0)
    recorded = [_point(dm, users, place0, a0, ev.total(a0), step=0)]

    rng = make_rng(derive_seed(master_seed, "pareto-walk"))
    assignment = dict(a0)
    for step in range(1, steps - 1):
        proposals = ev.proposals(assignment)
        if not proposals:
            break
        user_node, server = proposals[int(rng.integers(len(proposals)))]
        assignment[user_node] = server
        recorded.append(_point(dm, users, place0, assignment, ev.total(assignment), step))

    # relocation keeps the greedy's groups, so its final total is the end point's
    place_end, a_end, log = optimize(topo, users, placement=place0, optimizer="correlation")
    recorded.append(_point(dm, users, place_end, a_end, log[-1].total_corr_before, steps - 1))
    return non_dominated(recorded)
