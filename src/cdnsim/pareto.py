"""Distance-correlation trade-off front between the two optimization extremes.

The walk starts at the distance-optimal solution (dragoon placement, closest
assignment) and moves toward the correlation optimum one steepest reassignment
at a time, recording every state; the non-dominated filter keeps the trade-off
frontier. Distance is minimized, correlation is maximized.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .assignment import _CorrEval, optimize
from .errors import _check_int
from .placement import Assignment, Placement, _Eval
from .profiles import UserGroup
from .topology import Topology


@dataclass(frozen=True)
class SolutionPoint:
    placement: Placement
    assignment: tuple[tuple[str, str], ...]  # sorted (user, server) pairs
    avg_dist: float
    total_corr: float
    max_dist: float
    step: int


ParetoFront = list[SolutionPoint]


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
    dist: _Eval, placement: Placement, assignment: Assignment, total_corr: float, step: int
) -> SolutionPoint:
    max_dist, avg_dist = dist.assigned(assignment)
    return SolutionPoint(
        placement=tuple(sorted(placement)),
        assignment=tuple(sorted(assignment.items())),
        avg_dist=avg_dist,
        max_dist=max_dist,
        total_corr=total_corr,
        step=step,
    )


def front_sweep(topo: Topology, users: list[UserGroup], k: int, steps: int) -> ParetoFront:
    """Pareto front from a steepest walk between the two single-objective optima.

    Point 0 is optimize's "distance" solution (dragoon placement, closest
    assignment); the final point is its "correlation" solution on the same
    placement (greedy fixpoint, relocated servers). Interior points apply one
    reassignment per step: the greedy proposal with the largest gain.
    """
    _check_int("steps", steps, 2)
    place0, a0, _ = optimize(topo, users, k=k)
    dist = _Eval(topo, users)
    ev = _CorrEval(users, place0, a0)
    recorded = [_point(dist, place0, a0, ev.total(), step=0)]
    for step in range(1, steps - 1):
        proposals = ev.proposals()
        if not proposals:
            break
        ev.move(*proposals[0])
        recorded.append(_point(dist, place0, ev.assignment, ev.total(), step))

    # relocation keeps the greedy's groups, so its final total is the end point's
    place_end, a_end, log = optimize(topo, users, placement=place0, optimizer="correlation")
    recorded.append(_point(dist, place_end, a_end, log[-1].total_corr_before, steps - 1))
    return non_dominated(recorded)
