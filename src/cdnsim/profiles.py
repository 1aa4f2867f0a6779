"""Request profiles: Zipf generation, trace loading and midranks.

A profile is a probability distribution over a fixed service universe.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError, _check_int, _check_real
from .rng import derive_seed, make_rng, shuffled, weighted_sample_without_replacement
from .topology import NodeId, Topology

ServiceId = str

PROB_SUM_TOL = 1e-9


class Profile:
    """Immutable probability map over an ordered service universe.

    Only the support is stored: `support` holds the ascending universe indices
    of the nonzero probabilities and `values` the probabilities there, so a
    profile's size grows with the services it likes, not with the universe.
    """

    __slots__ = ("universe", "support", "values")

    def __init__(self, universe: tuple[ServiceId, ...], probs: np.ndarray):
        probs = np.asarray(probs, dtype=np.float64)
        if probs.shape != (len(universe),):
            raise ValidationError("probability vector does not match universe")
        if not ((0 <= probs) & (probs < np.inf)).all():
            raise ValidationError("negative or non-finite probability")
        total = float(probs.sum())
        if abs(total - 1.0) > PROB_SUM_TOL:
            raise ValidationError(f"probabilities sum to {total}, not 1")
        self.universe = tuple(universe)
        self.support = np.flatnonzero(probs)
        self.values = probs[self.support]
        self.support.flags.writeable = False
        self.values.flags.writeable = False

    @property
    def probs(self) -> np.ndarray:
        """The dense probability vector in universe order, built on each read."""
        probs = np.zeros(len(self.universe))
        probs[self.support] = self.values
        probs.flags.writeable = False
        return probs

    @property
    def entries(self) -> dict[ServiceId, float]:
        return {s: float(p) for s, p in zip(self.universe, self.probs)}

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Profile)
            and self.universe == other.universe
            and np.array_equal(self.support, other.support)
            and np.array_equal(self.values, other.values)
        )

    def __repr__(self) -> str:
        top = sorted(self.entries.items(), key=lambda kv: (-kv[1], kv[0]))[:3]
        return f"Profile({len(self.universe)} services, top={top})"


@dataclass
class UserGroup:
    """All end-users behind one access node, aggregated to one demand point."""

    node: NodeId
    priority: float = 1.0
    profile: Profile | None = None

    def __post_init__(self):
        _check_real(f"user {self.node!r} priority", self.priority)


@dataclass(frozen=True)
class ZipfModel:
    """Zipf popularity model: pmf(rank r) proportional to 1/r^alpha over N ranks."""

    alpha: float = 0.3
    universe_size: int = 100
    profile_size: int = 15

    def __post_init__(self):
        _check_real("alpha", self.alpha, zero=True)
        _check_int("universe_size", self.universe_size, 1)
        if _check_int("profile_size", self.profile_size, 1) > self.universe_size:
            raise ValidationError("profile_size must be in 1..universe_size")


def make_universe(size: int) -> tuple[ServiceId, ...]:
    """Service ids s00..; zero-padded so lexicographic order is popularity order."""
    width = len(str(size - 1)) if size > 1 else 1
    return tuple(f"s{i:0{width}d}" for i in range(size))


def zipf_pmf(alpha: float, n: int) -> np.ndarray:
    """Normalized 1/r^alpha over ranks 1..n; descending, sums to 1."""
    _check_real("alpha", alpha, zero=True)
    weights = np.arange(1, _check_int("n", n, 1) + 1, dtype=np.float64) ** (-float(alpha))
    return weights / weights.sum()


def generate_profile(rng_seed: int, universe: tuple[ServiceId, ...],
                     global_pmf: np.ndarray, within: np.ndarray) -> Profile:
    """Seeded pseudo-realistic profile with exactly `len(within)` liked services.

    The support is drawn without replacement, weighted by `global_pmf`
    (universe order = popularity order); within the support the pmf `within`
    is dealt onto a random permutation, so a user's favourite service is not
    necessarily a globally popular one. `generate_users` passes the Zipf pmfs
    of its model, computed once for all users.
    """
    if len(universe) != len(global_pmf):
        raise ValidationError("universe size does not match the global pmf")
    rng = make_rng(rng_seed)
    support = weighted_sample_without_replacement(rng, global_pmf, len(within))
    order = shuffled(rng, support)
    probs = np.zeros(len(universe))
    probs[order] = within
    probs /= probs.sum()
    return Profile(universe, probs)


def generate_users(topo: Topology, model: ZipfModel, master_seed: int) -> list[UserGroup]:
    """One user group per topology node, profile seeded per node id."""
    universe = make_universe(model.universe_size)
    global_pmf = zipf_pmf(model.alpha, model.universe_size)
    within = zipf_pmf(model.alpha, model.profile_size)
    users = []
    for node in topo.node_ids:
        profile = generate_profile(derive_seed(master_seed, "profile", node), universe,
                                   global_pmf, within)
        users.append(UserGroup(node=node, priority=topo.priorities[node], profile=profile))
    return users


def load_trace(data: bytes) -> list[UserGroup]:
    """Load user groups from a request-count trace CSV.

    Expects exactly the header node_id,service_id,count; per node the profile
    probability of a service is its count share. Priorities default to 1.0.
    """
    try:
        reader = csv.reader(io.StringIO(data.decode("utf-8-sig")))
        header = next(reader)
    except UnicodeDecodeError as exc:
        raise ValidationError(f"trace is not UTF-8: {exc}") from None
    except StopIteration:
        raise ValidationError("empty trace file") from None
    if [h.strip() for h in header] != ["node_id", "service_id", "count"]:
        raise ValidationError(f"unknown columns {header!r}; "
                              "expected node_id,service_id,count")
    counts: dict[NodeId, dict[ServiceId, int]] = {}
    services: set[ServiceId] = set()
    for lineno, row in enumerate(reader, start=2):
        if not row or (len(row) == 1 and not row[0].strip()):
            continue
        if len(row) != 3:
            raise ValidationError(f"line {lineno}: expected 3 columns, got {len(row)}")
        node, service, count_text = (cell.strip() for cell in row)
        if not node:
            raise ValidationError(f"line {lineno}: empty node id")
        if not service:
            raise ValidationError(f"line {lineno}: empty service id")
        try:
            count = int(count_text)
        except ValueError as exc:
            raise ValidationError(f"line {lineno}: bad count {count_text!r}") from exc
        if count <= 0:
            raise ValidationError(f"line {lineno}: non-positive count {count}")
        counts.setdefault(node, {})
        counts[node][service] = counts[node].get(service, 0) + count
        services.add(service)
    if not counts:
        raise ValidationError("trace has no data rows")
    universe = tuple(sorted(services))
    users = []
    for node in sorted(counts):
        per_node = counts[node]
        total = sum(per_node.values())
        probs = np.array([per_node.get(s, 0) / total for s in universe])
        users.append(UserGroup(node=node, profile=Profile(universe, probs)))
    return users


def midranks_descending(values: np.ndarray) -> np.ndarray:
    """1-based ranks, largest value first, ties sharing their average rank.

    Takes one vector or a 2-D array of rows and ranks each row on its own. A
    tie group spans sorted positions i..j and gets (i + j) / 2 + 1, which is
    exact in float64, so the ranks do not depend on how many rows share a call.
    """
    v = np.asarray(values, dtype=np.float64)
    n = v.shape[-1]
    if n == 0:
        return np.empty(v.shape, dtype=np.float64)
    order = np.argsort(-v, axis=-1, kind="stable")
    ordered = np.take_along_axis(v, order, axis=-1)
    starts = np.ones(v.shape, dtype=bool)
    starts[..., 1:] = ordered[..., 1:] != ordered[..., :-1]
    ends = np.ones(v.shape, dtype=bool)
    ends[..., :-1] = starts[..., 1:]
    pos = np.arange(n)
    first = np.maximum.accumulate(np.where(starts, pos, 0), axis=-1)
    last = np.minimum.accumulate(np.where(ends, pos, n - 1)[..., ::-1], axis=-1)[..., ::-1]
    ranks = np.empty(v.shape, dtype=np.float64)
    np.put_along_axis(ranks, order, (first + last) / 2 + 1, axis=-1)
    return ranks

