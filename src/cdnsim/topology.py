"""Network infrastructure model: GraphML loading, validation and shortest paths.

A topology is an undirected, connected graph of network nodes. Edge weights are
finite positive reals (1.0 by default, which makes distances hop counts); nodes
carry a finite positive priority used to weight the placement objectives.
"""

from __future__ import annotations

import xml.etree.ElementTree as ET
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError

NodeId = str

_GRAPHML_NS = "{http://graphml.graphdrawing.org/xmlns}"


@dataclass(frozen=True)
class DistanceMatrix:
    """All-pairs shortest-path distances, indexed by sorted node id."""

    ids: tuple[NodeId, ...]
    matrix: np.ndarray

    def index(self, node: NodeId) -> int:
        try:
            return self._index[node]
        except KeyError:
            raise ValidationError(f"unknown node {node!r}") from None

    def get(self, a: NodeId, b: NodeId) -> float:
        return float(self.matrix[self.index(a), self.index(b)])

    def __post_init__(self):
        self.matrix.flags.writeable = False
        object.__setattr__(self, "_index", {n: i for i, n in enumerate(self.ids)})


class Topology:
    """Validated undirected weighted graph; immutable after construction."""

    def __init__(
        self,
        nodes: list[tuple[NodeId, float]],
        edges: list[tuple[NodeId, NodeId, float]],
    ):
        """nodes: (id, priority) pairs; edges: (a, b, weight) triples.

        Parallel/reverse duplicate edges collapse to the maximum weight.
        Raises ValidationError on duplicate ids, self-loops surviving as the
        only connection, non-positive or non-finite weights or priorities, or a
        disconnected graph.
        """
        seen: set[NodeId] = set()
        for nid, _ in nodes:
            if nid in seen:
                raise ValidationError(f"duplicate node id {nid!r}")
            seen.add(nid)
        if not nodes:
            raise ValidationError("topology has no nodes")

        self.node_ids: tuple[NodeId, ...] = tuple(sorted(seen))
        self.priorities: dict[NodeId, float] = {}
        for nid, prio in nodes:
            if not 0 < prio < np.inf:
                raise ValidationError(
                    f"node {nid!r} has non-positive or non-finite priority {prio}")
            self.priorities[nid] = float(prio)

        collapsed: dict[tuple[NodeId, NodeId], float] = {}
        for a, b, w in edges:
            if a not in seen or b not in seen:
                raise ValidationError(f"edge ({a!r}, {b!r}) references unknown node")
            if a == b:
                continue  # self-loops carry no distance information
            if not 0 < w < np.inf:
                raise ValidationError(
                    f"edge ({a!r}, {b!r}) has non-positive or non-finite weight {w}")
            key = (a, b) if a < b else (b, a)
            collapsed[key] = max(collapsed.get(key, 0.0), float(w))
        self.edges: tuple[tuple[NodeId, NodeId, float], ...] = tuple(
            (a, b, w) for (a, b), w in sorted(collapsed.items())
        )

        adj: dict[NodeId, list[NodeId]] = {n: [] for n in self.node_ids}
        for a, b, _ in self.edges:
            adj[a].append(b)
            adj[b].append(a)
        self._adj = {n: tuple(sorted(nbrs)) for n, nbrs in adj.items()}

        self._check_connected()
        self._dm: DistanceMatrix | None = None

    def _check_connected(self):
        start = self.node_ids[0]
        seen = {start}
        stack = [start]
        while stack:
            for nb in self._adj[stack.pop()]:
                if nb not in seen:
                    seen.add(nb)
                    stack.append(nb)
        if len(seen) != len(self.node_ids):
            missing = sorted(set(self.node_ids) - seen)[:5]
            raise ValidationError(f"graph is disconnected (e.g. unreachable: {missing})")

    def __contains__(self, node: NodeId) -> bool:
        return node in self.priorities

    def neighbors(self, node: NodeId) -> list[NodeId]:
        """Nodes sharing an edge with `node`, in id order."""
        if node not in self._adj:
            raise ValidationError(f"unknown node {node!r}")
        return list(self._adj[node])

    def distance_matrix(self) -> DistanceMatrix:
        """All-pairs shortest paths; computed once and cached."""
        if self._dm is None:
            self._dm = all_pairs_shortest_paths(self)
        return self._dm


def _local(tag: str) -> str:
    return tag.rsplit("}", 1)[-1]


def parse_topology(
    data: bytes,
    weight_key: str | None = None,
    priority_key: str = "priority",
) -> Topology:
    """Parse a GraphML document into a Topology.

    `weight_key` / `priority_key` name GraphML attributes (attr.name, falling
    back to the raw key id); other attributes, such as `label`, are not read.
    Missing attributes default to weight 1.0 and priority 1.0. Directed or
    duplicate edges are symmetrized to the maximum weight of the pair.
    """
    try:
        root = ET.fromstring(data)
    except ET.ParseError as exc:
        raise ValidationError(f"malformed GraphML: {exc}") from exc

    # key id -> declared attribute name
    attr_names: dict[str, str] = {}
    for el in root.iter():
        if _local(el.tag) == "key":
            kid = el.get("id")
            if kid:
                attr_names[kid] = el.get("attr.name", kid)

    def data_value(el: ET.Element, wanted: str) -> str | None:
        for child in el:
            if _local(child.tag) != "data":
                continue
            kid = child.get("key", "")
            if kid == wanted or attr_names.get(kid, kid) == wanted:
                return (child.text or "").strip()
        return None

    nodes: list[tuple[NodeId, float]] = []
    edges: list[tuple[NodeId, NodeId, float]] = []
    for el in root.iter():
        tag = _local(el.tag)
        if tag == "node":
            nid = el.get("id")
            if nid is None:
                raise ValidationError("node element without id")
            prio_text = data_value(el, priority_key)
            try:
                prio = float(prio_text) if prio_text else 1.0
            except ValueError as exc:
                raise ValidationError(f"node {nid!r}: bad priority {prio_text!r}") from exc
            nodes.append((nid, prio))
        elif tag == "edge":
            a, b = el.get("source"), el.get("target")
            if a is None or b is None:
                raise ValidationError("edge element without source/target")
            weight = 1.0
            if weight_key is not None:
                text = data_value(el, weight_key)
                if text:
                    try:
                        weight = float(text)
                    except ValueError as exc:
                        raise ValidationError(
                            f"edge ({a!r}, {b!r}): bad weight {text!r}"
                        ) from exc
            edges.append((a, b, weight))

    return Topology(nodes, edges)


def all_pairs_shortest_paths(topo: Topology) -> DistanceMatrix:
    """Exact weighted shortest-path distances by Floyd–Warshall (Floyd 1962,
    Warshall 1962): relax every pair through each node k in turn. Entries
    (i, j) and (j, i) add the same two numbers at every step, so the matrix is
    exactly symmetric."""
    ids = topo.node_ids
    index = {n: i for i, n in enumerate(ids)}
    d = np.full((len(ids), len(ids)), np.inf)
    np.fill_diagonal(d, 0.0)
    for a, b, w in topo.edges:
        d[index[a], index[b]] = d[index[b], index[a]] = w
    for k in range(len(ids)):
        np.minimum(d, d[:, k, None] + d[None, k, :], out=d)
    return DistanceMatrix(ids=ids, matrix=d)
