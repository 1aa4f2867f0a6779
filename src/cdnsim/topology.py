"""Network infrastructure model: GraphML loading, validation and shortest paths.

A topology is an undirected, connected graph of network nodes. Edge weights are
finite positive reals (1.0 by default, which makes distances hop counts); nodes
carry a finite positive priority used to weight the placement objectives.
"""

from __future__ import annotations

import heapq
import xml.etree.ElementTree as ET
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError

NodeId = str

_GRAPHML_NS = "{http://graphml.graphdrawing.org/xmlns}"


@dataclass(frozen=True)
class DistanceMatrix:
    """All-pairs shortest-path distances, indexed by sorted node id.

    Row i is Dijkstra from node i. On weighted graphs the matrix is symmetric
    only up to rounding, so every reader takes user or node rows against
    server or origin columns."""

    ids: tuple[NodeId, ...]
    matrix: np.ndarray

    def index(self, node: NodeId) -> int:
        return self._index[node]

    def get(self, a: NodeId, b: NodeId) -> float:
        return float(self.matrix[self._index[a], self._index[b]])

    def __post_init__(self):
        self.matrix.flags.writeable = False
        object.__setattr__(self, "_index", {n: i for i, n in enumerate(self.ids)})


class Topology:
    """Validated undirected weighted graph; immutable after construction."""

    def __init__(
        self,
        nodes: list[tuple[NodeId, str, float]],
        edges: list[tuple[NodeId, NodeId, float]],
    ):
        """nodes: (id, label, priority) triples; edges: (a, b, weight) triples.

        Parallel/reverse duplicate edges collapse to the maximum weight.
        Raises ValidationError on duplicate ids, self-loops surviving as the
        only connection, non-positive or non-finite weights or priorities, or a
        disconnected graph.
        """
        seen: set[NodeId] = set()
        for nid, _, _ in nodes:
            if nid in seen:
                raise ValidationError(f"duplicate node id {nid!r}")
            seen.add(nid)
        if not nodes:
            raise ValidationError("topology has no nodes")

        self.node_ids: tuple[NodeId, ...] = tuple(sorted(nid for nid, _, _ in nodes))
        self.labels: dict[NodeId, str] = {nid: label for nid, label, _ in nodes}
        self.priorities: dict[NodeId, float] = {}
        for nid, _, prio in nodes:
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

        adj: dict[NodeId, list[tuple[NodeId, float]]] = {n: [] for n in self.node_ids}
        for a, b, w in self.edges:
            adj[a].append((b, w))
            adj[b].append((a, w))
        self._adj = {n: tuple(sorted(nbrs)) for n, nbrs in adj.items()}

        self._check_connected()
        self._dm: DistanceMatrix | None = None

    def _check_connected(self):
        start = self.node_ids[0]
        seen = {start}
        stack = [start]
        while stack:
            for nb, _ in self._adj[stack.pop()]:
                if nb not in seen:
                    seen.add(nb)
                    stack.append(nb)
        if len(seen) != len(self.node_ids):
            missing = sorted(set(self.node_ids) - seen)[:5]
            raise ValidationError(f"graph is disconnected (e.g. unreachable: {missing})")

    def __contains__(self, node: NodeId) -> bool:
        return node in self.labels

    def neighbors(self, node: NodeId) -> list[NodeId]:
        """Nodes sharing an edge with `node`, in id order."""
        if node not in self._adj:
            raise ValidationError(f"unknown node {node!r}")
        return [nb for nb, _ in self._adj[node]]

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
    back to the raw key id); node labels come from the `label` attribute.
    Missing attributes default to weight 1.0, priority 1.0 and the node id as
    label. Directed or duplicate edges are symmetrized to the maximum
    weight of the pair.
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

    nodes: list[tuple[NodeId, str, float]] = []
    edges: list[tuple[NodeId, NodeId, float]] = []
    for el in root.iter():
        tag = _local(el.tag)
        if tag == "node":
            nid = el.get("id")
            if nid is None:
                raise ValidationError("node element without id")
            label = data_value(el, "label") or nid
            prio_text = data_value(el, priority_key)
            try:
                prio = float(prio_text) if prio_text else 1.0
            except ValueError as exc:
                raise ValidationError(f"node {nid!r}: bad priority {prio_text!r}") from exc
            nodes.append((nid, label, prio))
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


def _dijkstra(topo: Topology, source: NodeId, index: dict[NodeId, int]) -> np.ndarray:
    n = len(topo.node_ids)
    dist = np.full(n, np.inf)
    dist[index[source]] = 0.0
    heap: list[tuple[float, NodeId]] = [(0.0, source)]
    while heap:
        d, u = heapq.heappop(heap)
        ui = index[u]
        if d > dist[ui]:
            continue
        for v, w in topo._adj[u]:
            nd = d + w
            vi = index[v]
            if nd < dist[vi]:
                dist[vi] = nd
                heapq.heappush(heap, (nd, v))
    return dist


def all_pairs_shortest_paths(topo: Topology) -> DistanceMatrix:
    """Exact weighted shortest-path distances, Dijkstra run from every node."""
    ids = topo.node_ids
    index = {n: i for i, n in enumerate(ids)}
    matrix = np.empty((len(ids), len(ids)))
    for i, source in enumerate(ids):
        matrix[i, :] = _dijkstra(topo, source, index)
    if not np.isfinite(matrix).all():  # construction already rejects this
        raise ValidationError("graph is disconnected")
    return DistanceMatrix(ids=ids, matrix=matrix)
