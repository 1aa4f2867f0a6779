"""Network infrastructure model: GraphML loading, validation and shortest paths.

A topology is an undirected, connected graph of network nodes. Edge weights are
finite positive reals (1.0 by default, which makes distances hop counts); nodes
carry a finite positive priority used to weight the placement objectives.
"""

from __future__ import annotations

import xml.etree.ElementTree as ET
from functools import cached_property
from typing import TYPE_CHECKING

from .errors import ValidationError, _check_real

if TYPE_CHECKING:
    import numpy as np

NodeId = str

_GRAPHML_NS = "{http://graphml.graphdrawing.org/xmlns}"


class Topology:
    """Validated undirected weighted graph and its `distances`; immutable.

    Every check runs when the topology is built; the distances are computed
    on their first read, so a caller that only validates a graph loads no
    numpy."""

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
        self.priorities: dict[NodeId, float] = {}
        for nid, prio in nodes:
            if not isinstance(nid, str):
                raise ValidationError(f"node ids must be strings, not {nid!r}")
            if nid in self.priorities:
                raise ValidationError(f"duplicate node id {nid!r}")
            self.priorities[nid] = float(_check_real(f"node {nid!r} priority", prio))
        if not nodes:
            raise ValidationError("topology has no nodes")

        self.node_ids: tuple[NodeId, ...] = tuple(sorted(self.priorities))

        collapsed: dict[tuple[NodeId, NodeId], float] = {}
        for a, b, w in edges:
            if not (isinstance(a, str) and isinstance(b, str)
                    and a in self.priorities and b in self.priorities):
                raise ValidationError(f"edge ({a!r}, {b!r}) references unknown node")
            if a == b:
                continue  # self-loops carry no distance information
            w = float(_check_real(f"edge ({a!r}, {b!r}) weight", w))
            key = (a, b) if a < b else (b, a)
            collapsed[key] = max(collapsed.get(key, 0.0), w)
        self.edges: tuple[tuple[NodeId, NodeId, float], ...] = tuple(
            (a, b, w) for (a, b), w in sorted(collapsed.items())
        )

        adj: dict[NodeId, list[NodeId]] = {n: [] for n in self.node_ids}
        for a, b, _ in self.edges:
            adj[a].append(b)
            adj[b].append(a)
        self._adj = {n: tuple(sorted(nbrs)) for n, nbrs in adj.items()}
        self._index = {n: i for i, n in enumerate(self.node_ids)}

        self._check_connected()  # by search: a path sum can overflow to inf

    @cached_property
    def distances(self) -> np.ndarray:
        """The shortest-path matrix, rows and columns in node-id order: one
        read-only Floyd–Warshall result, computed on the first read."""
        return all_pairs_shortest_paths(self)

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

    def index(self, node: NodeId) -> int:
        """Row and column of `node` in `distances`."""
        try:
            return self._index[node]
        except (KeyError, TypeError):  # TypeError: an unhashable id
            raise ValidationError(f"unknown node {node!r}") from None

    def distance(self, a: NodeId, b: NodeId) -> float:
        return float(self.distances[self.index(a), self.index(b)])

    def neighbors(self, node: NodeId) -> list[NodeId]:
        """Nodes sharing an edge with `node`, in id order."""
        self.index(node)  # rejects an unknown node
        return list(self._adj[node])


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


def all_pairs_shortest_paths(topo: Topology) -> np.ndarray:
    """Exact weighted shortest-path distances by Floyd–Warshall (Floyd 1962,
    Warshall 1962): relax every pair through each node k in turn. Entries
    (i, j) and (j, i) add the same two numbers at every step, so the matrix is
    exactly symmetric. Read-only, rows and columns in node-id order."""
    import numpy as np  # here only: validating a graph needs no numpy

    n = len(topo.node_ids)
    d = np.full((n, n), np.inf)
    np.fill_diagonal(d, 0.0)
    for a, b, w in topo.edges:
        i, j = topo.index(a), topo.index(b)
        d[i, j] = d[j, i] = w
    for k in range(n):
        np.minimum(d, d[:, k, None] + d[None, k, :], out=d)
    d.flags.writeable = False
    return d
