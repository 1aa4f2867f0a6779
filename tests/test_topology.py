import io

import networkx as nx
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cdnsim import Topology, ValidationError, all_pairs_shortest_paths, parse_topology
from conftest import random_connected_topology

GRAPHML_3 = b"""<?xml version="1.0" encoding="utf-8"?>
<graphml xmlns="http://graphml.graphdrawing.org/xmlns">
  <graph edgedefault="undirected">
    <node id="A"/><node id="B"/><node id="C"/>
    <edge source="A" target="B"/>
    <edge source="B" target="C"/>
  </graph>
</graphml>
"""

GRAPHML_ATTRS = b"""<?xml version="1.0" encoding="utf-8"?>
<graphml xmlns="http://graphml.graphdrawing.org/xmlns">
  <key id="d0" for="edge" attr.name="LinkSpeed" attr.type="double"/>
  <key id="d1" for="node" attr.name="priority" attr.type="double"/>
  <key id="d2" for="node" attr.name="label" attr.type="string"/>
  <graph edgedefault="undirected">
    <node id="A"><data key="d1">2.5</data><data key="d2">Alpha</data></node>
    <node id="B"/>
    <edge source="A" target="B"><data key="d0">3.5</data></edge>
  </graph>
</graphml>
"""


def test_parse_defaults():
    topo = parse_topology(GRAPHML_3)
    assert topo.node_ids == ("A", "B", "C")
    assert len(topo.edges) == 2
    assert all(w == 1.0 for _, _, w in topo.edges)
    assert all(topo.priorities[n] == 1.0 for n in topo.node_ids)


def test_parse_weight_and_priority_keys():
    topo = parse_topology(GRAPHML_ATTRS, weight_key="LinkSpeed")
    assert topo.edges == (("A", "B", 3.5),)
    assert topo.priorities["A"] == 2.5
    assert topo.labels["A"] == "Alpha"
    # same attribute resolvable through the raw key id
    topo2 = parse_topology(GRAPHML_ATTRS, weight_key="d0")
    assert topo2.edges == (("A", "B", 3.5),)


def test_parse_without_weight_key_ignores_attrs():
    topo = parse_topology(GRAPHML_ATTRS)
    assert topo.edges == (("A", "B", 1.0),)


def test_parse_errors():
    with pytest.raises(ValidationError):
        parse_topology(b"<graphml><graph><node id=")  # malformed XML
    dup = GRAPHML_3.replace(b'<node id="C"/>', b'<node id="A"/>')
    with pytest.raises(ValidationError, match="duplicate"):
        parse_topology(dup)
    disconnected = GRAPHML_3.replace(b'<edge source="B" target="C"/>', b"")
    with pytest.raises(ValidationError, match="disconnected"):
        parse_topology(disconnected)


def test_negative_weight_rejected():
    doc = GRAPHML_ATTRS.replace(b">3.5<", b">-1<")
    with pytest.raises(ValidationError, match="non-positive"):
        parse_topology(doc, weight_key="LinkSpeed")


@pytest.mark.parametrize("nodes, edges", [
    ([("A", "A", np.inf), ("B", "B", 1.0)], [("A", "B", 1.0)]),
    ([("A", "A", np.nan), ("B", "B", 1.0)], [("A", "B", 1.0)]),
    ([("A", "A", 1.0), ("B", "B", 1.0)], [("A", "B", np.inf)]),
    ([("A", "A", 1.0), ("B", "B", 1.0)], [("A", "B", np.nan)]),
], ids=["inf-priority", "nan-priority", "inf-weight", "nan-weight"])
def test_non_finite_priority_or_weight_rejected(nodes, edges):
    with pytest.raises(ValidationError, match="non-positive or non-finite"):
        Topology(nodes, edges)


def test_parsed_infinite_weight_rejected():
    doc = GRAPHML_ATTRS.replace(b">3.5<", b">inf<")
    with pytest.raises(ValidationError, match="non-finite weight"):
        parse_topology(doc, weight_key="LinkSpeed")


@st.composite
def graphml_documents(draw):
    """(GraphML bytes, weight_key, duplicated node id or None).

    Nodes are declared in shuffled order, some with a priority. A path through
    them keeps the graph connected; more edges add reversed duplicates and self
    loops, and some edges carry no weight. The weight key is named by its
    attr.name, by its key id, by a name no edge carries, or not at all.
    """
    ids = [f"v{i}" for i in draw(st.permutations(range(draw(st.integers(1, 6)))))]
    value = st.none() | st.floats(0.01, 1000)
    nodes = [(nid, draw(value)) for nid in ids]
    duplicate = draw(st.none() | st.sampled_from(ids))
    if duplicate is not None:
        nodes.insert(draw(st.integers(0, len(nodes))), (duplicate, draw(value)))
    pairs = list(zip(ids, ids[1:])) + draw(
        st.lists(st.tuples(st.sampled_from(ids), st.sampled_from(ids)), max_size=8))
    edges = [(b, a, draw(value)) if draw(st.booleans()) else (a, b, draw(value))
             for a, b in draw(st.permutations(pairs))]

    def data(key, v):
        return "" if v is None else f'<data key="{key}">{v!r}</data>'

    doc = (
        '<?xml version="1.0" encoding="utf-8"?>'
        '<graphml xmlns="http://graphml.graphdrawing.org/xmlns">'
        '<key id="d0" for="edge" attr.name="weight" attr.type="double"/>'
        '<key id="d1" for="node" attr.name="priority" attr.type="double"/>'
        f'<graph edgedefault="{draw(st.sampled_from(["directed", "undirected"]))}">'
        + "".join(f'<node id="{n}">{data("d1", v)}</node>' for n, v in nodes)
        + "".join(f'<edge source="{a}" target="{b}">{data("d0", v)}</edge>'
                  for a, b, v in edges)
        + "</graph></graphml>"
    )
    weight_key = draw(st.sampled_from([None, "weight", "d0", "cost"]))
    return doc.encode(), weight_key, duplicate


def networkx_topology(doc: bytes, weight_key):
    """(node ids, priorities, edges) as networkx reads the document, collapsed
    the way Topology documents it: self loops dropped, each node pair's edges
    to their largest weight, 1.0 where the weight key gives no value."""
    graph = nx.read_graphml(io.BytesIO(doc), force_multigraph=True)
    name = "weight" if weight_key == "d0" else weight_key
    edges: dict[tuple[str, str], float] = {}
    for a, b, attrs in graph.edges(data=True):
        if a != b:
            pair = (min(a, b), max(a, b))
            edges[pair] = max(edges.get(pair, 0.0), attrs.get(name, 1.0) if name else 1.0)
    priorities = {n: attrs.get("priority", 1.0) for n, attrs in graph.nodes(data=True)}
    return (tuple(sorted(graph.nodes)), priorities,
            tuple((a, b, w) for (a, b), w in sorted(edges.items())))


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(graphml_documents())
def test_parser_matches_networkx(case):
    doc, weight_key, duplicate = case
    if duplicate is not None:
        with pytest.raises(ValidationError, match=f"duplicate node id {duplicate!r}"):
            parse_topology(doc, weight_key=weight_key)
        return
    node_ids, priorities, edges = networkx_topology(doc, weight_key)
    topo = parse_topology(doc, weight_key=weight_key)
    assert topo.node_ids == node_ids
    assert topo.priorities == priorities
    assert topo.edges == edges


def test_directed_duplicate_edges_symmetrize_to_max():
    topo = Topology(
        [("A", "A", 1.0), ("B", "B", 1.0)],
        [("A", "B", 2.0), ("B", "A", 5.0)],
    )
    assert topo.edges == (("A", "B", 5.0),)


def test_self_loops_dropped():
    topo = Topology(
        [("A", "A", 1.0), ("B", "B", 1.0)],
        [("A", "A", 1.0), ("A", "B", 1.0)],
    )
    assert topo.edges == (("A", "B", 1.0),)


def test_neighbors(path3):
    assert path3.neighbors("B") == ["A", "C"]
    assert path3.neighbors("A") == ["B"]
    with pytest.raises(ValidationError):
        path3.neighbors("Z")


def test_star_neighbors():
    from conftest import star_topology

    topo = star_topology("hub", ["l1", "l2", "l3", "l4", "l5"])
    assert topo.neighbors("hub") == ["l1", "l2", "l3", "l4", "l5"]


def test_apsp_path(path3):
    dm = path3.distance_matrix()
    assert dm.get("A", "C") == 2.0
    assert dm.get("A", "A") == 0.0


def test_apsp_shortcut_triangle():
    topo = Topology(
        [("A", "A", 1.0), ("B", "B", 1.0), ("C", "C", 1.0)],
        [("A", "B", 1.0), ("B", "C", 1.0), ("A", "C", 3.0)],
    )
    assert topo.distance_matrix().get("A", "C") == 2.0  # via B


def _floyd_warshall(topo):
    """Independent oracle: O(n^3) relaxation over the adjacency."""
    ids = topo.node_ids
    n = len(ids)
    index = {node: i for i, node in enumerate(ids)}
    dist = np.full((n, n), np.inf)
    np.fill_diagonal(dist, 0.0)
    for a, b, w in topo.edges:
        i, j = index[a], index[b]
        dist[i, j] = min(dist[i, j], w)
        dist[j, i] = min(dist[j, i], w)
    for mid in range(n):
        dist = np.minimum(dist, dist[:, [mid]] + dist[[mid], :])
    return dist


@pytest.mark.parametrize("seed,n", [(s, 5 + 5 * (s % 10)) for s in range(20)])
def test_apsp_matches_floyd_warshall(seed, n):
    topo = random_connected_topology(seed, n, weighted=(seed % 2 == 0))
    dm = all_pairs_shortest_paths(topo)
    assert np.allclose(dm.matrix, _floyd_warshall(topo), atol=1e-9)


@pytest.mark.parametrize("seed", range(5))
def test_distance_matrix_invariants(seed):
    topo = random_connected_topology(seed, 20, weighted=True)
    m = topo.distance_matrix().matrix
    assert np.allclose(m, m.T)
    assert np.all(np.diag(m) == 0.0)
    assert np.isfinite(m).all()
    rng = np.random.default_rng(seed)
    for _ in range(200):
        i, j, k = rng.integers(0, 20, size=3)
        assert m[i, j] <= m[i, k] + m[k, j] + 1e-9


def test_desk_scale_parse():
    # 124 nodes / 126 edges, the shape of the reference infrastructure
    topo = random_connected_topology(11, 124)
    assert len(topo.node_ids) == 124
    dm = topo.distance_matrix()
    assert np.isfinite(dm.matrix).all()
