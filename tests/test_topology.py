import io
import re

import networkx as nx
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cdnsim import Topology, ValidationError, all_pairs_shortest_paths, parse_topology
import oracles
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


@pytest.mark.parametrize("old, new, message", [
    (b'<node id="B"/>', b"<node/>", "node element without id"),
    (b'<node id="B"/>', b'<node id="B"><data key="d1">high</data></node>',
     "node 'B': bad priority 'high'"),
    (b'<edge source="A" target="B">', b'<edge source="A">', "edge element without source/target"),
    (b'<edge source="A" target="B">', b'<edge target="B">', "edge element without source/target"),
    (b">3.5<", b">fast<", "edge ('A', 'B'): bad weight 'fast'"),
], ids=["node-id", "priority-text", "edge-target", "edge-source", "weight-text"])
def test_malformed_graphml_element_rejected(old, new, message):
    doc = GRAPHML_ATTRS.replace(old, new)
    with pytest.raises(ValidationError, match=re.escape(message) + "$"):
        parse_topology(doc, weight_key="LinkSpeed")


def test_node_children_other_than_data_are_skipped():
    doc = GRAPHML_ATTRS.replace(b'<node id="A">', b'<node id="A"><desc>edge router</desc>')
    assert parse_topology(doc).priorities == {"A": 2.5, "B": 1.0}


def test_topology_without_nodes_is_rejected():
    with pytest.raises(ValidationError, match="^topology has no nodes$"):
        Topology([], [])


def test_negative_weight_rejected():
    doc = GRAPHML_ATTRS.replace(b">3.5<", b">-1<")
    with pytest.raises(ValidationError, match=re.escape(
            "edge ('A', 'B') weight must be a finite real > 0, got -1.0")):
        parse_topology(doc, weight_key="LinkSpeed")


PRIORITY = "node 'A' priority must be a finite real > 0, got "
WEIGHT = "edge ('A', 'B') weight must be a finite real > 0, got "


@pytest.mark.parametrize("nodes, edges, message", [
    ([("A", np.inf), ("B", 1.0)], [("A", "B", 1.0)], PRIORITY + "inf"),
    ([("A", np.nan), ("B", 1.0)], [("A", "B", 1.0)], PRIORITY + "nan"),
    ([("A", 1.0), ("B", 1.0)], [("A", "B", np.inf)], WEIGHT + "inf"),
    ([("A", 1.0), ("B", 1.0)], [("A", "B", np.nan)], WEIGHT + "nan"),
    ([("A", "1"), ("B", 1.0)], [("A", "B", 1.0)], PRIORITY + "'1'"),
    ([("A", None), ("B", 1.0)], [("A", "B", 1.0)], PRIORITY + "None"),
    ([("A", True), ("B", 1.0)], [("A", "B", 1.0)], PRIORITY + "True"),
    ([("A", 1.0), ("B", 1.0)], [("A", "B", "1")], WEIGHT + "'1'"),
    ([("A", 1.0), ("B", 1.0)], [("A", "B", None)], WEIGHT + "None"),
    ([("A", 1.0), ("B", 1.0)], [("A", "B", True)], WEIGHT + "True"),
], ids=["inf-priority", "nan-priority", "inf-weight", "nan-weight", "str-priority",
        "None-priority", "True-priority", "str-weight", "None-weight", "True-weight"])
def test_non_finite_priority_or_weight_rejected(nodes, edges, message):
    with pytest.raises(ValidationError, match=re.escape(message) + "$"):
        Topology(nodes, edges)


@pytest.mark.parametrize("nodes, edges, message", [
    ([(1, 1.0), ("B", 1.0)], [(1, "B", 1.0)], "node ids must be strings, not 1"),
    ([(1, 1.0), (2, 1.0)], [(1, 2, 1.0)], "node ids must be strings, not 1"),
    ([(["A"], 1.0)], [], "node ids must be strings, not ['A']"),
    ([("A", 1.0), ("B", 1.0)], [("A", ["B"], 1.0)], "edge ('A', ['B']) references unknown node"),
], ids=["mixed", "all-int", "unhashable", "unhashable-endpoint"])
def test_node_id_that_is_not_a_string_is_rejected(nodes, edges, message):
    """Node ids are sorted, so a non-string id is rejected before it is compared."""
    with pytest.raises(ValidationError, match=re.escape(message) + "$"):
        Topology(nodes, edges)


@pytest.mark.parametrize("node", [1, ["A"]], ids=["int", "unhashable"])
def test_lookup_of_a_node_that_is_not_a_string(node, path3):
    """`Topology.index` is the one check of a node from outside: an id that is
    not a string, unhashable or not, is an unknown node."""
    with pytest.raises(ValidationError, match=re.escape(f"unknown node {node!r}") + "$"):
        path3.index(node)


@pytest.mark.parametrize("weight", ["-1.0", "0.0", "nan", "inf"])
def test_self_loop_weight_is_checked(weight):
    """A self-loop is dropped only after its weight passed the check every
    other edge's weight passes, in `Topology` and in GraphML alike."""
    message = re.escape(f"edge ('A', 'A') weight must be a finite real > 0, got {weight}") + "$"
    with pytest.raises(ValidationError, match=message):
        Topology([("A", 1.0), ("B", 1.0)], [("A", "A", float(weight)), ("A", "B", 1.0)])
    loop = f'<edge source="A" target="A"><data key="d0">{weight}</data></edge></graph>'
    doc = GRAPHML_ATTRS.replace(b"</graph>", loop.encode())
    with pytest.raises(ValidationError, match=message):
        parse_topology(doc, weight_key="LinkSpeed")
    assert parse_topology(doc).edges == (("A", "B", 1.0),)  # a weight not read is 1.0


def test_parsed_infinite_weight_rejected():
    doc = GRAPHML_ATTRS.replace(b">3.5<", b">inf<")
    with pytest.raises(ValidationError, match=re.escape(WEIGHT + "inf")):
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
        [("A", 1.0), ("B", 1.0)],
        [("A", "B", 2.0), ("B", "A", 5.0)],
    )
    assert topo.edges == (("A", "B", 5.0),)


def test_self_loops_dropped():
    topo = Topology(
        [("A", 1.0), ("B", 1.0)],
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
    assert path3.distance("A", "C") == 2.0
    assert path3.distance("A", "A") == 0.0


def test_unknown_node_is_rejected(path3):
    for lookup in (lambda: path3.index("Z"), lambda: path3.distance("A", "Z"),
                   lambda: path3.distance("Z", "A"), lambda: path3.neighbors("Z")):
        with pytest.raises(ValidationError, match="unknown node 'Z'"):
            lookup()


def test_distances_are_read_only(path3):
    """A write would corrupt every later placement, assignment and load."""
    for distances in (path3.distances, all_pairs_shortest_paths(path3)):
        with pytest.raises(ValueError, match="read-only"):
            distances[0, 2] = 0.0
    assert path3.distance("A", "C") == 2.0


def test_apsp_shortcut_triangle():
    topo = Topology(
        [("A", 1.0), ("B", 1.0), ("C", 1.0)],
        [("A", "B", 1.0), ("B", "C", 1.0), ("A", "C", 3.0)],
    )
    assert topo.distance("A", "C") == 2.0  # via B


def assert_shortest_paths(m: np.ndarray, reference: np.ndarray, exact: bool):
    """`m` equals the Dijkstra `reference` (exactly, or to rounding), is exactly
    symmetric with a zero diagonal, and meets the triangle inequality
    m[i, j] <= m[i, k] + m[k, j] for every i, k, j (to rounding if not exact)."""
    if exact:
        assert np.array_equal(m, reference)
    else:
        assert np.allclose(m, reference, rtol=1e-12, atol=0.0)
    assert np.array_equal(m, m.T)
    assert np.all(np.diag(m) == 0.0)
    through_k = m[:, :, None] + m[None, :, :]  # [i, k, j]
    assert np.all(m[:, None, :] <= through_k + (0.0 if exact else 1e-9))


@pytest.mark.parametrize("seed,n", [(s, 5 + 5 * (s % 10)) for s in range(20)])
def test_apsp_matches_floyd_warshall(seed, n):
    """The Floyd–Warshall APSP on seeded graphs, unit-weight at odd seeds and
    two-decimal weights at even ones, against the Dijkstra oracle."""
    topo = random_connected_topology(seed, n, weighted=(seed % 2 == 0))
    assert_shortest_paths(all_pairs_shortest_paths(topo),
                          oracles.dijkstra_apsp(topo), exact=seed % 2 == 1)


@st.composite
def weighted_graphs(draw):
    """(Topology, weights are integers): a random spanning tree plus extra
    edges, parallel ones and self loops included, with unit, integer or
    two-decimal weights."""
    n = draw(st.integers(1, 14))
    ids = [f"v{i:02d}" for i in range(n)]
    kind = draw(st.sampled_from(["unit", "integer", "decimal"]))
    weight = {"unit": st.just(1.0),
              "integer": st.integers(1, 50).map(float),
              "decimal": st.integers(1, 10_000).map(lambda c: c / 100)}[kind]
    node = st.sampled_from(ids)
    pairs = [(ids[draw(st.integers(0, i - 1))], ids[i]) for i in range(1, n)]
    pairs += draw(st.lists(st.tuples(node, node), max_size=2 * n))
    edges = [(a, b, draw(weight)) for a, b in pairs]
    return Topology([(i, 1.0) for i in ids], edges), kind != "decimal"


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(weighted_graphs())
def test_apsp_matches_dijkstra(case):
    topo, integral = case
    assert_shortest_paths(all_pairs_shortest_paths(topo),
                          oracles.dijkstra_apsp(topo), exact=integral)


@pytest.mark.parametrize("seed", range(5))
def test_distance_matrix_invariants(seed):
    topo = random_connected_topology(seed, 20, weighted=True)
    m = topo.distances
    assert np.array_equal(m, m.T)
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
    assert np.isfinite(topo.distances).all()
