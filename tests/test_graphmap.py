import hashlib
import json
import random
import re
import xml.etree.ElementTree as ET

import pytest
from hypothesis import given, settings, strategies as st

from helpers import brute_force_best_partition, modularity_oracle, random_graph
from ontomap.graphmap import (
    ConceptGraph,
    EmptyGraph,
    GraphEdge,
    GraphNode,
    Partition,
    PartitionMismatch,
    UnknownFormat,
    build_concept_graph,
    cluster,
    export,
    louvain,
    modularity,
    undirected_projection,
)
from ontomap.model import Name


def N(local):
    return Name("", local)


def simple_graph(edges, nodes=None):
    if nodes is None:
        nodes = sorted({u for u, v in edges} | {v for u, v in edges})
    return ConceptGraph(
        nodes=tuple(GraphNode(N(n), "class", n) for n in nodes),
        edges=tuple(GraphEdge(N(u), N(v), "subclass") for u, v in edges),
    )


def triangle(prefix):
    a, b, c = f"{prefix}a", f"{prefix}b", f"{prefix}c"
    return [(a, b), (b, c), (a, c)]


# --- concept graph construction ---------------------------------------------


def test_fixture_graph_contains_expected_edges(fixture_store):
    g = build_concept_graph(fixture_store)
    kinds = {(str(e.source), str(e.target), e.kind) for e in g.edges}
    assert (":Disease", ":PathologicalCondition", "subclass") in kinds
    assert (":MedicalCondition", ":Treatment", "relation:canBeTreated") in kinds
    assert all(n.kind == "class" for n in g.nodes)


def test_fixture_graph_with_individuals(fixture_store):
    g = build_concept_graph(fixture_store, include_individuals=True)
    kinds = {(str(e.source), str(e.target), e.kind) for e in g.edges}
    assert (":Liraglutide", ":Hypoglycemia",
            "assertion:mayCauseSideEffect") in kinds
    assert (":Obesity", ":Disease", "instance_of") in kinds


def test_empty_graph_export_and_cluster_error():
    g = ConceptGraph(nodes=(), edges=())
    assert export(g, None, "nodelink-json") == b'{"nodes":[],"links":[]}'
    with pytest.raises(EmptyGraph):
        cluster(g, seed=42)


# --- modularity --------------------------------------------------------------


def test_two_disjoint_triangles_q_half():
    g = simple_graph(triangle("x") + triangle("y"))
    p = Partition({N(n.name.local): 0 if n.name.local.startswith("x") else 1
                   for n in g.nodes}, seed=0)
    assert modularity(g, p) == pytest.approx(0.5)


def test_one_community_q_zero():
    g = simple_graph(triangle("x"))
    p = Partition({n.name: 0 for n in g.nodes}, seed=0)
    assert modularity(g, p) == pytest.approx(0.0)


def test_singletons_on_triangle_negative():
    g = simple_graph(triangle("x"))
    p = Partition({n.name: i for i, n in enumerate(g.nodes)}, seed=0)
    assert modularity(g, p) == pytest.approx(-1.0 / 3.0)


def test_partition_mismatch_raises():
    g = simple_graph(triangle("x"))
    with pytest.raises(PartitionMismatch):
        modularity(g, Partition({N("xa"): 0}, seed=0))


def test_modularity_agrees_with_pairwise_oracle():
    rnd = random.Random(5)
    for _ in range(30):
        adj = random_graph(rnd, max_n=12)
        assignment = {u: rnd.randrange(3) for u in adj}
        got = modularity(
            ConceptGraph(
                nodes=tuple(GraphNode(N(f"n{u}"), "class", str(u))
                            for u in adj),
                edges=tuple(GraphEdge(N(f"n{u}"), N(f"n{v}"), "subclass", w)
                            for u in adj for v, w in adj[u].items()
                            if u <= v),
            ),
            Partition({N(f"n{u}"): assignment[u] for u in adj}, seed=0))
        want = modularity_oracle(adj, assignment)
        assert got == pytest.approx(want, abs=1e-12)


# --- louvain ------------------------------------------------------------------


def test_modularity_matches_networkx():
    nx = pytest.importorskip("networkx")
    rnd = random.Random(41)
    for _ in range(100):
        adj = random_graph(rnd, max_n=20)
        names = {u: f"n{u:02d}" for u in adj}
        edges = [(u, v, w) for u in adj for v, w in adj[u].items() if u <= v]
        g = ConceptGraph(
            nodes=tuple(GraphNode(N(names[u]), "class", "") for u in adj),
            edges=tuple(GraphEdge(N(names[u]), N(names[v]), "subclass", w)
                        for u, v, w in edges))
        k = rnd.randint(1, 4)
        assignment = {N(names[u]): rnd.randrange(k) for u in adj}
        nxg = nx.Graph()
        nxg.add_nodes_from(adj)
        nxg.add_weighted_edges_from(edges)
        if nxg.size(weight="weight") == 0:
            continue  # networkx divides by the total weight
        communities = [{u for u in adj if assignment[N(names[u])] == c}
                       for c in range(k)]
        want = nx.community.modularity(nxg, [c for c in communities if c])
        got = modularity(g, Partition(assignment, seed=0))
        assert got == pytest.approx(want, abs=1e-12)


def bridge_adj():
    edges = triangle("x") + triangle("y") + [("xa", "ya")]
    adj = {}
    for u, v in edges:
        adj.setdefault(u, {})[v] = 1.0
        adj.setdefault(v, {})[u] = 1.0
    return adj


def test_bridge_graph_recovers_optimum():
    adj = bridge_adj()
    best_q, best = brute_force_best_partition(adj)
    assignment, _ = louvain(adj, seed=42)
    assert modularity_oracle(adj, assignment) == pytest.approx(best_q, abs=1e-9)
    # the split happens at the bridge
    xs = {assignment[n] for n in adj if n.startswith("x")}
    ys = {assignment[n] for n in adj if n.startswith("y")}
    assert len(xs) == len(ys) == 1 and xs != ys


def test_louvain_deterministic_and_monotone():
    rnd = random.Random(17)
    for _ in range(10):
        adj = random_graph(rnd, max_n=30)
        a1, h1 = louvain(adj, seed=42)
        a2, h2 = louvain(adj, seed=42)
        assert a1 == a2 and h1 == h2
        assert all(b >= a - 1e-12 for a, b in zip(h1, h1[1:]))


def test_louvain_pinned():
    # assignments and per-phase modularities, bit for bit
    rnd = random.Random(29)
    out = []
    for seed in range(60):
        assignment, history = louvain(random_graph(rnd, max_n=40), seed=seed)
        out.append((sorted(assignment.items()), repr(history)))
    assert hashlib.sha256(repr(out).encode()).hexdigest() == (
        "dd42f13145c819f1e0b21d99f22e5095d2b05026f8718b9e86cdf382949a5eca")


def test_single_node():
    adj = {"a": {}}
    assignment, _ = louvain(adj, seed=1)
    assert assignment == {"a": 0}


def test_cluster_ids_dense(fixture_store):
    g = build_concept_graph(fixture_store, include_individuals=True)
    p = cluster(g, seed=42)
    ids = set(p.assignment.values())
    assert ids == set(range(len(ids)))
    assert set(p.assignment) == {n.name for n in g.nodes}


# --- exports ------------------------------------------------------------------


def test_graphml_well_formed_with_declared_keys(fixture_store):
    g = build_concept_graph(fixture_store)
    p = cluster(g, seed=42)
    data = export(g, p, "graphml")
    root = ET.fromstring(data)
    ns = "{http://graphml.graphdrawing.org/xmlns}"
    keys = {el.get("attr.name") for el in root.findall(f"{ns}key")}
    assert {"label", "kind", "cluster", "weight"} <= keys
    assert len(root.findall(f"{ns}graph/{ns}node")) == len(g.nodes)


def test_dot_contains_palette_colors(fixture_store):
    g = build_concept_graph(fixture_store)
    p = cluster(g, seed=42)
    text = export(g, p, "dot").decode("utf-8")
    assert text.startswith("digraph")
    assert "canBeTreated" in text
    assert "fillcolor=\"#" in text


def test_dot_quotes_any_label_text():
    label = 'the "big" one\\'
    g = ConceptGraph(
        nodes=(GraphNode(N("A"), "class", label),
               GraphNode(N("B"), "class", "plain")),
        edges=(GraphEdge(N("A"), N("B"), "subclass"),))
    for p in (None, Partition({N("A"): 0, N("B"): 1}, seed=0)):
        text = export(g, p, "dot").decode("utf-8")
        quoted = re.compile(r'"((?:[^"\\]|\\.)*)"')
        for line in text.splitlines():
            # outside well-formed quoted strings no quote or backslash is left
            assert not re.search(r'["\\]', quoted.sub("", line)), line
        labels = [m.group(1) for m in re.finditer(r'label=' + quoted.pattern,
                                                  text)]
        assert re.sub(r"\\(.)", r"\1", labels[0]) == label


def _one_node_graph(label):
    return ConceptGraph(nodes=(GraphNode(N("A"), "class", label),), edges=())


def _graphml_label(data):
    ns = "{http://graphml.graphdrawing.org/xmlns}"
    return ET.fromstring(data).find(f"{ns}graph/{ns}node/{ns}data").text


def test_graphml_replaces_characters_xml_cannot_carry():
    assert _graphml_label(export(_one_node_graph("bad\x01label\x0c"))) == (
        "bad\ufffdlabel\ufffd")
    bad = [chr(i) for i in range(0x20) if chr(i) not in "\t\n\r"]
    bad += ["\ud800", "\udfff", "\ufffe", "\uffff"]
    label = "a\t" + "".join(bad) + "\U0001f600"
    assert _graphml_label(export(_one_node_graph(label))) == (
        "a\t" + "\ufffd" * len(bad) + "\U0001f600")


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(label=st.text(st.characters(exclude_characters="\n")))
def test_any_label_exports_to_loadable_graphml_and_json(label):
    g = _one_node_graph(label)
    assert _graphml_label(export(g, None, "graphml")) == (
        None if label == "" else
        re.sub("[\x00-\x08\x0b\x0c\x0e-\x1f\ufffe\uffff]", "\ufffd",
               label.replace("\r", "\n")))
    assert json.loads(export(g, None, "nodelink-json"))["nodes"][0][
        "label"] == label


def test_nodelink_json_round_trips(fixture_store):
    g = build_concept_graph(fixture_store)
    p = cluster(g, seed=42)
    payload = json.loads(export(g, p, "nodelink-json"))
    assert {n["id"] for n in payload["nodes"]} == \
        {str(n.name) for n in g.nodes}
    assert all("cluster" in n for n in payload["nodes"])


def test_export_byte_stable(fixture_store):
    g = build_concept_graph(fixture_store)
    p = cluster(g, seed=42)
    for fmt in ("graphml", "dot", "nodelink-json"):
        assert export(g, p, fmt) == export(g, p, fmt)


def test_unknown_format():
    with pytest.raises(UnknownFormat):
        export(ConceptGraph((), ()), None, "gexf")
