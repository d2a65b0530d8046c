"""Concept graph construction, Louvain clustering, and graph exports.

The graph mirrors the ontology: nodes are classes (optionally individuals),
edges are direct subclass links, domain->range relation links, and individual
level assertions.  Clustering runs Louvain modularity maximization on the
undirected weighted projection with a seeded, reproducible move order.
"""

from __future__ import annotations

import json
import re
import xml.etree.ElementTree as ET
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .model import (
    ClassAssertion,
    EntityKind,
    Name,
    ObjectPropertyAssertion,
    ObjectPropertyDomain,
    ObjectPropertyRange,
    _expr_names,
)
from .ofn import _escape
from .reasoner import InferredStore, classify


class EmptyGraph(Exception):
    pass


class PartitionMismatch(Exception):
    pass


class UnknownFormat(Exception):
    pass


@dataclass(frozen=True)
class GraphNode:
    name: Name
    kind: str  # "class" | "individual"
    label: str


@dataclass(frozen=True)
class GraphEdge:
    source: Name
    target: Name
    kind: str  # subclass | relation:<p> | assertion:<p> | instance_of
    weight: float = 1.0


@dataclass(frozen=True)
class ConceptGraph:
    nodes: tuple
    edges: tuple


@dataclass(frozen=True)
class Partition:
    assignment: dict  # Name -> dense 0-based cluster id
    seed: int


def build_concept_graph(store: InferredStore,
                        include_individuals: bool = False) -> ConceptGraph:
    o = store.ontology
    labels = o.labels()

    def mknode(name, kind):
        text = labels.get(name, (name.local,))[0]
        return GraphNode(name, kind, text)

    classes = sorted(o.names_of_kind(EntityKind.CLASS))
    nodes = [mknode(c, "class") for c in classes]
    node_names = set(classes)
    if include_individuals:
        individuals = sorted(o.names_of_kind(EntityKind.INDIVIDUAL) - node_names)
        nodes.extend(mknode(i, "individual") for i in individuals)
        node_names |= set(individuals)

    edges = set()
    tax = classify(store)
    for c in classes:
        for s in tax.direct_supers[c]:
            if c != s:
                edges.add(GraphEdge(c, s, "subclass"))
    domains, ranges = {}, {}
    for ax in o.axioms:
        if isinstance(ax, ObjectPropertyDomain):
            domains.setdefault(ax.prop, []).extend(_expr_names(ax.cls))
        elif isinstance(ax, ObjectPropertyRange):
            ranges.setdefault(ax.prop, []).extend(_expr_names(ax.cls))
    for prop in sorted(set(domains) & set(ranges)):
        for d in domains[prop]:
            for r in ranges[prop]:
                if d in node_names and r in node_names:
                    edges.add(GraphEdge(d, r, f"relation:{prop.local}"))
    if include_individuals:
        for ax in o.axioms:
            if isinstance(ax, ClassAssertion) and isinstance(ax.cls, Name):
                if ax.individual in node_names and ax.cls in node_names:
                    edges.add(GraphEdge(ax.individual, ax.cls, "instance_of"))
            elif isinstance(ax, ObjectPropertyAssertion):
                if ax.subject in node_names and ax.object in node_names:
                    edges.add(GraphEdge(ax.subject, ax.object,
                                        f"assertion:{ax.prop.local}"))
    return ConceptGraph(
        nodes=tuple(nodes),
        edges=tuple(sorted(edges, key=lambda e: (e.source, e.target, e.kind))),
    )


# --- undirected projection and modularity -----------------------------------


def undirected_projection(g: ConceptGraph) -> dict:
    """Adjacency dict; parallel edge weights summed, direction dropped.

    ``adj[u][u]`` holds self-loop weight (counted once; contributes twice to
    the degree, as usual for modularity).
    """
    adj = {n.name: {} for n in g.nodes}
    for e in g.edges:
        u, v, w = e.source, e.target, e.weight
        adj[u][v] = adj[u].get(v, 0.0) + w
        if u != v:
            adj[v][u] = adj[v].get(u, 0.0) + w
    return adj


def _indexed(adj: dict):
    """Sorted nodes plus the graph on their positions: per node a dict of
    neighbour weights (self-loops left out) and its self-loop weight."""
    nodes = sorted(adj)
    index = {n: i for i, n in enumerate(nodes)}
    graph = [{} for _ in nodes]
    loops = [0.0] * len(nodes)
    for u, nbrs in adj.items():
        for v, w in nbrs.items():
            if u == v:
                loops[index[u]] += w
            else:
                graph[index[u]][index[v]] = w
    return nodes, graph, loops


def _modularity(graph, loops, comm) -> float:
    """Newman modularity of community labels ``comm`` on an indexed graph;
    a self-loop counts twice toward its node's degree."""
    m = 0.0
    for i, nbrs in enumerate(graph):
        for j, w in nbrs.items():
            if i < j:
                m += w
        m += loops[i]
    if m == 0.0:
        return 0.0
    internal = {}
    total = {}
    for i, nbrs in enumerate(graph):
        ci = comm[i]
        deg = 0.0
        for j, w in nbrs.items():
            deg += w
            if comm[j] == ci:
                internal[ci] = internal.get(ci, 0.0) + w
        deg += 2 * loops[i]
        internal[ci] = internal.get(ci, 0.0) + 2 * loops[i]
        total[ci] = total.get(ci, 0.0) + deg
    q = 0.0
    for c in total:
        q += internal[c] / (2 * m) - (total[c] / (2 * m)) ** 2
    return q


def modularity(g: ConceptGraph, p: Partition) -> float:
    names = {n.name for n in g.nodes}
    if set(p.assignment) != names:
        raise PartitionMismatch("partition does not cover the graph's nodes")
    nodes, graph, loops = _indexed(undirected_projection(g))
    return _modularity(graph, loops, [p.assignment[n] for n in nodes])


# --- Louvain ----------------------------------------------------------------


def _dense(labels) -> list:
    """Renumber labels 0, 1, ... in order of first appearance."""
    remap = {}
    return [remap.setdefault(c, len(remap)) for c in labels]


def louvain(adj: dict, seed: int):
    """Louvain on an adjacency dict; returns (assignment, phase modularities).

    Local moves visit nodes in a seeded shuffled order; a node only moves for
    a strict modularity gain, ties among best targets break toward the lowest
    community id.  Phases repeat until the gain drops below 1e-9.
    """
    rng = np.random.Generator(np.random.PCG64(seed))
    nodes, graph, loops = _indexed(adj)
    membership = list(range(len(nodes)))  # node -> current-level community
    history = []
    q_prev = None
    while True:
        comm, q = _local_move_phase(graph, loops, rng)
        history.append(q)
        dense = _dense(comm)
        membership = [dense[c] for c in membership]
        if q_prev is not None and q - q_prev < 1e-9:
            break
        q_prev = q
        if len(set(comm)) == len(comm):
            break  # no community merged; a further phase cannot change anything
        graph, loops = _aggregate(graph, loops, dense)
    return dict(zip(nodes, _dense(membership))), history


def _local_move_phase(graph, loops, rng):
    n = len(graph)
    comm = list(range(n))
    degree = [2 * loops[i] + sum(graph[i].values()) for i in range(n)]
    two_m = sum(degree)
    if two_m == 0.0:
        return comm, 0.0
    comm_tot = degree[:]
    order = [int(i) for i in rng.permutation(n)]
    improved = True
    while improved:
        improved = False
        for i in order:
            ci = comm[i]
            # weights from i to each neighboring community (loops excluded)
            links = {}
            for j, w in graph[i].items():
                links[comm[j]] = links.get(comm[j], 0.0) + w
            comm_tot[ci] -= degree[i]
            base = links.get(ci, 0.0) - comm_tot[ci] * degree[i] / two_m
            # ascending community order makes the lowest id win equal gains
            best_c, best_gain = ci, base
            for c in sorted(links):
                if c == ci:
                    continue
                gain = links[c] - comm_tot[c] * degree[i] / two_m
                if gain > best_gain + 1e-12:
                    best_c, best_gain = c, gain
            if best_c != ci:
                improved = True
            comm[i] = best_c
            comm_tot[best_c] += degree[i]
    return comm, _modularity(graph, loops, comm)


def _aggregate(graph, loops, comm):
    """Collapse each community of the dense labels ``comm`` to one node."""
    k = max(comm) + 1
    new_graph = [{} for _ in range(k)]
    new_loops = [0.0] * k
    for i in range(len(graph)):
        ci = comm[i]
        new_loops[ci] += loops[i]
        for j, w in graph[i].items():
            cj = comm[j]
            if ci == cj:
                if i < j:
                    new_loops[ci] += w
            else:
                new_graph[ci][cj] = new_graph[ci].get(cj, 0.0) + w
    return new_graph, new_loops


def cluster(g: ConceptGraph, seed: int) -> Partition:
    if not g.nodes:
        raise EmptyGraph("cannot cluster an empty graph")
    assignment, _history = louvain(undirected_projection(g), seed)
    return Partition(assignment=assignment, seed=seed)


# --- exports ----------------------------------------------------------------

PALETTE = (
    "#1f77b4", "#ff7f0e", "#2ca02c", "#d62728", "#9467bd", "#8c564b",
    "#e377c2", "#7f7f7f", "#bcbd22", "#17becf", "#aec7e8", "#ffbb78",
)


# characters that XML 1.0 cannot carry, not even as character references
_NOT_XML = re.compile(r"[\x00-\x08\x0b\x0c\x0e-\x1f\ud800-\udfff\ufffe\uffff]")


def _export_graphml(g, p) -> bytes:
    root = ET.Element("graphml", xmlns="http://graphml.graphdrawing.org/xmlns")
    keys = [("label", "node", "string"), ("kind", "node", "string"),
            ("kind", "edge", "string"), ("weight", "edge", "double")]
    if p is not None:
        keys.insert(2, ("cluster", "node", "int"))
    key_id = {}
    for i, (name, domain, typ) in enumerate(keys):
        kid = f"d{i}"
        key_id[(name, domain)] = kid
        ET.SubElement(root, "key", id=kid, attrib={
            "for": domain, "attr.name": name, "attr.type": typ})
    graph = ET.SubElement(root, "graph", id="G", edgedefault="directed")
    for node in g.nodes:
        el = ET.SubElement(graph, "node", id=str(node.name))
        for name, value in (("label", node.label), ("kind", node.kind)):
            d = ET.SubElement(el, "data", key=key_id[(name, "node")])
            d.text = _NOT_XML.sub("\ufffd", value)
        if p is not None:
            d = ET.SubElement(el, "data", key=key_id[("cluster", "node")])
            d.text = str(p.assignment[node.name])
    for edge in g.edges:
        el = ET.SubElement(graph, "edge",
                           source=str(edge.source), target=str(edge.target))
        d = ET.SubElement(el, "data", key=key_id[("kind", "edge")])
        d.text = edge.kind
        d = ET.SubElement(el, "data", key=key_id[("weight", "edge")])
        d.text = repr(edge.weight)
    return ET.tostring(root, encoding="utf-8", xml_declaration=True)


def _dot_str(value) -> str:
    return f'"{_escape(str(value))}"'


def _export_dot(g, p) -> bytes:
    lines = ["digraph concepts {"]
    for node in g.nodes:
        attrs = [f"label={_dot_str(node.label)}", f"kind={_dot_str(node.kind)}"]
        if p is not None:
            c = p.assignment[node.name]
            attrs.append(f'cluster="{c}"')
            attrs.append('style="filled"')
            attrs.append(f'fillcolor="{PALETTE[c % len(PALETTE)]}"')
        lines.append(f'  {_dot_str(node.name)} [{", ".join(attrs)}];')
    for e in g.edges:
        lines.append(
            f'  {_dot_str(e.source)} -> {_dot_str(e.target)} '
            f'[label={_dot_str(e.kind)}, weight={e.weight:g}];')
    lines.append("}")
    return ("\n".join(lines) + "\n").encode("utf-8")


def _export_nodelink(g, p) -> bytes:
    nodes = []
    for n in g.nodes:
        node = {"id": str(n.name), "kind": n.kind, "label": n.label}
        if p is not None:
            node["cluster"] = p.assignment[n.name]
        nodes.append(node)
    payload = {
        "nodes": nodes,
        "links": [
            {"source": str(e.source), "target": str(e.target),
             "kind": e.kind, "weight": e.weight}
            for e in g.edges
        ],
    }
    return json.dumps(payload, separators=(",", ":")).encode("utf-8")


_EXPORTERS = {"graphml": _export_graphml, "dot": _export_dot,
              "nodelink-json": _export_nodelink}
FORMATS = tuple(_EXPORTERS)


def export(g: ConceptGraph, p: Optional[Partition] = None,
           format: str = "graphml") -> bytes:
    if format not in _EXPORTERS:
        raise UnknownFormat(format)
    return _EXPORTERS[format](g, p)
