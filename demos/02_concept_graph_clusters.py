#!/usr/bin/env python3
"""Turn the bundled ontology into a concept graph and cluster it.

Builds the graph of classes (subclass edges plus property domain->range
edges), runs seeded Louvain community detection, reports the modularity of
the partition, and writes GraphML / DOT / node-link JSON exports to a fresh
temporary directory, whose path it prints.

Run from the repository root:

    python3 demos/02_concept_graph_clusters.py
"""

import tempfile
from pathlib import Path

from ontomap import (
    build_concept_graph,
    cluster,
    export,
    modularity,
    parse_file,
    saturate,
)

FIXTURE = Path(__file__).resolve().parents[1] / "fixtures" / "obesity-sample.ofn"


def main():
    onto = parse_file(FIXTURE).ontology
    store = saturate(onto)
    graph = build_concept_graph(store, include_individuals=True)
    print(f"{len(graph.nodes)} nodes, {len(graph.edges)} edges")

    partition = cluster(graph, seed=42)
    q = modularity(graph, partition)
    n_clusters = len(set(partition.assignment.values()))
    print(f"Louvain (seed 42): {n_clusters} clusters, modularity {q:.4f}")

    clusters = {}
    for name, cid in sorted(partition.assignment.items()):
        clusters.setdefault(cid, []).append(str(name))
    for cid in sorted(clusters):
        print(f"  cluster {cid}: {', '.join(clusters[cid])}")

    outdir = Path(tempfile.mkdtemp(prefix="ontomap-demo-"))
    print(f"writing exports to {outdir}")
    for fmt, filename in (("graphml", "concepts.graphml"),
                          ("dot", "concepts.dot"),
                          ("nodelink-json", "concepts.json")):
        out = outdir / filename
        out.write_bytes(export(graph, partition, format=fmt))
        print(f"wrote {out}")


if __name__ == "__main__":
    main()
