"""Shared test utilities: random generators, seeded synthetic corpora,
independent oracles, and Louvain on adjacency dicts.

The oracles deliberately use naive algorithms (fixpoint loops, exhaustive
partition enumeration, pairwise modularity sums) so they share no code or
strategy with the package implementations they check.
"""

from __future__ import annotations

import random
from itertools import combinations

import numpy as np

from ontomap import graphmap
from ontomap.corpus import Corpus
from ontomap.graphmap import ConceptGraph, GraphEdge, GraphNode
from ontomap.model import (
    Characteristic,
    ClassAssertion,
    DataPropertyAssertion,
    DataPropertyDomain,
    DataPropertyRange,
    DisjointClasses,
    DisjointUnion,
    EntityKind,
    EquivalentClasses,
    InverseObjectProperties,
    Label,
    Literal,
    Name,
    ObjectPropertyAssertion,
    ObjectPropertyDomain,
    ObjectPropertyRange,
    Ontology,
    PropertyCharacteristic,
    SubClassOf,
    SubObjectPropertyOf,
    UnionOf,
)
from ontomap.reasoner import IsA, Rel, Sub


# --- random ontology generators ---------------------------------------------


def _sample_union(rnd, classes):
    k = rnd.randint(2, min(4, len(classes)))
    return UnionOf(tuple(rnd.sample(classes, k)))


def random_ontology(rnd: random.Random) -> Ontology:
    """Ontology exercising every supported axiom type, for round-trips."""
    n_c = rnd.randint(2, 10)
    n_op = rnd.randint(1, 4)
    n_dp = rnd.randint(0, 2)
    n_i = rnd.randint(0, 8)
    classes = [Name("", f"C{i}") for i in range(n_c)]
    obj_props = [Name("", f"op{i}") for i in range(n_op)]
    data_props = [Name("", f"dp{i}") for i in range(n_dp)]
    individuals = [Name("", f"i{i}") for i in range(n_i)]
    decls = {(c, EntityKind.CLASS) for c in classes}
    decls |= {(p, EntityKind.OBJECT_PROPERTY) for p in obj_props}
    decls |= {(p, EntityKind.DATA_PROPERTY) for p in data_props}
    decls |= {(i, EntityKind.INDIVIDUAL) for i in individuals}

    axioms = set()
    for _ in range(rnd.randint(2, 30)):
        kind = rnd.randrange(15)
        if kind == 0:
            sub = (_sample_union(rnd, classes) if rnd.random() < 0.3
                   else rnd.choice(classes))
            axioms.add(SubClassOf(sub, rnd.choice(classes)))
        elif kind == 1:
            a, b = rnd.sample(classes, 2)
            if rnd.random() < 0.3:
                axioms.add(EquivalentClasses(a, _sample_union(rnd, classes)))
            else:
                axioms.add(EquivalentClasses(a, b))
        elif kind == 2:
            k = rnd.randint(2, min(4, len(classes)))
            axioms.add(DisjointClasses(tuple(rnd.sample(classes, k))))
        elif kind == 3 and len(classes) >= 3:
            whole, *parts = rnd.sample(classes, rnd.randint(3, min(4, len(classes))))
            axioms.add(DisjointUnion(whole, tuple(parts)))
        elif kind == 4:
            cls = (_sample_union(rnd, classes) if rnd.random() < 0.3
                   else rnd.choice(classes))
            axioms.add(ObjectPropertyDomain(rnd.choice(obj_props), cls))
        elif kind == 5:
            axioms.add(ObjectPropertyRange(rnd.choice(obj_props),
                                           rnd.choice(classes)))
        elif kind == 6 and data_props:
            axioms.add(DataPropertyDomain(rnd.choice(data_props),
                                          rnd.choice(classes)))
        elif kind == 7 and data_props:
            axioms.add(DataPropertyRange(rnd.choice(data_props),
                                         rnd.choice(("xsd:string",
                                                     "xsd:integer",
                                                     "xsd:decimal",
                                                     "xsd:boolean"))))
        elif kind == 8 and len(obj_props) >= 2:
            a, b = rnd.sample(obj_props, 2)
            if rnd.random() < 0.5:
                axioms.add(SubObjectPropertyOf(a, b))
            else:
                axioms.add(InverseObjectProperties(a, b))
        elif kind == 9:
            axioms.add(PropertyCharacteristic(
                rnd.choice(obj_props), rnd.choice(list(Characteristic))))
        elif kind == 10 and individuals:
            cls = (_sample_union(rnd, classes) if rnd.random() < 0.2
                   else rnd.choice(classes))
            axioms.add(ClassAssertion(cls, rnd.choice(individuals)))
        elif kind == 11 and individuals:
            axioms.add(ObjectPropertyAssertion(
                rnd.choice(obj_props), rnd.choice(individuals),
                rnd.choice(individuals)))
        elif kind == 12 and data_props and individuals:
            choice = rnd.randrange(4)
            if choice == 0:
                lit = Literal('she said "hi" \\ done', "xsd:string")
            elif choice == 1:
                lit = Literal(str(rnd.randint(-99, 99)), "xsd:integer")
            elif choice == 2:
                lit = Literal(f"{rnd.random():.4f}", "xsd:decimal")
            else:
                lit = Literal(rnd.choice(("true", "false")), "xsd:boolean")
            axioms.add(DataPropertyAssertion(
                rnd.choice(data_props), rnd.choice(individuals), lit))
        elif kind >= 13:
            target = rnd.choice(classes + individuals + obj_props)
            axioms.add(Label(target, f"label {target.local} #{rnd.randint(0, 9)}"))
    return Ontology(
        ontology_id="http://example.org/random",
        declarations=frozenset(decls),
        axioms=tuple(sorted(axioms, key=str)),
        prefixes=(("", "http://example.org/random#"),),
    )


def random_reasoner_ontology(rnd: random.Random) -> Ontology:
    """Small ontology biased toward rule interactions, for oracle checks."""
    n_c = rnd.randint(2, 12)
    n_p = rnd.randint(1, 4)
    n_i = rnd.randint(1, 10)
    classes = [Name("", f"C{i}") for i in range(n_c)]
    props = [Name("", f"p{i}") for i in range(n_p)]
    individuals = [Name("", f"i{i}") for i in range(n_i)]
    decls = {(c, EntityKind.CLASS) for c in classes}
    decls |= {(p, EntityKind.OBJECT_PROPERTY) for p in props}
    decls |= {(i, EntityKind.INDIVIDUAL) for i in individuals}
    axioms = set()
    for _ in range(rnd.randint(4, 28)):
        kind = rnd.randrange(12)
        if kind in (0, 1):
            a, b = rnd.choice(classes), rnd.choice(classes)
            if a != b:
                axioms.add(SubClassOf(a, b))
        elif kind == 2:
            a, b = rnd.sample(classes, 2) if n_c >= 2 else (None, None)
            if a is not None:
                axioms.add(EquivalentClasses(a, b))
        elif kind == 3 and n_c >= 3:
            whole, *parts = rnd.sample(classes, 3)
            axioms.add(DisjointUnion(whole, tuple(parts)))
        elif kind == 4:
            axioms.add(ObjectPropertyDomain(rnd.choice(props),
                                            rnd.choice(classes)))
        elif kind == 5:
            axioms.add(ObjectPropertyRange(rnd.choice(props),
                                           rnd.choice(classes)))
        elif kind == 6 and n_p >= 2:
            a, b = rnd.sample(props, 2)
            axioms.add(InverseObjectProperties(a, b))
        elif kind == 7 and n_p >= 2:
            a, b = rnd.sample(props, 2)
            axioms.add(SubObjectPropertyOf(a, b))
        elif kind == 8:
            axioms.add(PropertyCharacteristic(
                rnd.choice(props),
                rnd.choice((Characteristic.SYMMETRIC,
                            Characteristic.TRANSITIVE))))
        elif kind in (9, 10):
            axioms.add(ObjectPropertyAssertion(
                rnd.choice(props), rnd.choice(individuals),
                rnd.choice(individuals)))
        else:
            axioms.add(ClassAssertion(rnd.choice(classes),
                                      rnd.choice(individuals)))
    return Ontology(
        ontology_id="http://example.org/rr",
        declarations=frozenset(decls),
        axioms=tuple(sorted(axioms, key=str)),
        prefixes=(("", "http://example.org/rr#"),),
    )


# --- seeded synthetic corpora ----------------------------------------------
#
# Each generator returns a Corpus plus whatever ground truth the evaluation
# needs.  All randomness flows from the given seed through numpy's PCG64.


def _corpus(vocabulary, docs, prefix="doc"):
    return Corpus(vocabulary=tuple(vocabulary),
                  documents=tuple(tuple(d) for d in docs),
                  doc_ids=tuple(f"{prefix}{i}" for i in range(len(docs))))


def planted_two_topics(n_docs: int = 200, doc_len: int = 24,
                       vocab_per_topic: int = 12, noise: float = 0.05,
                       seed: int = 0):
    """Corpus with two disjoint planted vocabularies.

    Each document draws from one vocabulary, with a ``noise`` fraction of
    tokens from the other.  Returns (corpus, labels) where labels[d] is the
    planted topic of document d.
    """
    rng = np.random.Generator(np.random.PCG64(seed))
    V = 2 * vocab_per_topic
    vocabulary = [f"word{i:03d}" for i in range(V)]
    pools = (list(range(vocab_per_topic)), list(range(vocab_per_topic, V)))
    docs, labels = [], []
    for d in range(n_docs):
        lab = d % 2
        own, other = pools[lab], pools[1 - lab]
        doc = [int(rng.choice(other)) if rng.random() < noise
               else int(rng.choice(own)) for _ in range(doc_len)]
        docs.append(doc)
        labels.append(lab)
    return _corpus(vocabulary, docs), labels


def topic_purity(state, labels) -> float:
    """Best-matching purity of majority document topics vs planted labels."""
    assign = []
    for d, zd in enumerate(state.z):
        counts = [0] * state.K
        for k in zd:
            counts[k] += 1
        assign.append(max(range(state.K), key=lambda k: (counts[k], -k)))
    n = len(labels)
    direct = sum(1 for a, l in zip(assign, labels) if a == l)
    flipped = sum(1 for a, l in zip(assign, labels) if a == 1 - l)
    return max(direct, flipped) / n


def must_link_corpus(n_docs: int = 60, doc_len: int = 12, vocab_size: int = 24,
                     seed: int = 0):
    """Corpus where words 0 and 1 occur in disjoint document sets.

    Without constraints the two words land in different topics; a must-link
    between them should pull them into one topic's top ranks.  Words 0/1 ride
    on two otherwise-distinct background vocabularies.
    """
    rng = np.random.Generator(np.random.PCG64(seed))
    vocabulary = [f"word{i:03d}" for i in range(vocab_size)]
    half = (vocab_size - 2) // 2
    poolA = list(range(2, 2 + half))
    poolB = list(range(2 + half, vocab_size))
    docs = []
    for d in range(n_docs):
        if d % 2 == 0:
            doc = [0] * 3 + [int(rng.choice(poolA)) for _ in range(doc_len - 3)]
        else:
            doc = [1] * 3 + [int(rng.choice(poolB)) for _ in range(doc_len - 3)]
        docs.append(doc)
    return _corpus(vocabulary, docs)


def cannot_link_corpus(n_docs: int = 40, doc_len: int = 10,
                       vocab_size: int = 24, seed: int = 0):
    """Corpus where words 0 and 1 co-occur in every document.

    Each document carries a 3:2 imbalance between the two words (majority
    word alternating with the document's background pool), so unconstrained
    LDA tends to keep both in one topic's top ranks while a cannot-link can
    drain the minority word out of each topic.  Evaluate with alpha around
    4.5 and several hundred sweeps.
    """
    rng = np.random.Generator(np.random.PCG64(seed))
    vocabulary = [f"word{i:03d}" for i in range(vocab_size)]
    half = (vocab_size - 2) // 2
    poolA = list(range(2, 2 + half))
    poolB = list(range(2 + half, vocab_size))
    docs = []
    for d in range(n_docs):
        if d % 2 == 0:
            head, pool = [0, 0, 0, 1, 1], poolA
        else:
            head, pool = [1, 1, 1, 0, 0], poolB
        doc = head + [int(rng.choice(pool)) for _ in range(doc_len - 5)]
        docs.append(doc)
    return _corpus(vocabulary, docs)


# --- naive reasoner oracle --------------------------------------------------


def naive_closure(o: Ontology) -> frozenset:
    """Least fixpoint of the inference rules by brute repetition."""
    dom, rng_, inv, sup_p = {}, {}, {}, {}
    sym, trans = set(), set()
    facts = set()
    for ax in o.axioms:
        if isinstance(ax, ObjectPropertyDomain) and isinstance(ax.cls, Name):
            dom[ax.prop] = ax.cls
        elif isinstance(ax, ObjectPropertyRange) and isinstance(ax.cls, Name):
            rng_[ax.prop] = ax.cls
        elif isinstance(ax, InverseObjectProperties):
            inv.setdefault(ax.a, set()).add(ax.b)
            inv.setdefault(ax.b, set()).add(ax.a)
        elif isinstance(ax, SubObjectPropertyOf):
            sup_p.setdefault(ax.sub, set()).add(ax.sup)
        elif isinstance(ax, PropertyCharacteristic):
            if ax.characteristic is Characteristic.SYMMETRIC:
                sym.add(ax.prop)
            elif ax.characteristic is Characteristic.TRANSITIVE:
                trans.add(ax.prop)
        elif isinstance(ax, SubClassOf) and isinstance(ax.sup, Name):
            subs = (ax.sub,) if isinstance(ax.sub, Name) else ax.sub.members
            for s in subs:
                if s != ax.sup:
                    facts.add(Sub(s, ax.sup))
        elif isinstance(ax, EquivalentClasses):
            a, b = ax.a, ax.b
            if isinstance(a, Name) and isinstance(b, Name):
                facts.add(Sub(a, b))
                facts.add(Sub(b, a))
            elif isinstance(a, Name) and isinstance(b, UnionOf):
                facts.update(Sub(m, a) for m in b.members if m != a)
            elif isinstance(b, Name) and isinstance(a, UnionOf):
                facts.update(Sub(m, b) for m in a.members if m != b)
        elif isinstance(ax, DisjointUnion):
            facts.update(Sub(p, ax.whole) for p in ax.parts if p != ax.whole)
        elif isinstance(ax, ClassAssertion) and isinstance(ax.cls, Name):
            facts.add(IsA(ax.individual, ax.cls))
        elif isinstance(ax, ObjectPropertyAssertion):
            facts.add(Rel(ax.prop, ax.subject, ax.object))

    while True:
        new = set()
        subs = [f for f in facts if isinstance(f, Sub)]
        isas = [f for f in facts if isinstance(f, IsA)]
        rels = [f for f in facts if isinstance(f, Rel)]
        for f in subs:
            for g in subs:
                if f.sup == g.sub and f.sub != g.sup:
                    new.add(Sub(f.sub, g.sup))
        for f in isas:
            for g in subs:
                if f.cls == g.sub:
                    new.add(IsA(f.individual, g.sup))
        for f in rels:
            if f.prop in dom:
                new.add(IsA(f.subject, dom[f.prop]))
            if f.prop in rng_:
                new.add(IsA(f.object, rng_[f.prop]))
            for q in inv.get(f.prop, ()):
                new.add(Rel(q, f.object, f.subject))
            if f.prop in sym:
                new.add(Rel(f.prop, f.object, f.subject))
            for q in sup_p.get(f.prop, ()):
                new.add(Rel(q, f.subject, f.object))
            if f.prop in trans:
                for g in rels:
                    if g.prop == f.prop and f.object == g.subject:
                        new.add(Rel(f.prop, f.subject, g.object))
        if new <= facts:
            return frozenset(facts)
        facts |= new


# --- modularity oracles -----------------------------------------------------


def modularity_oracle(adj: dict, assignment: dict) -> float:
    """Pairwise-sum modularity (self-loops count twice toward degree)."""
    nodes = sorted(adj)
    a = {(u, v): 0.0 for u in nodes for v in nodes}
    for u in nodes:
        for v, w in adj[u].items():
            a[(u, v)] = 2.0 * w if u == v else w
    two_m = sum(a.values())
    if two_m == 0.0:
        return 0.0
    k = {u: sum(a[(u, v)] for v in nodes) for u in nodes}
    q = 0.0
    for u in nodes:
        for v in nodes:
            if assignment[u] == assignment[v]:
                q += a[(u, v)] - k[u] * k[v] / two_m
    return q / two_m


def _set_partitions(items):
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for part in _set_partitions(rest):
        for i in range(len(part)):
            yield part[:i] + [[first] + part[i]] + part[i + 1:]
        yield [[first]] + part


def brute_force_best_partition(adj: dict):
    """Exhaustive max-modularity search; fine for graphs of <= 8 nodes."""
    nodes = sorted(adj)
    assert len(nodes) <= 8
    best_q, best = float("-inf"), None
    for part in _set_partitions(nodes):
        assignment = {}
        for cid, group in enumerate(part):
            for u in group:
                assignment[u] = cid
        q = modularity_oracle(adj, assignment)
        if q > best_q:
            best_q, best = q, assignment
    return best_q, best


def random_graph(rnd: random.Random, max_n: int = 50) -> dict:
    """Random weighted undirected adjacency dict (possibly disconnected)."""
    n = rnd.randint(1, max_n)
    adj = {i: {} for i in range(n)}
    for u, v in combinations(range(n), 2):
        if rnd.random() < min(1.0, 3.0 / n):
            w = rnd.choice((1.0, 1.0, 2.0, 0.5))
            adj[u][v] = w
            adj[v][u] = w
    if rnd.random() < 0.2:
        u = rnd.randrange(n)
        adj[u][u] = 1.0
    return adj


# --- Louvain on adjacency dicts ---------------------------------------------


def concept_graph(adj: dict):
    """``adj`` (``adj[u][v]`` the weight of edge u-v) as a ConceptGraph with
    each edge written once, and a map from its node names back to ``adj``'s
    keys.  Node ``u`` is ``n{i:04d}``, ``i`` its place in ``sorted(adj)``."""
    names = {u: Name("", f"n{i:04d}") for i, u in enumerate(sorted(adj))}
    g = ConceptGraph(
        nodes=tuple(GraphNode(name, "class", "") for name in names.values()),
        edges=tuple(GraphEdge(names[u], names[v], "subclass", w)
                    for u in names for v, w in adj[u].items()
                    if names[u] <= names[v]))
    return g, {name: u for u, name in names.items()}


def louvain(adj: dict, seed: int):
    """Louvain as :func:`graphmap.cluster` runs it, on ``adj``: the
    assignment by ``adj``'s keys, and each phase's modularity."""
    g, key = concept_graph(adj)
    assignment, history = graphmap._louvain(*graphmap._project(g), seed)
    return {key[name]: c for name, c in assignment.items()}, history
