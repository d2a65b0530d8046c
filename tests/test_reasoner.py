import hashlib
import random
import time
from dataclasses import dataclass, replace
from itertools import combinations

import pytest

from helpers import naive_closure, random_ontology, random_reasoner_ontology
from ontomap import graphmap
from ontomap.model import (
    Characteristic,
    ClassAssertion,
    DisjointClasses,
    DisjointUnion,
    EntityKind,
    InverseObjectProperties,
    Name,
    ObjectPropertyAssertion,
    ObjectPropertyDomain,
    ObjectPropertyRange,
    Ontology,
    PropertyCharacteristic,
    SubClassOf,
    SubObjectPropertyOf,
    UndeclaredEntity,
    UnionOf,
    add_axiom,
)
from ontomap.reasoner import (
    Derivation,
    ExplanationNode,
    InferredStore,
    IsA,
    Rel,
    Sub,
    UnknownFact,
    Violation,
    classify,
    explain,
    instances_of,
    saturate,
)


def N(local):
    return Name("", local)


def tiny(classes=(), props=(), individuals=(), axioms=()):
    o = Ontology(ontology_id="http://example.org/t",
                 prefixes=(("", "http://example.org/t#"),))
    for c in classes:
        o = o.declare(N(c), EntityKind.CLASS)
    for p in props:
        o = o.declare(N(p), EntityKind.OBJECT_PROPERTY)
    for i in individuals:
        o = o.declare(N(i), EntityKind.INDIVIDUAL)
    for ax in axioms:
        o = add_axiom(o, ax)
    return o


# --- fixture-level checks ---------------------------------------------------


def test_fixture_has_no_violations(fixture_store):
    assert fixture_store.violations == ()


def test_fixture_key_inferences(fixture_store):
    assert IsA(N("Obesity"), N("MedicalCondition")) in fixture_store.facts
    assert IsA(N("AbdominalPain"), N("Manifestation")) in fixture_store.facts


def test_fixture_instances_of_treatment(fixture_store):
    got = instances_of(fixture_store, N("Treatment"))
    named = {N("LowCalorieDiet"), N("LowCarbohydrateDiet"),
             N("LowFatDiet"), N("Liraglutide"), N("PhysicalActivity"),
             N("RouxEnYGastricBypass"), N("BehaviouralTherapy")}
    assert got == named


def test_fixture_instances_of_medical_condition(fixture_store):
    got = instances_of(fixture_store, N("MedicalCondition"))
    assert got == {N("Hernia"), N("Hypoglycemia"), N("NightEatingSyndrome"),
                   N("Obesity"), N("Type2Diabetes")}


def test_instances_of_matches_fact_scan_on_random_ontologies():
    rnd = random.Random(31)
    answered = 0
    for _ in range(40):
        store = saturate(random_ontology(rnd))
        for c in store.ontology.names_of_kind(EntityKind.CLASS):
            scan = {f.individual for f in store.facts
                    if isinstance(f, IsA) and f.cls == c}
            assert instances_of(store, c) == scan
            answered += bool(scan)
    assert answered > 20


def test_instances_of_undeclared_class_raises(fixture_store):
    with pytest.raises(UndeclaredEntity):
        instances_of(fixture_store, N("NoSuchClass"))


def test_explain_returns_premise_tree(fixture_store):
    fact = IsA(N("Obesity"), N("MedicalCondition"))
    node = explain(fixture_store, fact)
    assert node.fact == fact
    assert node.rule != "asserted"
    leaves = node.leaves()
    assert all(l.rule == "asserted" or l.rule in ("R2", "R3", "R3b")
               for l in leaves)
    with pytest.raises(UnknownFact):
        explain(fixture_store, IsA(N("Obesity"), N("Symptom")))


def test_classify_transitive_reduction(fixture_store):
    tax = classify(fixture_store)
    supers = tax.direct_supers[N("Disease")]
    assert N("PathologicalCondition") in supers
    assert N("MedicalCondition") not in supers  # indirect, reduced away


def test_classify_matches_brute_force_reduction_of_naive_closure():
    for seed in range(200):
        o = random_reasoner_ontology(random.Random(seed))
        tax = classify(saturate(o))
        below = {(f.sub, f.sup) for f in naive_closure(o) if isinstance(f, Sub)}
        classes = sorted(o.names_of_kind(EntityKind.CLASS))

        def strictly_below(a, b):
            return (a, b) in below and (b, a) not in below

        for c in classes:
            expected = {d for d in classes
                        if strictly_below(c, d)
                        and not any(strictly_below(c, e)
                                    and strictly_below(e, d)
                                    for e in classes)}
            assert tax.direct_supers[c] == expected, (seed, c)
        groups = {frozenset({c} | {d for d in classes if (c, d) in below
                                   and (d, c) in below})
                  for c in classes}
        assert set(tax.merged_groups) == {g for g in groups if len(g) > 1}, \
            seed


# --- rule-by-rule unit checks -----------------------------------------------


def test_inverse_and_symmetric_and_subproperty():
    o = tiny(props=["p", "q", "r", "s"], individuals=["a", "b"],
             axioms=[InverseObjectProperties(N("p"), N("q")),
                     PropertyCharacteristic(N("r"), Characteristic.SYMMETRIC),
                     SubObjectPropertyOf(N("p"), N("s")),
                     ObjectPropertyAssertion(N("p"), N("a"), N("b")),
                     ObjectPropertyAssertion(N("r"), N("a"), N("b"))])
    store = saturate(o)
    assert Rel(N("q"), N("b"), N("a")) in store.facts
    assert Rel(N("r"), N("b"), N("a")) in store.facts
    assert Rel(N("s"), N("a"), N("b")) in store.facts


def test_transitive_chain():
    o = tiny(props=["p"], individuals=["a", "b", "c", "d"],
             axioms=[PropertyCharacteristic(N("p"), Characteristic.TRANSITIVE),
                     ObjectPropertyAssertion(N("p"), N("a"), N("b")),
                     ObjectPropertyAssertion(N("p"), N("b"), N("c")),
                     ObjectPropertyAssertion(N("p"), N("c"), N("d"))])
    store = saturate(o)
    assert Rel(N("p"), N("a"), N("d")) in store.facts


def test_union_domain_yields_no_membership():
    o = tiny(classes=["A", "B"], props=["p"], individuals=["x", "y"],
             axioms=[ObjectPropertyDomain(
                         N("p"), UnionOf((N("A"), N("B")))),
                     ObjectPropertyAssertion(N("p"), N("x"), N("y"))])
    store = saturate(o)
    assert not any(isinstance(f, IsA) for f in store.facts)


def test_subclass_transitivity_and_membership_propagation():
    o = tiny(classes=["A", "B", "C"], individuals=["x"],
             axioms=[SubClassOf(N("A"), N("B")), SubClassOf(N("B"), N("C")),
                     ClassAssertion(N("A"), N("x"))])
    store = saturate(o)
    assert Sub(N("A"), N("C")) in store.facts
    assert IsA(N("x"), N("C")) in store.facts


# --- violations -------------------------------------------------------------


def test_injected_irreflexive_loop(fixture_ontology):
    o = add_axiom(fixture_ontology,
                  ObjectPropertyAssertion(N("medCondMayLeadToMedCond"),
                                          N("Obesity"), N("Obesity")))
    store = saturate(o)
    loops = [v for v in store.violations if v.kind == "IrreflexiveLoop"]
    assert len(loops) == 1
    assert N("Obesity") in loops[0].involved


def test_injected_disjoint_membership(fixture_ontology):
    o = add_axiom(fixture_ontology,
                  ClassAssertion(N("Medication"), N("LowCalorieDiet")))
    store = saturate(o)
    hits = [v for v in store.violations if v.kind == "DisjointMembership"]
    assert len(hits) == 1
    assert set(hits[0].involved) == {N("LowCalorieDiet"), N("Diet"),
                                     N("Medication")}


def test_asymmetry_breach():
    o = tiny(props=["p"], individuals=["a", "b"],
             axioms=[PropertyCharacteristic(N("p"), Characteristic.ASYMMETRIC),
                     ObjectPropertyAssertion(N("p"), N("a"), N("b")),
                     ObjectPropertyAssertion(N("p"), N("b"), N("a"))])
    store = saturate(o)
    assert [v.kind for v in store.violations] == ["AsymmetryBreach"]


def test_functional_fanout():
    o = tiny(props=["p"], individuals=["a", "b", "c"],
             axioms=[PropertyCharacteristic(N("p"), Characteristic.FUNCTIONAL),
                     ObjectPropertyAssertion(N("p"), N("a"), N("b")),
                     ObjectPropertyAssertion(N("p"), N("a"), N("c"))])
    store = saturate(o)
    assert [v.kind for v in store.violations] == ["FunctionalFanout"]


def test_unsatisfiable_class():
    o = tiny(classes=["A", "B", "X"],
             axioms=[DisjointClasses((N("A"), N("B"))),
                     SubClassOf(N("X"), N("A")), SubClassOf(N("X"), N("B"))])
    store = saturate(o)
    assert [v.kind for v in store.violations] == ["UnsatisfiableClass"]


def test_strict_mode_flags_unentailed_domain_memberships():
    o = tiny(classes=["A"], props=["p"], individuals=["x", "y"],
             axioms=[ObjectPropertyDomain(N("p"), N("A")),
                     ObjectPropertyAssertion(N("p"), N("x"), N("y"))])
    assert saturate(o).violations == ()
    strict = saturate(o, strict=True)
    kinds = [v.kind for v in strict.violations]
    assert kinds == ["StrictDomainRange"]
    # membership also asserted -> entailed without the domain rule -> clean
    o2 = add_axiom(o, ClassAssertion(N("A"), N("x")))
    assert saturate(o2, strict=True).violations == ()


def test_strict_violations_are_the_domain_range_facts_the_oracle_lacks():
    # the oracle closes each ontology again with its domain and range
    # axioms removed; strict mode flags exactly the R5/R6 facts it lacks
    ontologies = [random_reasoner_ontology(random.Random(s))
                  for s in range(100)]
    ontologies += [random_ontology(random.Random(s)) for s in range(100)]
    for o in ontologies:
        store = saturate(o, strict=True)
        base = naive_closure(replace(o, axioms=tuple(
            ax for ax in o.axioms if not isinstance(
                ax, (ObjectPropertyDomain, ObjectPropertyRange)))))
        expected = sorted(
            (Violation("StrictDomainRange", (f.individual, f.cls),
                       d.premises + (f,))
             for f, d in store.derivations.items()
             if d.rule in ("R5", "R6") and f not in base),
            key=lambda v: tuple(map(str, v.involved)))
        assert [v for v in store.violations
                if v.kind == "StrictDomainRange"] == expected


# --- oracle spot check (full 500-run sweep lives in the acceptance tests) ---


def test_matches_naive_oracle_small_batch():
    rnd = random.Random(99)
    for _ in range(40):
        o = random_reasoner_ontology(rnd)
        assert saturate(o).facts == naive_closure(o)


# --- axiom order: equal ontologies give equal results ----------------------


def test_every_domain_and_range_axiom_fires():
    o = tiny(classes=["A", "B"], props=["p"], individuals=["x", "y"],
             axioms=[ObjectPropertyDomain(N("p"), N("A")),
                     ObjectPropertyDomain(N("p"), N("B")),
                     ObjectPropertyRange(N("p"), N("A")),
                     ObjectPropertyRange(N("p"), N("B")),
                     ObjectPropertyAssertion(N("p"), N("x"), N("y"))])
    isa = {f for f in saturate(o).facts if isinstance(f, IsA)}
    assert isa == {IsA(N(a), N(c)) for a in "xy" for c in "AB"}


def test_results_do_not_follow_axiom_order(fixture_ontology):
    ontologies = [fixture_ontology]
    ontologies += [random_reasoner_ontology(random.Random(s))
                   for s in range(100)]
    ontologies += [random_ontology(random.Random(s)) for s in range(100)]
    for seed, o in enumerate(ontologies):
        axioms = list(o.axioms)
        random.Random(seed).shuffle(axioms)
        shuffled = replace(o, axioms=tuple(axioms))
        assert shuffled == o and hash(shuffled) == hash(o)
        a, b = saturate(o), saturate(shuffled)
        assert a.facts == b.facts, seed
        assert a.violations == b.violations, seed
        ga = graphmap.build_concept_graph(a, include_individuals=True)
        gb = graphmap.build_concept_graph(b, include_individuals=True)
        for fmt in graphmap.FORMATS:
            assert graphmap.export(ga, None, fmt) == \
                graphmap.export(gb, None, fmt), (seed, fmt)


# --- deep inputs: the joins stay exact and polynomial in depth --------------


def chain(n, members=()):
    """``C{i} < C{i-1}`` for 0 < i < n, an individual ``a{k}`` in each
    ``C{k}`` of ``members``, and the chain's ends disjoint."""
    classes = [f"C{i}" for i in range(n)]
    axioms = [SubClassOf(N(classes[i]), N(classes[i - 1]))
              for i in range(1, n)]
    axioms += [ClassAssertion(N(classes[k]), N(f"a{k}")) for k in members]
    axioms.append(DisjointClasses((N(classes[0]), N(classes[-1]))))
    return tiny(classes=classes, individuals=[f"a{k}" for k in members],
                axioms=axioms)


def binary_tree(depth):
    """Classes ``T1..T(2^(depth+1)-1)`` with ``T{i} < T{i//2}``, and an
    individual in every seventh leaf."""
    ids = range(1, 2 ** (depth + 1))
    leaves = range(2 ** depth, 2 ** (depth + 1), 7)
    axioms = [SubClassOf(N(f"T{i}"), N(f"T{i // 2}")) for i in ids if i > 1]
    axioms += [ClassAssertion(N(f"T{i}"), N(f"t{i}")) for i in leaves]
    return tiny(classes=[f"T{i}" for i in ids],
                individuals=[f"t{i}" for i in leaves], axioms=axioms)


def transitive_path(n):
    """``p`` transitive over the path ``i0 -> i1 -> ... -> i{n-1}``."""
    axioms = [PropertyCharacteristic(N("p"), Characteristic.TRANSITIVE)]
    axioms += [ObjectPropertyAssertion(N("p"), N(f"i{k}"), N(f"i{k + 1}"))
               for k in range(n - 1)]
    return tiny(props=["p"], individuals=[f"i{k}" for k in range(n)],
                axioms=axioms)


@pytest.mark.parametrize("o", [chain(50, (0, 7, 25, 49)), binary_tree(6),
                               transitive_path(40)],
                         ids=["chain50", "tree6", "transitive40"])
def test_matches_naive_oracle_on_deep_inputs(o):
    assert saturate(o).facts == naive_closure(o)


def test_saturate_and_classify_a_300_class_chain_within_6_s():
    # a join of each new Sub fact with every class above and below it is
    # cubic in the chain's length and misses this bound by about ten times
    o = chain(300)
    start = time.perf_counter()
    store = saturate(o)
    tax = classify(store)
    elapsed = time.perf_counter() - start
    assert sum(isinstance(f, Sub) for f in store.facts) == 300 * 299 // 2
    assert all(tax.direct_supers[N(f"C{i}")] == {N(f"C{i - 1}")}
               for i in range(1, 300))
    assert elapsed < 6, elapsed


def _explain_recursively(store, fact):
    der = store.derivations[fact]
    return ExplanationNode(fact, der.rule, tuple(
        _explain_recursively(store, p) for p in der.premises))


def _leaves_recursively(node):
    if not node.premises:
        return [node]
    return [leaf for p in node.premises for leaf in _leaves_recursively(p)]


def test_explain_and_leaves_match_their_recursive_definitions():
    for seed in range(30):
        store = saturate(random_reasoner_ontology(random.Random(seed)))
        for fact in store.facts:
            node = explain(store, fact)
            assert node == _explain_recursively(store, fact)
            assert list(node.leaves()) == _leaves_recursively(node)


@dataclass(frozen=True)
class _GeneratedNode:
    """ExplanationNode's fields with the methods that dataclass generates."""

    __qualname__ = "ExplanationNode"
    fact: object
    rule: str
    premises: tuple


def _generated(node):
    return _GeneratedNode(node.fact, node.rule,
                          tuple(_generated(p) for p in node.premises))


def test_explanation_eq_repr_and_hash_match_the_generated_methods():
    for seed in range(10):
        store = saturate(random_reasoner_ontology(random.Random(seed)))
        facts = sorted(store.facts, key=str)
        nodes = [explain(store, f) for f in facts]
        twins = [_generated(n) for n in nodes]
        for node, twin, fact in zip(nodes, twins, facts):
            assert repr(node) == repr(twin)
            again = explain(store, fact)
            assert node == again and not node != again
            assert hash(node) == hash(again)
        rnd = random.Random(seed)
        for _ in range(50):
            i, j = rnd.randrange(len(nodes)), rnd.randrange(len(nodes))
            assert (nodes[i] == nodes[j]) == (twins[i] == twins[j])
    assert ExplanationNode(Sub(N("A"), N("B")), "asserted", ()) != "x"


def test_explain_and_leaves_on_a_derivation_5000_levels_deep():
    # Sub(Ci, C0) follows from Sub(Ci, Ci-1) and Sub(Ci-1, C0); the tree
    # is far deeper than the interpreter's recursion limit
    depth = 5000
    steps = [Sub(N(f"C{i}"), N(f"C{i - 1}")) for i in range(1, depth + 1)]
    derivations = {f: Derivation(f, "asserted", ()) for f in steps}
    below = steps[0]
    for step in steps[1:]:
        fact = Sub(step.sub, N("C0"))
        derivations[fact] = Derivation(fact, "R1", (step, below))
        below = fact
    store = InferredStore(ontology=tiny(), derivations=derivations,
                          violations=(), isa_by_cls={}, subs_of={})
    root = node = explain(store, below)
    for i in range(depth, 1, -1):
        assert (node.fact, node.rule) == (Sub(N(f"C{i}"), N("C0")), "R1")
        step, node = node.premises
        assert (step.fact, step.rule, step.premises) == (
            steps[i - 1], "asserted", ())
    assert (node.fact, node.rule, node.premises) == (steps[0], "asserted", ())
    assert [leaf.fact for leaf in root.leaves()] == steps[::-1]
    # comparing, hashing and printing walk the whole tree without recursion
    again = explain(store, below)
    assert root == again and hash(root) == hash(again)
    assert repr(root).count("ExplanationNode(") == 2 * depth - 1
    derivations[steps[0]] = Derivation(steps[0], "R2", ())
    assert root != explain(store, below)


# --- digest guard over derivations, violations and the taxonomy -------------


def _strs(items):
    return [str(x) for x in items]


def _disjoint_pairs(o):
    """The class pairs of the disjointness axioms, each pair sorted."""
    pairs = set()
    for ax in o.axioms:
        if isinstance(ax, DisjointClasses):
            pairs.update(combinations(ax.classes, 2))
        elif isinstance(ax, DisjointUnion):
            pairs.update(combinations(ax.parts, 2))
    return pairs


def _store_record(store):
    tax = classify(store)
    return (
        [(str(f), store.derivations[f].rule,
          _strs(store.derivations[f].premises))
         for f in sorted(store.facts, key=str)],
        [(v.kind, _strs(v.involved), _strs(v.witnesses))
         for v in store.violations],
        sorted((str(c), sorted(_strs(m)))
               for c, m in store.isa_by_cls.items()),
        sorted(_strs(pair) for pair in _disjoint_pairs(store.ontology)),
        [(str(c), sorted(_strs(tax.direct_supers[c])),
          sorted(_strs(tax.direct_subs[c])))
         for c in sorted(tax.direct_supers)],
        sorted(sorted(_strs(g)) for g in tax.merged_groups),
    )


def test_saturate_pinned(fixture_ontology):
    # seeds 0-199 of random_ontology reach every violation kind, including
    # the rare AsymmetryBreach (seeds 16, 88 and 136)
    ontologies = [fixture_ontology]
    ontologies += [random_reasoner_ontology(random.Random(s))
                   for s in range(200)]
    ontologies += [random_ontology(random.Random(s)) for s in range(200)]
    out = []
    kinds = set()
    for o in ontologies:
        for strict in (False, True):
            store = saturate(o, strict=strict)
            kinds.update(v.kind for v in store.violations)
            out.append(_store_record(store))
    assert kinds == {"DisjointMembership", "IrreflexiveLoop",
                     "AsymmetryBreach", "FunctionalFanout",
                     "UnsatisfiableClass", "StrictDomainRange"}
    assert hashlib.sha256(repr(out).encode()).hexdigest() == (
        "29a50472634f2d85b94f866c54474cf28436514cc0a87c5a5d1aaef5839a129c")
