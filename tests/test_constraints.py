import hashlib
import pathlib
import random
import runpy

import pytest

from helpers import random_reasoner_ontology
from ontomap import ofn
from ontomap.constraints import derive_constraints
from ontomap.model import (
    DisjointClasses,
    EntityKind,
    Name,
    Ontology,
    add_axiom,
    build_lexicon,
)


PERFBENCH = pathlib.Path(__file__).parent.parent / "perfbench"


def N(local):
    return Name("", local)


@pytest.fixture(scope="module")
def fixture_setup(fixture_ontology):
    lexicon = build_lexicon(fixture_ontology)
    tokens = sorted({t for ts in lexicon.values() for t in ts})
    vocabulary = tuple(tokens)
    cs = derive_constraints(fixture_ontology, lexicon, vocabulary)
    return lexicon, vocabulary, cs


def _words(vocabulary, pairs):
    return {(vocabulary[a], vocabulary[b]) for a, b in pairs}


def test_multi_token_concepts_yield_must_links(fixture_setup):
    _, vocabulary, cs = fixture_setup
    must = _words(vocabulary, cs.must_links)
    # :MedicalSign -> medical/sign, :LowCarbohydrateDiet -> pairwise links
    assert ("medical", "sign") in must
    assert ("carbohydrate", "low") in must
    assert ("carbohydrate", "diet") in must


def test_disjoint_classes_yield_cannot_links(fixture_setup):
    _, vocabulary, cs = fixture_setup
    cannot = _words(vocabulary, cs.cannot_links)
    # DisjointClasses(:MedicalSign :Symptom): "sign" vs "symptom"
    assert ("sign", "symptom") in cannot


def test_no_pair_is_both_must_and_cannot(fixture_setup):
    _, _, cs = fixture_setup
    assert not (set(cs.must_links) & set(cs.cannot_links))


def _derive(classes, disjoint):
    """Constraints over every label token of ``classes``, with the classes
    of ``disjoint`` pairwise disjoint."""
    o = Ontology(ontology_id="http://example.org/t",
                 prefixes=(("", "http://example.org/t#"),))
    for c in classes:
        o = o.declare(N(c), EntityKind.CLASS)
    o = add_axiom(o, DisjointClasses(tuple(N(c) for c in disjoint)))
    lexicon = build_lexicon(o)
    vocabulary = tuple(sorted({t for ts in lexicon.values() for t in ts}))
    return vocabulary, derive_constraints(o, lexicon, vocabulary)


def test_shared_tokens_are_skipped_with_warning(caplog):
    vocabulary, cs = _derive(("Alpha", "AlphaBeta"), ("Alpha", "AlphaBeta"))
    assert vocabulary == ("alpha", "beta")
    assert cs.must_links == ((0, 1),)
    assert cs.cannot_links == ()
    assert [r.getMessage() for r in caplog.records] == [
        "tokens ['alpha'] appear on both sides of the cannot-link between "
        ":Alpha and :AlphaBeta; skipped"]


def test_cannot_links_bridged_by_closure_are_pruned(caplog):
    # AlphaBeta must-links alpha-beta; Alpha and Beta are disjoint
    vocabulary, cs = _derive(("AlphaBeta", "Alpha", "Beta"), ("Alpha", "Beta"))
    assert cs.must_links == ((0, 1),)
    assert cs.cannot_links == ()
    # AlphaBeta and BetaGamma must-link alpha-beta and beta-gamma, whose
    # closure joins alpha and gamma
    vocabulary, cs = _derive(("AlphaBeta", "BetaGamma", "Alpha", "Gamma"),
                             ("Alpha", "Gamma"))
    assert vocabulary == ("alpha", "beta", "gamma")
    assert cs.must_links == ((0, 1), (1, 2))
    assert cs.cannot_links == ()
    assert [r.getMessage() for r in caplog.records] == [
        "cannot-link alpha/beta joined by the must-link closure; pruned "
        "(from [':Alpha|:Beta'])",
        "cannot-link alpha/gamma joined by the must-link closure; pruned "
        "(from [':Alpha|:Gamma'])"]


def test_derive_constraints_pinned(fixture_ontology):
    # must- and cannot-links of the fixture, of the benchmark's ontology
    # generator and of random ontologies, exactly
    inputs = runpy.run_path(str(PERFBENCH / "inputs.py"))
    ontologies = [fixture_ontology]
    for k, size in enumerate((300, 900)):
        text, _ = inputs["ontology_text"](random.Random(f"constraints:{k}"),
                                          size)
        ontologies.append(ofn.parse(text).ontology)
    rnd = random.Random(37)
    ontologies += [random_reasoner_ontology(rnd) for _ in range(100)]
    out = []
    for o in ontologies:
        lexicon = build_lexicon(o)
        vocabulary = tuple(sorted({t for ts in lexicon.values() for t in ts}))
        cs = derive_constraints(o, lexicon, vocabulary)
        out.append((cs.must_links, cs.cannot_links))
    assert hashlib.sha256(repr(out).encode()).hexdigest() == (
        "abbbdd21191997ba41e791bd04a8e663269f8d93b60d3aaf6c69876a07a317f9")
