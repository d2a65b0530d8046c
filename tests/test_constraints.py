import pytest

from ontomap.constraints import (
    ConstraintSet,
    constraints_from_json,
    constraints_to_json,
    derive_constraints,
)
from ontomap.corpus import DEFAULT_STOPWORDS, ingest_corpus
from ontomap.model import Name, build_lexicon


def N(local):
    return Name("", local)


@pytest.fixture(scope="module")
def fixture_setup(fixture_ontology):
    lexicon = build_lexicon(fixture_ontology, DEFAULT_STOPWORDS)
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


def test_shared_tokens_are_skipped_with_warning(fixture_setup):
    _, vocabulary, cs = fixture_setup
    # DisjointUnion parts :Diet and :Medication both contribute individuals
    # whose labels share "low" (low-calorie diet etc. vs none) - at minimum
    # the closure pruning must have logged anything it removed
    for (a, b) in cs.cannot_links:
        assert a != b


def test_provenance_names_source_entities(fixture_setup):
    _, vocabulary, cs = fixture_setup
    index = {w: i for i, w in enumerate(vocabulary)}
    pair = tuple(sorted((index["medical"], index["sign"])))
    sources = cs.provenance[("must", pair)]
    assert any("MedicalSign" in s for s in sources)


def test_json_round_trip(fixture_setup):
    _, vocabulary, cs = fixture_setup
    text = constraints_to_json(cs, vocabulary)
    back = constraints_from_json(text, vocabulary)
    assert back.must_links == cs.must_links
    assert back.cannot_links == cs.cannot_links


def test_from_json_ignores_out_of_vocab_words(fixture_setup):
    _, vocabulary, _ = fixture_setup
    back = constraints_from_json(
        '{"must": [["diet", "nosuchword"]], "cannot": []}', vocabulary)
    assert back.is_empty()


def test_cannot_links_bridged_by_closure_are_pruned():
    # concept "AlphaBeta" must-links alpha-beta; disjointness tries to
    # cannot-link alpha vs beta via class token sets -> pruned with warning
    from ontomap.model import (
        DisjointClasses, EntityKind, Label, Ontology, add_axiom)
    o = Ontology(ontology_id="http://example.org/t",
                 prefixes=(("", "http://example.org/t#"),))
    for c in ("AlphaBeta", "Alpha", "Beta"):
        o = o.declare(N(c), EntityKind.CLASS)
    o = add_axiom(o, DisjointClasses((N("Alpha"), N("Beta"))))
    lexicon = build_lexicon(o)
    vocabulary = ("alpha", "beta")
    cs = derive_constraints(o, lexicon, vocabulary)
    assert cs.must_links == ((0, 1),)
    assert cs.cannot_links == ()
    assert any("pruned" in w for w in cs.warnings)
