import pytest

from ontomap.model import (
    Characteristic,
    OntologyError,
    ClassAssertion,
    DisjointClasses,
    EntityKind,
    EquivalentClasses,
    InverseObjectProperties,
    KindMismatch,
    Label,
    Literal,
    Name,
    Ontology,
    PropertyCharacteristic,
    SubClassOf,
    SubObjectPropertyOf,
    UndeclaredEntity,
    UnionOf,
    add_axiom,
    build_lexicon,
    check_axiom,
    compute_metrics,
    split_camel,
)


def C(local):
    return Name("", local)


def test_name_validation_and_order():
    assert str(C("Obesity")) == ":Obesity"
    assert C("A") < C("B")
    with pytest.raises(OntologyError):
        Name("", "")
    with pytest.raises(OntologyError):
        Name("", "has space")


def test_unionof_sorts_and_requires_two_members():
    u = UnionOf((C("B"), C("A")))
    assert u.members == (C("A"), C("B"))
    with pytest.raises(OntologyError):
        UnionOf((C("A"),))
    with pytest.raises(OntologyError):
        UnionOf((C("A"), C("A")))


def test_literal_datatype_checked():
    Literal("30.0", "xsd:decimal")
    with pytest.raises(OntologyError):
        Literal("x", "xsd:float")


def test_normalizing_constructors():
    assert EquivalentClasses(C("B"), C("A")) == EquivalentClasses(C("A"), C("B"))
    assert DisjointClasses((C("B"), C("A"))).classes == (C("A"), C("B"))
    assert InverseObjectProperties(C("q"), C("p")) == \
        InverseObjectProperties(C("p"), C("q"))


def base_ontology():
    o = Ontology(ontology_id="http://example.org/t",
                 prefixes=(("", "http://example.org/t#"),))
    o = o.declare(C("A"), EntityKind.CLASS)
    o = o.declare(C("B"), EntityKind.CLASS)
    o = o.declare(C("p"), EntityKind.OBJECT_PROPERTY)
    o = o.declare(C("x"), EntityKind.INDIVIDUAL)
    return o


def test_ontology_equality_ignores_axiom_order_and_prefixes():
    o = base_ontology()
    a1, a2 = SubClassOf(C("A"), C("B")), ClassAssertion(C("A"), C("x"))
    left = add_axiom(add_axiom(o, a1), a2)
    right = add_axiom(add_axiom(o, a2), a1)
    assert left == right
    import dataclasses
    assert left == dataclasses.replace(right, prefixes=())


def test_add_axiom_deduplicates():
    o = base_ontology()
    ax = SubClassOf(C("A"), C("B"))
    o1 = add_axiom(o, ax)
    assert add_axiom(o1, ax) is o1


def test_check_axiom_rejects_undeclared_and_wrong_kind():
    o = base_ontology()
    with pytest.raises(UndeclaredEntity):
        check_axiom(o, SubClassOf(C("A"), C("Missing")))
    with pytest.raises(KindMismatch):
        check_axiom(o, SubClassOf(C("A"), C("p")))


def test_punning_allows_two_kinds_for_one_name():
    o = base_ontology().declare(C("A"), EntityKind.INDIVIDUAL)
    assert o.kinds_of(C("A")) == {EntityKind.CLASS, EntityKind.INDIVIDUAL}
    check_axiom(o, ClassAssertion(C("B"), C("A")))


def test_fixture_metrics(fixture_ontology):
    rows = compute_metrics(fixture_ontology)
    assert rows["Axiom"] == 109
    assert rows["Logical axiom count"] == 55
    assert rows["Declaration axioms count"] == 44
    assert rows["Annotation axiom count"] == 10
    assert rows["Class count"] == 20
    assert rows["Object property count"] == 6
    assert rows["Data property count"] == 1
    assert rows["Individual count"] == 17
    assert rows["DL expressivity"] == "SR(D)"
    assert rows["SubClassOf"] == 6
    assert rows["ClassAssertion"] == 15
    assert rows["ObjectPropertyAssertion"] == 15
    assert rows["IrreflexiveObjectProperty"] == 1


def test_empty_ontology_metrics():
    rows = compute_metrics(Ontology())
    assert rows["Axiom"] == 0
    assert rows["Class count"] == 0
    assert rows["DL expressivity"] == "S"


def test_expressivity_letters():
    def expressivity(o):
        return compute_metrics(o)["DL expressivity"]

    o = base_ontology().declare(C("q"), EntityKind.OBJECT_PROPERTY)
    assert expressivity(o) == "S"
    o1 = add_axiom(o, PropertyCharacteristic(C("p"), Characteristic.IRREFLEXIVE))
    assert expressivity(o1) == "SR"
    o2 = add_axiom(o1, InverseObjectProperties(C("p"), C("q")))
    assert expressivity(o2) == "SRI"
    o3 = add_axiom(o2, PropertyCharacteristic(C("p"), Characteristic.FUNCTIONAL))
    assert expressivity(o3) == "SRIF"
    o4 = o3.declare(C("d"), EntityKind.DATA_PROPERTY)
    assert expressivity(o4) == "SRIF(D)"
    o5 = add_axiom(o, SubObjectPropertyOf(C("p"), C("q")))
    assert expressivity(o5) == "SR"
    o6 = add_axiom(o, PropertyCharacteristic(C("p"), Characteristic.ASYMMETRIC))
    assert expressivity(o6) == "SR"
    o7 = add_axiom(o, PropertyCharacteristic(C("p"),
                                             Characteristic.INVERSE_FUNCTIONAL))
    assert expressivity(o7) == "SF"


def test_split_camel():
    assert split_camel("LowCarbohydrateDiet") == ["low", "carbohydrate", "diet"]
    assert split_camel("Type2Diabetes") == ["type", "2", "diabetes"]
    assert split_camel("BMIValue") == ["bmi", "value"]


def test_build_lexicon_uses_labels_and_stopwords():
    o = base_ontology()
    o = add_axiom(o, Label(C("A"), "the body mass index"))
    o = add_axiom(o, Label(C("B"), "Of THE"))
    o = o.declare(C("Because"), EntityKind.CLASS)
    lex = build_lexicon(o)
    assert lex[C("A")] == {"body", "mass", "index"}  # "a" is a stopword
    assert lex[C("B")] == {"b"}  # labels are lower-cased before the list
    assert C("Because") not in lex  # a lone stopword token empties out


def test_fixture_lexicon_has_expected_tokens(fixture_ontology):
    lex = build_lexicon(fixture_ontology)
    assert {"low", "carbohydrate", "diet"} <= lex[C("LowCarbohydrateDiet")]
    assert "obesity" in lex[C("Obesity")]
