import hashlib
import random
import time

import pytest

from helpers import random_ontology
from ontomap import ofn
from ontomap.model import EntityKind, Name, SubClassOf

HEADER = """Prefix(:=<http://example.org/t#>)
Ontology(<http://example.org/t>
"""


def parse_doc(body):
    return ofn.parse(HEADER + body + "\n)\n")


def codes(result):
    return [d.code for d in result.diagnostics]


def test_fixture_parses_clean(fixture_path):
    result = ofn.parse_file(fixture_path)
    assert result.ontology is not None
    assert [d for d in result.diagnostics if d.severity == "error"] == []


def test_fixture_round_trip_and_fixpoint(fixture_path):
    first = ofn.parse_file(fixture_path).ontology
    text = ofn.serialize(first)
    second = ofn.parse(text).ontology
    assert second == first
    assert ofn.serialize(second) == text


def test_comments_ignored():
    result = parse_doc("# a comment line\nDeclaration(Class(:A))")
    assert result.ontology is not None
    assert result.ontology.is_declared(Name("", "A"), EntityKind.CLASS)


def test_arity_error():
    result = parse_doc("Declaration(Class(:A))\nSubClassOf(:A :A :A)")
    assert result.ontology is None
    assert "arity" in codes(result)


def test_missing_argument_is_syntax_error():
    result = parse_doc("Declaration(Class(:A))\nSubClassOf(:A)")
    assert result.ontology is None
    assert "syntax" in codes(result)


def test_unknown_keyword():
    result = parse_doc("FancyAxiom(:A :B)")
    assert result.ontology is None
    assert "unknown-keyword" in codes(result)


def test_undeclared_reference():
    result = parse_doc("Declaration(Class(:A))\nSubClassOf(:A :Missing)")
    assert result.ontology is None
    assert "undeclared" in codes(result)


def test_kind_mismatch():
    result = parse_doc(
        "Declaration(Class(:A))\nDeclaration(ObjectProperty(:p))\n"
        "SubClassOf(:A :p)")
    assert result.ontology is None
    assert "kind-mismatch" in codes(result)


def test_reference_diagnostics_follow_reference_order_with_spans():
    # references before their declarations, punned :x (class and
    # individual), a union member and an annotation subject
    result = parse_doc(
        "SubClassOf(:A :Missing)\n"
        "ClassAssertion(:p :x)\n"
        "Declaration(Class(:A))\n"
        "Declaration(ObjectProperty(:p))\n"
        "Declaration(Class(:x))\n"
        "Declaration(NamedIndividual(:x))\n"
        "ClassAssertion(:x :x)\n"
        "ObjectPropertyAssertion(:p :x :Nope)\n"
        "SubClassOf(:x ObjectUnionOf(:A :p))\n"
        'AnnotationAssertion(rdfs:label :Gone "g")\n'
        "FancyAxiom(:A)")
    assert result.ontology is None
    assert [(str(d), d.span.length) for d in result.diagnostics] == [
        ("error:13:1:unknown-keyword:unknown axiom keyword 'FancyAxiom'", 10),
        ("error:3:15:undeclared::Missing is not declared", 8),
        ("error:4:16:kind-mismatch::p is not declared as Class", 2),
        ("error:10:31:undeclared::Nope is not declared", 5),
        ("error:11:32:kind-mismatch::p is not declared as Class", 2),
        ("error:12:32:undeclared::Gone is not declared", 5),
    ]


def test_unterminated_string():
    result = parse_doc(
        'Declaration(DataProperty(:d))\nDeclaration(NamedIndividual(:x))\n'
        'DataPropertyAssertion(:d :x "oops)')
    assert result.ontology is None
    assert "unterminated" in codes(result)


def test_bad_datatype():
    result = parse_doc(
        'Declaration(DataProperty(:d))\nDeclaration(NamedIndividual(:x))\n'
        'DataPropertyAssertion(:d :x "1"^^xsd:float)')
    assert result.ontology is None
    assert "datatype" in codes(result)


def test_non_label_annotations_dropped_with_warning():
    result = parse_doc(
        "Declaration(Class(:A))\n"
        'AnnotationAssertion(rdfs:comment :A "note")')
    assert result.ontology is not None
    assert "annotation-dropped" in codes(result)
    assert result.ontology.labels() == {}


def test_recovery_reports_multiple_errors():
    result = parse_doc(
        "Declaration(Class(:A))\n"
        "SubClassOf(:A)\n"
        "FancyAxiom(:A)\n"
        "SubClassOf(:A :A :A)")
    errors = [d for d in result.diagnostics if d.severity == "error"]
    assert len(errors) >= 3
    assert result.ontology is None


def test_diagnostic_string_format():
    result = parse_doc("FancyAxiom(:A)")
    line = str(result.diagnostics[0])
    severity, lineno, col, code, _message = line.split(":", 4)
    assert severity == "error"
    assert lineno.isdigit() and col.isdigit()
    assert code == "unknown-keyword"


def test_duplicate_axioms_collapse():
    result = parse_doc(
        "Declaration(Class(:A))\nDeclaration(Class(:B))\n"
        "SubClassOf(:A :B)\nSubClassOf(:A :B)")
    o = result.ontology
    assert o.axioms.count(SubClassOf(Name("", "A"), Name("", "B"))) == 1


def test_serializer_orders_canonically():
    rnd = random.Random(7)
    o = random_ontology(rnd)
    text = ofn.serialize(o)
    lines = [ln for ln in text.splitlines() if ln.startswith("Declaration(")]
    assert lines == sorted(
        lines, key=lambda ln: (["Class", "ObjectProperty", "DataProperty",
                                "NamedIndividual"].index(
                                    ln.split("(")[1]), ln))


def test_random_round_trip_small_batch():
    rnd = random.Random(123)
    for _ in range(25):
        o = random_ontology(rnd)
        text = ofn.serialize(o)
        result = ofn.parse(text)
        assert result.ontology == o, text
        assert ofn.serialize(result.ontology) == text


def test_slot_and_arity_diagnostics_pin_messages_and_spans():
    # one malformed axiom per line: every argument slot's "expected <noun>"
    # message, the arity messages, a dropped annotation whose warning comes
    # before the arity error of the same axiom, and a file cut off mid-axiom
    result = ofn.parse(HEADER +
        "Declaration(Class(:A))\n"
        "Declaration(Class(:B))\n"
        "Declaration(ObjectProperty(:p))\n"
        "Declaration(DataProperty(:d))\n"
        "Declaration(NamedIndividual(:x))\n"
        'SubClassOf(:A "s")\n'
        "DisjointClasses(:A Thing)\n"
        'DisjointUnion("w" :A :B)\n'
        "ObjectPropertyDomain(ex: :A)\n"
        "DataPropertyDomain(Thing :A)\n"
        'DataPropertyRange(:d "x")\n'
        "DataPropertyRange(:d xsd:float)\n"
        "ClassAssertion(:A)\n"
        "ObjectPropertyAssertion(:p :x)\n"
        "DataPropertyAssertion(:d :x :B)\n"
        'DataPropertyAssertion(:d :x "1"^^"t")\n'
        'AnnotationAssertion("p" :A "u")\n'
        'AnnotationAssertion(rdfs:label "t" "u")\n'
        "AnnotationAssertion(rdfs:label :A :B)\n"
        "DisjointClasses(:A :A)\n"
        "DisjointUnion(:A :B)\n"
        "SubClassOf(ObjectUnionOf(:A :A) :B)\n"
        'SubClassOf(ObjectUnionOf(:A "z") :B)\n'
        "SubClassOf(:A :B :A)\n"
        'AnnotationAssertion(rdfs:comment :A "n" :B)\n'
        "SubClassOf(:A")
    assert result.ontology is None
    assert [(str(d), d.span.length) for d in result.diagnostics] == [
        ("error:8:15:syntax:expected class expression, found '\"s\"'", 3),
        ("error:9:20:syntax:expected class name, found keyword 'Thing'", 5),
        ("error:10:15:syntax:expected class name, found '\"w\"'", 3),
        ("error:11:22:syntax:expected object property, "
         "found bare prefix 'ex:'", 3),
        ("error:12:20:syntax:expected data property, found keyword 'Thing'",
         5),
        ("error:13:22:syntax:expected datatype, found '\"x\"'", 3),
        ("error:14:22:datatype:unsupported datatype 'xsd:float'", 9),
        ("error:15:18:syntax:expected individual, found ')'", 1),
        ("error:16:30:syntax:expected individual, found ')'", 1),
        ("error:17:29:syntax:expected literal, found ':B'", 2),
        ("error:18:34:syntax:expected datatype, found '\"t\"'", 3),
        ("error:19:21:syntax:expected annotation property, found '\"p\"'", 3),
        ("error:20:32:syntax:expected annotated entity, found '\"t\"'", 3),
        ("error:21:35:syntax:expected literal, found ':B'", 2),
        ("error:22:1:arity:DisjointClasses needs at least two distinct "
         "classes", 15),
        ("error:23:1:arity:DisjointUnion needs at least two distinct parts",
         13),
        ("error:24:12:arity:ObjectUnionOf needs at least two distinct "
         "classes", 13),
        ("error:25:29:syntax:expected ')' after ObjectUnionOf members", 3),
        ("error:26:18:arity:too many arguments to SubClassOf", 2),
        ("warning:27:21:annotation-dropped:annotation property "
         "'rdfs:comment' is not preserved", 12),
        ("error:27:41:arity:too many arguments to AnnotationAssertion", 2),
        ("error:28:14:syntax:expected class expression, found 'end of file'",
         0),
        ("error:28:14:unterminated:unterminated Ontology(...) block", 0),
    ]


def test_lexical_diagnostics_pin_messages_and_spans():
    # an unterminated string or IRI skips the rest of its line, so the next
    # token read is the first one on the following line
    cases = [
        (HEADER +
         "Declaration(DataProperty(:d))\nDeclaration(NamedIndividual(:x))\n"
         'DataPropertyAssertion(:d :x "oops) (\n  Declaration(Class(:A))\n)\n',
         [("error:5:29:unterminated:unterminated string literal", 1),
          ("error:6:3:syntax:expected literal, found 'Declaration'", 11),
          ("error:8:1:unterminated:unterminated Ontology(...) block", 0)]),
        (HEADER +
         "Declaration(DataProperty(:d))\nDeclaration(NamedIndividual(:x))\n"
         'DataPropertyAssertion(:d :x "oops',
         [("error:5:29:unterminated:unterminated string literal", 1),
          ("error:5:34:syntax:expected literal, found 'end of file'", 0),
          ("error:5:34:unterminated:unterminated Ontology(...) block", 0)]),
        ("Prefix(ex:=<a b>)\n" + HEADER +
         "Declaration(Class(:A))\nSubClassOf(:A <a b> :A)\n"
         "  Declaration(Class(:B))\n)\n",
         [("error:1:12:unterminated:unterminated IRI", 1),
          ("error:5:15:unterminated:unterminated IRI", 1),
          ("error:2:1:syntax:expected prefix IRI, found 'Prefix'", 6),
          ("error:6:3:syntax:expected class expression, "
           "found keyword 'Declaration'", 11),
          ("error:8:1:unterminated:unterminated Ontology(...) block", 0)]),
        (HEADER + "Declaration(Class(:A))\x01\nSubClassOf(:A é :A)!\n)\n",
         [("error:3:23:syntax:unexpected character '\\x01'", 1),
          ("error:4:15:syntax:unexpected character 'é'", 1),
          ("error:4:20:syntax:unexpected character '!'", 1)]),
    ]
    for text, expected in cases:
        result = ofn.parse(text)
        assert result.ontology is None
        assert [(str(d), d.span.length)
                for d in result.diagnostics] == expected, text


_MUTANT_CHARS = '"<>()#=:^\\ \n\t\x01é!aZ_-.'
_MUTANT_LINES = ("  ", "\t\n\n", '# ( "<é\n', "#\n  ")


def _mutate(rnd, text):
    """``text`` after one to three random edits: blank space or a comment
    at the start of a line, inserted characters that the tokenizer treats
    specially, deleted or copied runs, or a cut."""
    for _ in range(rnd.randint(1, 3)):
        i = rnd.randrange(len(text) + 1)
        op = rnd.randrange(10)
        if op < 3:
            i = text.find("\n", i) + 1
            text = text[:i] + rnd.choice(_MUTANT_LINES) + text[i:]
        elif op < 6:
            text = text[:i] + rnd.choice(_MUTANT_CHARS) + text[i:]
        elif op < 8:
            text = text[:i] + text[i + rnd.randint(1, 8):]
        elif op == 8:
            j = rnd.randrange(len(text) + 1)
            text = text[:i] + text[j:j + rnd.randint(1, 12)] + text[i:]
        else:
            text = text[:i]
    return text


def test_parse_of_mutated_inputs_pinned(fixture_path):
    # every diagnostic with its span length, the axioms in order and the
    # serialized ontology of 300 seeded mutants
    fixture = fixture_path.read_text(encoding="utf-8")
    texts = [fixture] * 150
    texts += [ofn.serialize(random_ontology(random.Random(s)))
              for s in range(150)]
    out = []
    for seed, text in enumerate(texts):
        result = ofn.parse(_mutate(random.Random(seed), text))
        out.append([(str(d), d.span.length) for d in result.diagnostics])
        if result.ontology is not None:
            out.append([repr(ax) for ax in result.ontology.axioms])
            out.append(ofn.serialize(result.ontology))
    assert hashlib.sha256(repr(out).encode()).hexdigest() == (
        "b4b9ae68543d9f195556b1ac694f2d5299e4cb21a56315af567d260c626de69d")


def test_tokenizer_is_linear_on_long_runs_of_skipped_text():
    # whitespace and comments folded into a token's match must not
    # backtrack, whatever follows them
    runs = [" " * 50_000, "#\n" * 25_000, "# a b c\n" * 6_250]
    start = time.perf_counter()
    for run in runs:
        for text in (run + "\x01", run, "Ontology(" + run):
            assert ofn.parse(text).errors
    elapsed = time.perf_counter() - start
    assert elapsed < 1, elapsed
