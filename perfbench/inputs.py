"""Seeded input generators for the benchmark.

These write `.ofn` and TSV text directly and never import ontomap, so a
change to the program cannot change what the benchmark feeds it.  Every
generator takes a `random.Random`; callers seed it from a string (which
Python hashes with SHA-512, independent of PYTHONHASHSEED), so one seed
gives the same bytes on every run and machine.
"""

from __future__ import annotations

import random
import re

# Words for rdfs:labels; labels are two or three words so that graph
# exports carry multi-word text.
_ADJECTIVES = ("acute", "chronic", "primary", "secondary", "dietary",
               "clinical", "renal", "hepatic", "minor", "severe", "early",
               "late", "mixed", "focal", "basal", "dorsal")
_NOUNS = ("disorder", "marker", "therapy", "nutrient", "symptom", "region",
          "process", "agent", "pathway", "measure", "finding", "tissue",
          "factor", "device", "regimen", "outcome")


def ontology_text(rnd: random.Random, target_axioms: int,
                  iri: str = "http://bench.example.org/kb"):
    """A sized ontology in functional syntax; returns (text, counts).

    Modelled on the reasoner test generator, scaled up:
    - n_classes = target/10 classes in a random recursive subclass tree
      (each class's parent is uniform among earlier classes, so depth grows
      like ln n and the Sub closure stays near n ln n);
    - about one DisjointClasses axiom per six classes, between siblings;
    - n_individuals = target/4.5 individuals, each with one class
      assertion (30 % get a second);
    - one transitive property whose assertions form chains of four
      individuals, so its closure is at most six facts per chain;
    - one symmetric property on random pairs, and an inverse pair
      (`treats` / `treatedBy`) whose `treats` is a sub-property of
      `relatedTo` and has a domain and range;
    - typed data property assertions (xsd:decimal, xsd:integer,
      xsd:string with quotes and backslashes to exercise escaping);
    - an rdfs:label on every class and on half the individuals.

    The closure stays roughly linear in the input: no property is both
    transitive and symmetric, and transitive chains are short.  `counts`
    holds the number of axioms (declarations excluded), classes and
    individuals.
    """
    n_classes = max(8, target_axioms // 10)
    n_inds = max(8, int(target_axioms / 4.5))
    classes = [f"C{i}" for i in range(n_classes)]
    inds = [f"i{i}" for i in range(n_inds)]
    obj_props = ("locatedIn", "near", "treats", "treatedBy", "relatedTo")
    data_props = ("weight", "count", "code")

    axioms = []
    seen = set()

    def add(line):
        if line not in seen:
            seen.add(line)
            axioms.append(line)

    children = {}
    for i in range(1, n_classes):
        parent = rnd.randrange(i)
        children.setdefault(parent, []).append(i)
        add(f"SubClassOf(:C{i} :C{parent})")
    for parent in sorted(children):
        kids = children[parent]
        if len(kids) >= 2 and rnd.random() < 0.5:
            a, b = rnd.sample(kids, 2)
            add(f"DisjointClasses(:C{min(a, b)} :C{max(a, b)})")

    add("TransitiveObjectProperty(:locatedIn)")
    add("SymmetricObjectProperty(:near)")
    add("InverseObjectProperties(:treats :treatedBy)")
    add("SubObjectPropertyOf(:treats :relatedTo)")
    dom, rng = rnd.sample(classes[1:], 2)
    add(f"ObjectPropertyDomain(:treats :{dom})")
    add(f"ObjectPropertyRange(:treats :{rng})")
    add(f"DataPropertyDomain(:weight :{rnd.choice(classes)})")
    add("DataPropertyRange(:weight xsd:decimal)")
    add("DataPropertyRange(:count xsd:integer)")
    add("DataPropertyRange(:code xsd:string)")

    for ind in inds:
        add(f"ClassAssertion(:{rnd.choice(classes)} :{ind})")
        if rnd.random() < 0.3:
            add(f"ClassAssertion(:{rnd.choice(classes)} :{ind})")
    for g in range(0, n_inds - 3, 4):
        if rnd.random() < 0.6:
            for j in range(g, g + 3):
                add(f"ObjectPropertyAssertion(:locatedIn :i{j} :i{j + 1})")
    for _ in range(int(0.3 * n_inds)):
        a, b = rnd.sample(inds, 2)
        add(f"ObjectPropertyAssertion(:near :{a} :{b})")
    for _ in range(int(0.4 * n_inds)):
        a, b = rnd.sample(inds, 2)
        add(f"ObjectPropertyAssertion(:treats :{a} :{b})")
    for ind in inds:
        r = rnd.random()
        if r < 0.2:
            add(f'DataPropertyAssertion(:weight :{ind} '
                f'"{rnd.randint(1, 999)}.{rnd.randint(0, 99):02d}"^^xsd:decimal)')
        elif r < 0.35:
            add(f'DataPropertyAssertion(:count :{ind} '
                f'"{rnd.randint(-50, 500)}"^^xsd:integer)')
        elif r < 0.5:
            add(f'DataPropertyAssertion(:code :{ind} '
                f'"lot \\"{rnd.randint(0, 99)}\\" \\\\ {ind}")')

    for c in classes:
        add(f'AnnotationAssertion(rdfs:label :{c} "{_label(rnd)}")')
    for ind in inds:
        if rnd.random() < 0.5:
            add(f'AnnotationAssertion(rdfs:label :{ind} "{_label(rnd)}")')

    lines = [f"Prefix(:=<{iri}#>)", f"Ontology(<{iri}>"]
    lines += [f"Declaration(Class(:{c}))" for c in classes]
    lines += [f"Declaration(ObjectProperty(:{p}))" for p in obj_props]
    lines += [f"Declaration(DataProperty(:{p}))" for p in data_props]
    lines += [f"Declaration(NamedIndividual(:{i}))" for i in inds]
    lines += axioms
    lines.append(")")
    counts = {"axioms": len(axioms), "classes": n_classes,
              "individuals": n_inds}
    return "\n".join(lines) + "\n", counts


def _label(rnd):
    words = [rnd.choice(_ADJECTIVES), rnd.choice(_NOUNS)]
    if rnd.random() < 0.3:
        words.insert(0, rnd.choice(_ADJECTIVES))
    return " ".join(words)


def planted_corpus_tsv(rnd: random.Random, n_topics: int, n_docs: int,
                       doc_len: int, words_per_topic: int,
                       noise: float = 0.1):
    """TSV corpus with `n_topics` disjoint planted vocabularies.

    Word `t{k}w{i}` belongs to topic k.  Each document draws 80 % of its
    non-noise tokens from a primary topic and 20 % from a secondary one; a
    `noise` share comes from the whole vocabulary.
    """
    vocab = [[f"t{k:02d}w{i:03d}" for i in range(words_per_topic)]
             for k in range(n_topics)]
    flat = [w for ws in vocab for w in ws]
    lines = []
    for d in range(n_docs):
        primary, secondary = rnd.sample(range(n_topics), 2)
        words = []
        for _ in range(doc_len):
            r = rnd.random()
            if r < noise:
                words.append(rnd.choice(flat))
            elif r < noise + (1 - noise) * 0.8:
                words.append(rnd.choice(vocab[primary]))
            else:
                words.append(rnd.choice(vocab[secondary]))
        lines.append(f"doc{d:04d}\t{' '.join(words)}")
    return "\n".join(lines) + "\n"


_LABEL_RE = re.compile(r'AnnotationAssertion\(rdfs:label :(\w+) "([^"]*)"\)')
_DECL_RE = re.compile(r"Declaration\((?:Class|NamedIndividual)\(:(\w+)\)\)")
_CAMEL_RE = re.compile(r"[A-Z]+(?![a-z])|[A-Z]?[a-z]+|\d+")
_SYLLABLES = ("ka", "lo", "mi", "ne", "ru", "sa", "ti", "vo", "ze", "pa",
              "qu", "ba")


def concept_phrases(ofn_text: str):
    """Word groups naming the fixture's classes and individuals.

    Read from the ontology text with regular expressions (no ontomap):
    each declared class or individual gives the camel-case words of its
    local name, and each rdfs:label gives its words.  Words shorter than
    three letters are dropped, as corpus ingestion drops them.
    """
    phrases = set()
    for local in _DECL_RE.findall(ofn_text):
        words = tuple(w.lower() for w in _CAMEL_RE.findall(local))
        phrases.add(tuple(w for w in words if len(w) >= 3))
    for _, text in _LABEL_RE.findall(ofn_text):
        words = re.findall(r"[a-z0-9]+", text.lower())
        phrases.add(tuple(w for w in words if len(w) >= 3))
    return sorted(p for p in phrases if p)


def fixture_corpus_tsv(rnd: random.Random, phrases, n_docs: int,
                       doc_len: int, n_fillers: int):
    """TSV corpus over the fixture's concept words plus filler words.

    Each document repeats the words of two or three concept phrases (so
    multi-word labels co-occur and yield must-links, and disjoint classes'
    words occur in the corpus and yield cannot-links) and fills the rest
    with pseudo-words built from a fixed syllable list.
    """
    fillers = sorted({rnd.choice(_SYLLABLES) + rnd.choice(_SYLLABLES)
                      + rnd.choice(_SYLLABLES) for _ in range(n_fillers * 3)})
    fillers = fillers[:n_fillers]
    lines = []
    for d in range(n_docs):
        chosen = rnd.sample(phrases, rnd.randint(2, 3))
        words = []
        while len(words) < doc_len // 2:
            words.extend(rnd.choice(chosen))
        while len(words) < doc_len:
            words.append(rnd.choice(fillers))
        rnd.shuffle(words)
        lines.append(f"d{d:04d}\t{' '.join(words)}")
    return "\n".join(lines) + "\n"
