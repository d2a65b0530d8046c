"""In-memory ontology representation: entities, axioms, metrics, lexicon.

An :class:`Ontology` is an immutable value holding entity declarations and a
deduplicated, ordered list of axioms.  Class expressions are restricted to
named classes and flat unions; this is all the bundled domain model needs.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, replace
from enum import Enum
from functools import cached_property
from typing import Optional, Union

from .corpus import DEFAULT_STOPWORDS, _TOKEN_RE

# the name syntax, shared with the parser's tokenizer: a prefix is empty or
# matches PREFIX_PATTERN, as keywords do; a local name matches
# LOCAL_NAME_PATTERN
PREFIX_PATTERN = r"[A-Za-z_][A-Za-z0-9_.-]*"
LOCAL_NAME_PATTERN = r"[A-Za-z_][A-Za-z0-9_-]*"
PREFIX_RE = re.compile(rf"(?:{PREFIX_PATTERN})?\Z")
LOCAL_NAME_RE = re.compile(rf"{LOCAL_NAME_PATTERN}\Z")

DATATYPES = ("xsd:string", "xsd:integer", "xsd:decimal", "xsd:boolean")


class OntologyError(Exception):
    """Base class for ontology construction errors."""


class UndeclaredEntity(OntologyError):
    """An axiom references a name that was never declared."""


class KindMismatch(OntologyError):
    """An entity is used in a position requiring a different kind."""


class EntityKind(Enum):
    CLASS = "Class"
    OBJECT_PROPERTY = "ObjectProperty"
    DATA_PROPERTY = "DataProperty"
    INDIVIDUAL = "NamedIndividual"


class Characteristic(Enum):
    SYMMETRIC = "Symmetric"
    ASYMMETRIC = "Asymmetric"
    TRANSITIVE = "Transitive"
    IRREFLEXIVE = "Irreflexive"
    FUNCTIONAL = "Functional"
    INVERSE_FUNCTIONAL = "InverseFunctional"


@dataclass(frozen=True, order=True)
class Name:
    """A prefixed entity name such as ``:Obesity`` or ``ex:Diet``."""

    prefix: str
    local: str

    def __post_init__(self):
        if not LOCAL_NAME_RE.match(self.local):
            raise OntologyError(f"invalid local name: {self.local!r}")
        if not PREFIX_RE.match(self.prefix):
            raise OntologyError(f"invalid prefix: {self.prefix!r}")

    def __str__(self):
        return f"{self.prefix}:{self.local}"


@dataclass(frozen=True)
class UnionOf:
    """A flat union of at least two distinct named classes."""

    members: tuple[Name, ...]

    def __post_init__(self):
        members = tuple(sorted(set(self.members)))
        if len(members) < 2:
            raise OntologyError("UnionOf needs at least two distinct classes")
        object.__setattr__(self, "members", members)


ClassExpr = Union[Name, UnionOf]


@dataclass(frozen=True)
class Literal:
    lexical: str
    datatype: str = "xsd:string"

    def __post_init__(self):
        if self.datatype not in DATATYPES:
            raise OntologyError(f"unsupported datatype: {self.datatype}")


# --- axioms -----------------------------------------------------------------


@dataclass(frozen=True)
class SubClassOf:
    sub: ClassExpr
    sup: ClassExpr


@dataclass(frozen=True)
class EquivalentClasses:
    a: ClassExpr
    b: ClassExpr

    def __post_init__(self):
        # order of the two expressions carries no meaning; normalize
        a, b = sorted((self.a, self.b), key=_expr_key)
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)


@dataclass(frozen=True)
class DisjointClasses:
    classes: tuple[Name, ...]

    def __post_init__(self):
        classes = tuple(sorted(set(self.classes)))
        if len(classes) < 2:
            raise OntologyError("DisjointClasses needs at least two classes")
        object.__setattr__(self, "classes", classes)


@dataclass(frozen=True)
class DisjointUnion:
    whole: Name
    parts: tuple[Name, ...]

    def __post_init__(self):
        parts = tuple(sorted(set(self.parts)))
        if len(parts) < 2:
            raise OntologyError("DisjointUnion needs at least two parts")
        object.__setattr__(self, "parts", parts)


@dataclass(frozen=True)
class ObjectPropertyDomain:
    prop: Name
    cls: ClassExpr


@dataclass(frozen=True)
class ObjectPropertyRange:
    prop: Name
    cls: ClassExpr


@dataclass(frozen=True)
class DataPropertyDomain:
    prop: Name
    cls: ClassExpr


@dataclass(frozen=True)
class DataPropertyRange:
    prop: Name
    datatype: str

    def __post_init__(self):
        if self.datatype not in DATATYPES:
            raise OntologyError(f"unsupported datatype: {self.datatype}")


@dataclass(frozen=True)
class SubObjectPropertyOf:
    sub: Name
    sup: Name


@dataclass(frozen=True)
class InverseObjectProperties:
    a: Name
    b: Name

    def __post_init__(self):
        a, b = sorted((self.a, self.b))
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)


@dataclass(frozen=True)
class PropertyCharacteristic:
    prop: Name
    characteristic: Characteristic


@dataclass(frozen=True)
class ClassAssertion:
    cls: ClassExpr
    individual: Name


@dataclass(frozen=True)
class ObjectPropertyAssertion:
    prop: Name
    subject: Name
    object: Name


@dataclass(frozen=True)
class DataPropertyAssertion:
    prop: Name
    subject: Name
    value: Literal


@dataclass(frozen=True)
class Label:
    entity: Name
    text: str


Axiom = Union[
    SubClassOf,
    EquivalentClasses,
    DisjointClasses,
    DisjointUnion,
    ObjectPropertyDomain,
    ObjectPropertyRange,
    DataPropertyDomain,
    DataPropertyRange,
    SubObjectPropertyOf,
    InverseObjectProperties,
    PropertyCharacteristic,
    ClassAssertion,
    ObjectPropertyAssertion,
    DataPropertyAssertion,
    Label,
]


def _expr_key(expr: ClassExpr):
    if isinstance(expr, Name):
        return (0, (expr,))
    return (1, expr.members)


def _expr_names(expr: ClassExpr) -> tuple[Name, ...]:
    if isinstance(expr, Name):
        return (expr,)
    return expr.members


# --- axiom table ------------------------------------------------------------
#
# Each axiom type's argument slots in text order, as (field, slot) pairs.  A
# slot is "expr" (a class expression), "classes" (at least two distinct class
# names), "literal", "datatype", "text" (label text, written as a literal),
# or a name slot: (the entity kind it requires, the noun that parse errors
# use), where kind None accepts any declared kind.  The parser, the renderer,
# the signature check and the metrics all read axiom shapes from here.

_CLASS = (EntityKind.CLASS, "class name")
_OBJECT_PROPERTY = (EntityKind.OBJECT_PROPERTY, "object property")
_DATA_PROPERTY = (EntityKind.DATA_PROPERTY, "data property")
_INDIVIDUAL = (EntityKind.INDIVIDUAL, "individual")
_ANY = (None, "annotated entity")

AXIOM_SLOTS = {
    SubClassOf: (("sub", "expr"), ("sup", "expr")),
    EquivalentClasses: (("a", "expr"), ("b", "expr")),
    DisjointClasses: (("classes", "classes"),),
    DisjointUnion: (("whole", _CLASS), ("parts", "classes")),
    ObjectPropertyDomain: (("prop", _OBJECT_PROPERTY), ("cls", "expr")),
    ObjectPropertyRange: (("prop", _OBJECT_PROPERTY), ("cls", "expr")),
    DataPropertyDomain: (("prop", _DATA_PROPERTY), ("cls", "expr")),
    DataPropertyRange: (("prop", _DATA_PROPERTY), ("datatype", "datatype")),
    SubObjectPropertyOf: (("sub", _OBJECT_PROPERTY), ("sup", _OBJECT_PROPERTY)),
    InverseObjectProperties: (("a", _OBJECT_PROPERTY), ("b", _OBJECT_PROPERTY)),
    PropertyCharacteristic: (("prop", _OBJECT_PROPERTY),),
    ClassAssertion: (("cls", "expr"), ("individual", _INDIVIDUAL)),
    ObjectPropertyAssertion: (("prop", _OBJECT_PROPERTY),
                              ("subject", _INDIVIDUAL),
                              ("object", _INDIVIDUAL)),
    DataPropertyAssertion: (("prop", _DATA_PROPERTY), ("subject", _INDIVIDUAL),
                            ("value", "literal")),
    Label: (("entity", _ANY), ("text", "text")),
}


def _keyword(ax_type, characteristic: Optional[Characteristic]) -> str:
    if characteristic is not None:
        return f"{characteristic.value}ObjectProperty"
    return "AnnotationAssertion" if ax_type is Label else ax_type.__name__


def axiom_keyword(ax: Axiom) -> str:
    """The ``.ofn`` keyword of ``ax``, which is also its metrics row name."""
    return _keyword(type(ax), getattr(ax, "characteristic", None))


# keyword -> (axiom type, the fields the keyword fixes), in table order; the
# six characteristic keywords share PropertyCharacteristic
AXIOM_KEYWORDS = {
    _keyword(t, c): (t, {} if c is None else {"characteristic": c})
    for t in AXIOM_SLOTS
    for c in (Characteristic if t is PropertyCharacteristic else (None,))
}


def axiom_signature(ax: Axiom) -> list[tuple[Name, Optional[EntityKind]]]:
    """Referenced names and the entity kind each position requires.

    ``None`` means any declared kind is acceptable (annotation subjects).
    """
    signature = []
    for field, slot in AXIOM_SLOTS[type(ax)]:
        value = getattr(ax, field)
        if slot == "expr":
            signature.extend((n, EntityKind.CLASS) for n in _expr_names(value))
        elif slot == "classes":
            signature.extend((n, EntityKind.CLASS) for n in value)
        elif isinstance(slot, tuple):  # literal, datatype and text name nothing
            signature.append((value, slot[0]))
    return signature


@dataclass(frozen=True, eq=False)
class Ontology:
    """Immutable ontology value.

    ``declarations`` is a set of (name, kind) pairs; a name may be declared
    under more than one kind (class/individual punning), which the bundled
    domain model relies on for class-valued relation targets.  ``prefixes``
    is serialization metadata and does not take part in equality.
    """

    ontology_id: str = ""
    declarations: frozenset = frozenset()
    axioms: tuple = ()
    prefixes: tuple = ()

    def __eq__(self, other):
        if not isinstance(other, Ontology):
            return NotImplemented
        return (
            self.ontology_id == other.ontology_id
            and self.declarations == other.declarations
            and set(self.axioms) == set(other.axioms)
        )

    def __hash__(self):
        return hash((self.ontology_id, self.declarations, frozenset(self.axioms)))

    # -- declaration helpers --

    @cached_property
    def _kinds(self) -> dict:
        """Name -> frozenset of declared kinds, built once per value."""
        kinds: dict[Name, frozenset] = {}
        for n, k in self.declarations:
            kinds[n] = kinds.get(n, frozenset()) | {k}
        return kinds

    def kinds_of(self, name: Name) -> frozenset:
        return self._kinds.get(name, frozenset())

    def is_declared(self, name: Name, kind: Optional[EntityKind] = None) -> bool:
        if kind is None:
            return name in self._kinds
        return kind in self.kinds_of(name)

    def names_of_kind(self, kind: EntityKind) -> set:
        return {n for n, ks in self._kinds.items() if kind in ks}

    def declare(self, name: Name, kind: EntityKind) -> "Ontology":
        return replace(self, declarations=self.declarations | {(name, kind)})

    # -- annotation helpers --

    def labels(self) -> dict:
        """Name -> its label texts, sorted as ``serialize`` writes them."""
        out: dict[Name, list[str]] = {}
        for ax in self.axioms:
            if isinstance(ax, Label):
                out.setdefault(ax.entity, []).append(ax.text)
        return {n: tuple(sorted(ts)) for n, ts in out.items()}


def check_reference(o: Ontology, name: Name,
                    kind: Optional[EntityKind]) -> None:
    """Raise :class:`UndeclaredEntity` / :class:`KindMismatch` unless ``o``
    declares ``name`` as ``kind`` (``None``: as any kind)."""
    kinds = o.kinds_of(name)
    if not kinds:
        raise UndeclaredEntity(f"{name} is not declared")
    if kind is not None and kind not in kinds:
        raise KindMismatch(f"{name} is not declared as {kind.value}")


def check_axiom(o: Ontology, ax: Axiom) -> None:
    """Raise :class:`UndeclaredEntity` / :class:`KindMismatch` when ``ax``
    references names the ontology does not declare appropriately."""
    for name, kind in axiom_signature(ax):
        check_reference(o, name, kind)


def add_axiom(o: Ontology, ax: Axiom) -> Ontology:
    """Return an ontology containing ``ax`` exactly once."""
    check_axiom(o, ax)
    if ax in set(o.axioms):
        return o
    return replace(o, axioms=o.axioms + (ax,))


# --- metrics ----------------------------------------------------------------

AXIOM_TYPE_NAMES = tuple(kw for kw, (t, _) in AXIOM_KEYWORDS.items()
                         if t is not Label)


def compute_metrics(o: Ontology) -> dict:
    """The metrics table as ordered rows, from a single pass over the axioms.

    The totals and entity counts come first, then ``DL expressivity``, then
    one row per logical axiom type in ``AXIOM_TYPE_NAMES`` order.

    The expressivity is a best-effort constructor-letter summary (heuristic,
    documentation only).  Baseline ``S``; ``R`` for role axioms
    (irreflexivity, asymmetry, property hierarchies), ``I`` for inverses,
    ``F`` for (inverse-)functionality, ``(D)`` when data properties are
    declared.  Nominals are unsupported, so ``O`` is never emitted.
    """
    per_type = {name: 0 for name in AXIOM_TYPE_NAMES}
    annotations = 0
    for ax in o.axioms:
        if isinstance(ax, Label):
            annotations += 1
        else:
            per_type[axiom_keyword(ax)] += 1
    logical = sum(per_type.values())
    declarations = len(o.declarations)
    data_properties = len(o.names_of_kind(EntityKind.DATA_PROPERTY))
    expressivity = "S"
    if (per_type["IrreflexiveObjectProperty"]
            or per_type["AsymmetricObjectProperty"]
            or per_type["SubObjectPropertyOf"]):
        expressivity += "R"
    if per_type["InverseObjectProperties"]:
        expressivity += "I"
    if (per_type["FunctionalObjectProperty"]
            or per_type["InverseFunctionalObjectProperty"]):
        expressivity += "F"
    if data_properties:
        expressivity += "(D)"
    return {
        "Axiom": logical + declarations + annotations,
        "Logical axiom count": logical,
        "Declaration axioms count": declarations,
        "Annotation axiom count": annotations,
        "Class count": len(o.names_of_kind(EntityKind.CLASS)),
        "Object property count":
            len(o.names_of_kind(EntityKind.OBJECT_PROPERTY)),
        "Data property count": data_properties,
        "Individual count": len(o.names_of_kind(EntityKind.INDIVIDUAL)),
        "DL expressivity": expressivity,
        **per_type,
    }


# --- concept lexicon --------------------------------------------------------

_CAMEL_RE = re.compile(r"[A-Z]+(?=[A-Z][a-z])|[A-Z]?[a-z]+|[0-9]+|[A-Z]+")


def split_camel(local: str) -> list:
    """``Low-CalorieDiet`` -> ``['low', 'calorie', 'diet']``."""
    return [m.lower() for m in _CAMEL_RE.findall(local)]


def build_lexicon(o: Ontology) -> dict:
    """Map each class/individual to its lowercase label tokens.

    Tokens come from the camel-case-split local name plus the words of every
    ``rdfs:label``, split as corpus text is; ``DEFAULT_STOPWORDS`` are
    dropped.  Entities whose token set empties out are omitted.
    """
    labels = o.labels()
    lexicon = {}
    keys = o.names_of_kind(EntityKind.CLASS) | o.names_of_kind(EntityKind.INDIVIDUAL)
    for name in sorted(keys):
        tokens = set(split_camel(name.local))
        for text in labels.get(name, ()):
            tokens.update(_TOKEN_RE.findall(text.lower()))
        tokens = frozenset(t for t in tokens if t not in DEFAULT_STOPWORDS)
        if tokens:
            lexicon[name] = tokens
    return lexicon
