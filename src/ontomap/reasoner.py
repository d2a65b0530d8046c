"""Forward-chaining materialization of ground consequences.

``saturate`` computes the least fixpoint of rules R1-R10 over the ontology's
assertions, keeping one derivation per fact for explanations, then scans the
closure for axiom violations (disjointness breaches, irreflexive loops,
asymmetry breaches, functional fan-out, unsatisfiable classes).  Violations
are collected as data, never raised.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Union

from .model import (
    Characteristic,
    ClassAssertion,
    DisjointClasses,
    DisjointUnion,
    EntityKind,
    EquivalentClasses,
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
    _expr_names,
)


@dataclass(frozen=True)
class IsA:
    individual: Name
    cls: Name

    def __str__(self):
        return f"IsA({self.individual}, {self.cls})"


@dataclass(frozen=True)
class Rel:
    prop: Name
    subject: Name
    object: Name

    def __str__(self):
        return f"Rel({self.prop}, {self.subject}, {self.object})"


@dataclass(frozen=True)
class Sub:
    sub: Name
    sup: Name

    def __str__(self):
        return f"Sub({self.sub}, {self.sup})"


Fact = Union[IsA, Rel, Sub]
_NONE = frozenset()


@dataclass(frozen=True)
class Derivation:
    fact: Fact
    rule: str  # "asserted" or R1..R10 (R3b for equivalence-union members)
    premises: tuple


@dataclass(frozen=True)
class Violation:
    kind: str
    involved: tuple
    witnesses: tuple


@dataclass(frozen=True)
class InferredStore:
    ontology: Ontology
    derivations: dict          # fact -> its first derivation: the fact table
    violations: tuple
    disjoint_pairs: frozenset  # of (Name, Name), sorted pairs
    isa_by_cls: dict           # class -> set of its member individuals
    subs_of: dict              # class -> set of its superclasses (Sub facts)

    @property
    def facts(self):  # a read-only view of the fact table
        return self.derivations.keys()


class UnknownFact(Exception):
    pass


class _Engine:
    """Forward chaining over one fact table and the indexes of its facts.

    ``derivations`` maps each fact to its first derivation, and is the fact
    table.  Indexes, one map per predicate as RDFox keeps them: ``subs_of[A]``
    and ``sups_of[B]`` for ``Sub(A, B)``, ``isa_by_cls[C]`` for ``IsA(a, C)``,
    ``rel_out[p][a]`` and ``rel_in[p][b]`` for ``Rel(p, a, b)``.
    ``props[characteristic]`` holds the properties with that characteristic.
    Every join iterates only the delta, the candidates whose consequence is
    not yet a fact.  It is exact: a skipped ``add`` was a no-op, each ``add``
    of a loop makes a different fact and so cannot make a later candidate new
    or old, and each difference is taken where the full join took its sorted
    snapshot.  Facts, derivations and queue order do not change.
    """

    def __init__(self, o: Ontology):
        self.o = o
        self.derivations: dict = {}
        self.queue: deque = deque()
        self.subs_of: dict = {}
        self.sups_of: dict = {}
        self.isa_by_cls: dict = {}
        self.rel_out: dict = {}
        self.rel_in: dict = {}
        self.domain: dict = {}
        self.range: dict = {}
        self.inverse: dict = {}
        self.superprops: dict = {}
        self.props = {c: set() for c in Characteristic}
        self.disjoint_pairs: set = set()

    def add(self, fact: Fact, rule: str, premises: tuple = ()):
        if fact in self.derivations:
            return
        self.derivations[fact] = Derivation(fact, rule, premises)
        self.queue.append(fact)
        if isinstance(fact, Sub):
            self.subs_of.setdefault(fact.sub, set()).add(fact.sup)
            self.sups_of.setdefault(fact.sup, set()).add(fact.sub)
        elif isinstance(fact, IsA):
            self.isa_by_cls.setdefault(fact.cls, set()).add(fact.individual)
        else:
            p, a, b = fact.prop, fact.subject, fact.object
            self.rel_out.setdefault(p, {}).setdefault(a, set()).add(b)
            self.rel_in.setdefault(p, {}).setdefault(b, set()).add(a)

    def seed(self):
        # no rule fires before run(), so metadata may follow the facts
        for ax in self.o.axioms:
            if isinstance(ax, ObjectPropertyDomain) and isinstance(ax.cls, Name):
                self.domain[ax.prop] = ax.cls
            elif isinstance(ax, ObjectPropertyRange) and isinstance(ax.cls, Name):
                self.range[ax.prop] = ax.cls
            elif isinstance(ax, InverseObjectProperties):
                self.inverse.setdefault(ax.a, set()).add(ax.b)
                self.inverse.setdefault(ax.b, set()).add(ax.a)
            elif isinstance(ax, SubObjectPropertyOf):
                self.superprops.setdefault(ax.sub, set()).add(ax.sup)
            elif isinstance(ax, PropertyCharacteristic):
                self.props[ax.characteristic].add(ax.prop)
            elif isinstance(ax, DisjointClasses):
                for i, c in enumerate(ax.classes):
                    for d in ax.classes[i + 1:]:
                        self.disjoint_pairs.add((min(c, d), max(c, d)))
            elif isinstance(ax, SubClassOf):
                if isinstance(ax.sup, Name):
                    # a union on the left means every member is subsumed
                    for sub in _expr_names(ax.sub):
                        if sub != ax.sup:
                            self.add(Sub(sub, ax.sup), "asserted")
                # named-to-union subsumption is disjunctive: no ground consequence
            elif isinstance(ax, EquivalentClasses):
                a, b = ax.a, ax.b
                if isinstance(a, Name) and isinstance(b, Name):
                    self.add(Sub(a, b), "R2")
                    self.add(Sub(b, a), "R2")
                # a name sorts before a union, so a union is always ``b``
                elif isinstance(a, Name) and isinstance(b, UnionOf):
                    for m in b.members:
                        if m != a:
                            self.add(Sub(m, a), "R3b")
            elif isinstance(ax, DisjointUnion):
                for i, p in enumerate(ax.parts):
                    if p != ax.whole:
                        self.add(Sub(p, ax.whole), "R3")
                    for q in ax.parts[i + 1:]:
                        self.disjoint_pairs.add((min(p, q), max(p, q)))
            elif isinstance(ax, ClassAssertion):
                if isinstance(ax.cls, Name):
                    self.add(IsA(ax.individual, ax.cls), "asserted")
                # union membership is disjunctive: no ground consequence
            elif isinstance(ax, ObjectPropertyAssertion):
                self.add(Rel(ax.prop, ax.subject, ax.object), "asserted")

    def run(self):
        while self.queue:
            fact = self.queue.popleft()
            if isinstance(fact, Sub):
                self._fire_sub(fact)
            elif isinstance(fact, IsA):
                self._fire_isa(fact)
            else:
                self._fire_rel(fact)

    def _fire_sub(self, f: Sub):
        # R1: transitivity, both directions of the join
        for x in sorted(self.sups_of.get(f.sub, _NONE) - self.sups_of[f.sup]):
            if x != f.sup:
                self.add(Sub(x, f.sup), "R1", (Sub(x, f.sub), f))
        for y in sorted(self.subs_of.get(f.sup, _NONE) - self.subs_of[f.sub]):
            if y != f.sub:
                self.add(Sub(f.sub, y), "R1", (f, Sub(f.sup, y)))
        # R4 with existing memberships
        isa = self.isa_by_cls
        for a in sorted(isa.get(f.sub, _NONE) - isa.get(f.sup, _NONE)):
            self.add(IsA(a, f.sup), "R4", (IsA(a, f.sub), f))

    def _fire_isa(self, f: IsA):
        # R4 with existing subsumptions
        for b in sorted(self.subs_of.get(f.cls, ())):
            if f.individual not in self.isa_by_cls.get(b, ()):
                self.add(IsA(f.individual, b), "R4", (f, Sub(f.cls, b)))

    def _fire_rel(self, f: Rel):
        p, a, b = f.prop, f.subject, f.object
        dom = self.domain.get(p)
        if dom is not None:
            self.add(IsA(a, dom), "R5", (f,))
        rng = self.range.get(p)
        if rng is not None:
            self.add(IsA(b, rng), "R6", (f,))
        for q in sorted(self.inverse.get(p, ())):
            self.add(Rel(q, b, a), "R7", (f,))
        if p in self.props[Characteristic.SYMMETRIC]:
            self.add(Rel(p, b, a), "R8", (f,))
        if p in self.props[Characteristic.TRANSITIVE]:
            out, into = self.rel_out[p], self.rel_in[p]
            for c in sorted(out.get(b, _NONE) - out[a]):
                self.add(Rel(p, a, c), "R9", (f, Rel(p, b, c)))
            for x in sorted(into.get(a, _NONE) - into[b]):
                self.add(Rel(p, x, b), "R9", (Rel(p, x, a), f))
        for q in sorted(self.superprops.get(p, ())):
            self.add(Rel(q, a, b), "R10", (f,))

    # -- violation scan (after fixpoint) --

    def collect_violations(self) -> list:
        violations = []
        for c, d in sorted(self.disjoint_pairs):
            both = self.isa_by_cls.get(c, set()) & self.isa_by_cls.get(d, set())
            for a in sorted(both):
                violations.append(Violation(
                    "DisjointMembership", (a, c, d),
                    (IsA(a, c), IsA(a, d))))
        for p in sorted(self.props[Characteristic.IRREFLEXIVE]):
            for a, objs in sorted(self.rel_out.get(p, {}).items()):
                if a in objs:
                    violations.append(Violation(
                        "IrreflexiveLoop", (p, a), (Rel(p, a, a),)))
        for p in sorted(self.props[Characteristic.ASYMMETRIC]):
            out = self.rel_out.get(p, {})
            for a, objs in sorted(out.items()):
                for b in sorted(objs):
                    if a < b and a in out.get(b, ()):
                        violations.append(Violation(
                            "AsymmetryBreach", (p, a, b),
                            (Rel(p, a, b), Rel(p, b, a))))
        for p in sorted(self.props[Characteristic.FUNCTIONAL]):
            for a, objs in sorted(self.rel_out.get(p, {}).items()):
                if len(objs) > 1:
                    targets = tuple(sorted(objs))
                    violations.append(Violation(
                        "FunctionalFanout", (p, a) + targets,
                        tuple(Rel(p, a, b) for b in targets)))
        for p in sorted(self.props[Characteristic.INVERSE_FUNCTIONAL]):
            for b, subjs in sorted(self.rel_in.get(p, {}).items()):
                if len(subjs) > 1:
                    sources = tuple(sorted(subjs))
                    violations.append(Violation(
                        "FunctionalFanout", (p, b) + sources,
                        tuple(Rel(p, a, b) for a in sources)))
        for c, d in sorted(self.disjoint_pairs):
            unsat = self.sups_of.get(c, set()) & self.sups_of.get(d, set())
            for x in sorted(unsat):
                violations.append(Violation(
                    "UnsatisfiableClass", (x, c, d),
                    (Sub(x, c), Sub(x, d))))
        return violations


def saturate(o: Ontology, strict: bool = False) -> InferredStore:
    """Materialize the rule closure and scan it for violations.

    With ``strict`` set, any domain/range-derived membership that is not
    already entailed without R5/R6 is additionally reported as a
    ``StrictDomainRange`` violation (closed-world reading of the constraint).
    """
    engine = _Engine(o)
    engine.seed()
    engine.run()
    violations = engine.collect_violations()
    if strict:
        # Without R5/R6 an individual belongs to its asserted classes and
        # their superclasses only: no rule deriving Sub or Rel reads IsA, and
        # R4 is the only other rule deriving IsA.  So an R5/R6 fact IsA(a, C)
        # is unentailed iff no asserted class of a lies below C (nor is C,
        # else its rule would be "asserted"); no two share a sort key below.
        asserted = {}
        for ax in o.axioms:
            if isinstance(ax, ClassAssertion) and isinstance(ax.cls, Name):
                asserted.setdefault(ax.individual, set()).add(ax.cls)
        for fact, der in engine.derivations.items():
            if der.rule in ("R5", "R6") and asserted.get(
                    fact.individual, _NONE).isdisjoint(
                        engine.sups_of.get(fact.cls, _NONE)):
                violations.append(Violation(
                    "StrictDomainRange", (fact.individual, fact.cls),
                    der.premises + (fact,)))
    violations.sort(key=lambda v: (v.kind, tuple(map(str, v.involved))))
    return InferredStore(
        ontology=o,
        derivations=engine.derivations,
        violations=tuple(violations),
        disjoint_pairs=frozenset(engine.disjoint_pairs),
        isa_by_cls=engine.isa_by_cls,
        subs_of=engine.subs_of,
    )


def instances_of(store: InferredStore, c: Name) -> frozenset:
    """All asserted or derived members of class ``c``."""
    if not store.ontology.is_declared(c, EntityKind.CLASS):
        raise UndeclaredEntity(f"{c} is not a declared class")
    return frozenset(store.isa_by_cls.get(c, ()))


@dataclass(frozen=True)
class ExplanationNode:
    """A fact, its rule and the nodes of its premises.  ``==`` and ``repr``
    give what the generated methods give, but walk with a stack, so a tree of
    any depth compares and prints.  The hash reads the premises' facts."""

    fact: Fact
    rule: str
    premises: tuple

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        stack = [(self, other)]
        while stack:
            a, b = stack.pop()
            if a is b:
                continue
            if (a.fact, a.rule, len(a.premises)) != (
                    b.fact, b.rule, len(b.premises)):
                return False
            stack.extend(zip(a.premises, b.premises))
        return True

    def __hash__(self):
        return hash((self.fact, self.rule,
                     tuple(p.fact for p in self.premises)))

    def __repr__(self):
        out, stack = [], [self]
        while stack:
            item = stack.pop()
            if isinstance(item, str):
                out.append(item)
                continue
            parts = [f"{type(item).__qualname__}(fact={item.fact!r}, "
                     f"rule={item.rule!r}, premises=("]
            for i, p in enumerate(item.premises):
                parts += [", ", p] if i else [p]
            parts.append(",))" if len(item.premises) == 1 else "))")
            stack.extend(reversed(parts))
        return "".join(out)

    def leaves(self):
        out, stack = [], [self]
        while stack:
            node = stack.pop()
            stack.extend(reversed(node.premises))
            if not node.premises:
                out.append(node)
        return tuple(out)


def explain(store: InferredStore, fact: Fact) -> ExplanationNode:
    """Derivation tree for ``fact`` (no recursion); leaves have no premises."""
    if fact not in store.facts:
        raise UnknownFact(str(fact))
    nodes, stack = {}, [fact]
    while stack:
        der = store.derivations[stack[-1]]
        todo = [p for p in der.premises if p not in nodes]
        stack.extend(todo)
        if not todo:  # a fact shared in the DAG keeps its first node
            nodes.setdefault(stack.pop(), ExplanationNode(
                der.fact, der.rule, tuple(nodes[p] for p in der.premises)))
    return nodes[fact]


@dataclass(frozen=True)
class Taxonomy:
    """Direct sub/superclass structure from the transitive reduction."""

    direct_supers: dict
    direct_subs: dict
    merged_groups: tuple  # equivalence cycles, each a frozenset of >=2 names


def classify(store: InferredStore) -> Taxonomy:
    classes = sorted(store.ontology.names_of_kind(EntityKind.CLASS))
    declared = set(classes)
    subs = {c: declared.intersection(store.subs_of.get(c, ())) for c in classes}
    # merge mutually subsuming classes; rep is the least, so it comes first
    group, rep = {}, {}
    for c in classes:
        if c not in group:
            g = frozenset({c} | {d for d in subs[c] if c in subs[d]})
            for m in g:
                group[m], rep[m] = g, c
    edges = {c: set() for c in classes if rep[c] == c}
    for c in classes:
        for d in subs[c]:
            if rep[c] != rep[d]:
                edges[rep[c]].add(rep[d])
    # transitive reduction on the group DAG: Sub facts are closed under R1,
    # so the edges are too, and b is indirect iff it is above another super
    direct_supers = {}
    direct_subs = {c: set() for c in classes}
    for c in classes:
        sups = edges[rep[c]]
        direct_supers[c] = frozenset().union(
            *[group[b] for b in sups.difference(*[edges[x] for x in sups])])
        for s in direct_supers[c]:
            direct_subs[s].add(c)
    return Taxonomy(
        direct_supers=direct_supers,
        direct_subs={c: frozenset(v) for c, v in direct_subs.items()},
        merged_groups=tuple(sorted((group[c] for c in edges
                                    if len(group[c]) > 1), key=sorted)),
    )
