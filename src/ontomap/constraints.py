"""Compile ontology axioms into must-link / cannot-link word constraints.

Must-links come from multi-token concept labels; cannot-links from
disjointness axioms.  Conflicts resolve in favor of must-links (the
single-concept signal), pruning the offending cannot-link with a warning.
"""

from __future__ import annotations

import json
import logging
from dataclasses import dataclass

from .model import (
    ClassAssertion,
    DisjointClasses,
    DisjointUnion,
    Name,
    Ontology,
)

log = logging.getLogger(__name__)


@dataclass(frozen=True)
class ConstraintSet:
    must_links: tuple     # ((w1, w2), ...) word-id pairs, w1 < w2
    cannot_links: tuple
    provenance: dict      # ("must"|"cannot", pair) -> tuple of entity name strings
    warnings: tuple = ()

    def is_empty(self) -> bool:
        return not self.must_links and not self.cannot_links


def _pair(a: int, b: int):
    return (a, b) if a < b else (b, a)


def _union_find(pairs, n):
    """Union the pairs over ids 0..n-1; ``find`` returns a set's least id."""
    parent = list(range(n))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for a, b in pairs:
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[max(ra, rb)] = min(ra, rb)
    return find


def derive_constraints(o: Ontology, lexicon: dict, vocabulary) -> ConstraintSet:
    """MUST-LINK all in-vocabulary token pairs of each multi-token concept;
    CANNOT-LINK cross pairs between the token sets of disjoint classes."""
    index = {w: i for i, w in enumerate(vocabulary)}

    must: dict = {}
    for entity in sorted(lexicon):
        ids = sorted(index[t] for t in lexicon[entity] if t in index)
        if len(ids) < 2:
            continue
        for i, a in enumerate(ids):
            for b in ids[i + 1:]:
                must.setdefault(_pair(a, b), []).append(str(entity))

    # tokens standing for a disjoint class: its own labels plus the labels of
    # its directly asserted instances
    instance_of: dict = {}
    for ax in o.axioms:
        if isinstance(ax, ClassAssertion) and isinstance(ax.cls, Name):
            instance_of.setdefault(ax.cls, []).append(ax.individual)

    def class_word_ids(c: Name):
        tokens = set(lexicon.get(c, ()))
        for ind in instance_of.get(c, ()):
            tokens |= set(lexicon.get(ind, ()))
        return frozenset(index[t] for t in tokens if t in index)

    cannot: dict = {}
    warnings: list = []
    disjoint_groups = []
    for ax in o.axioms:
        if isinstance(ax, DisjointClasses):
            disjoint_groups.append(ax.classes)
        elif isinstance(ax, DisjointUnion):
            disjoint_groups.append(ax.parts)
    for group in disjoint_groups:
        for i, c in enumerate(group):
            for d in group[i + 1:]:
                wc, wd = class_word_ids(c), class_word_ids(d)
                shared = wc & wd
                if shared:
                    words = sorted(vocabulary[w] for w in shared)
                    warnings.append(
                        f"tokens {words} appear on both sides of the "
                        f"cannot-link between {c} and {d}; skipped")
                for a in sorted(wc - shared):
                    for b in sorted(wd - shared):
                        cannot.setdefault(_pair(a, b), []).append(f"{c}|{d}")

    # cannot-links bridged by the must-link closure are pruned
    find = _union_find(must, len(vocabulary))
    kept_cannot = {}
    for pair, sources in cannot.items():
        if pair in must:
            warnings.append(
                f"cannot-link {vocabulary[pair[0]]}/{vocabulary[pair[1]]} "
                f"conflicts with a must-link; pruned (from {sources})")
            continue
        if find(pair[0]) == find(pair[1]):
            warnings.append(
                f"cannot-link {vocabulary[pair[0]]}/{vocabulary[pair[1]]} "
                f"joined by the must-link closure; pruned (from {sources})")
            continue
        kept_cannot[pair] = sources

    for w in warnings:
        log.warning("%s", w)
    provenance = {}
    for pair, sources in must.items():
        provenance[("must", pair)] = tuple(sources)
    for pair, sources in kept_cannot.items():
        provenance[("cannot", pair)] = tuple(sources)
    return ConstraintSet(
        must_links=tuple(sorted(must)),
        cannot_links=tuple(sorted(kept_cannot)),
        provenance=provenance,
        warnings=tuple(warnings),
    )


# --- JSON interchange (word strings, not ids) -------------------------------


def constraints_to_json(cs: ConstraintSet, vocabulary) -> str:
    payload = {
        "must": [[vocabulary[a], vocabulary[b]] for a, b in cs.must_links],
        "cannot": [[vocabulary[a], vocabulary[b]] for a, b in cs.cannot_links],
    }
    return json.dumps(payload, indent=2, sort_keys=True)


def constraints_from_json(text: str, vocabulary) -> ConstraintSet:
    index = {w: i for i, w in enumerate(vocabulary)}
    payload = json.loads(text)
    must = sorted({_pair(index[a], index[b]) for a, b in payload.get("must", [])
                   if a in index and b in index})
    cannot = sorted({_pair(index[a], index[b]) for a, b in payload.get("cannot", [])
                     if a in index and b in index})
    find = _union_find(must, len(vocabulary))
    cannot = [p for p in cannot if find(p[0]) != find(p[1])]
    return ConstraintSet(
        must_links=tuple(must),
        cannot_links=tuple(cannot),
        provenance={},
    )
