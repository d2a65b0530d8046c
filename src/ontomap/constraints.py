"""Compile ontology axioms into must-link / cannot-link word constraints.

Must-links come from multi-token concept labels; cannot-links from
disjointness axioms.  Conflicts resolve in favor of must-links (the
single-concept signal), pruning the offending cannot-link with a warning.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from itertools import combinations

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

    must = set()
    for tokens in lexicon.values():
        ids = sorted(index[t] for t in tokens if t in index)
        for i, a in enumerate(ids):
            for b in ids[i + 1:]:
                must.add((a, b))

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
    disjoint_groups = []
    for ax in o.axioms:
        if isinstance(ax, DisjointClasses):
            disjoint_groups.append(ax.classes)
        elif isinstance(ax, DisjointUnion):
            disjoint_groups.append(ax.parts)
    for group in disjoint_groups:
        for c, d in combinations(group, 2):
            wc, wd = class_word_ids(c), class_word_ids(d)
            shared = wc & wd
            if shared:
                words = sorted(vocabulary[w] for w in shared)
                log.warning("tokens %s appear on both sides of the "
                            "cannot-link between %s and %s; skipped",
                            words, c, d)
            for a in sorted(wc - shared):
                for b in sorted(wd - shared):
                    cannot.setdefault(_pair(a, b), []).append(f"{c}|{d}")

    # cannot-links joined by the must-link closure are pruned
    find = _union_find(must, len(vocabulary))
    kept_cannot = []
    for (a, b), sources in cannot.items():
        if find(a) == find(b):
            log.warning("cannot-link %s/%s joined by the must-link closure; "
                        "pruned (from %s)", vocabulary[a], vocabulary[b],
                        sources)
        else:
            kept_cannot.append((a, b))
    return ConstraintSet(must_links=tuple(sorted(must)),
                         cannot_links=tuple(sorted(kept_cannot)))
