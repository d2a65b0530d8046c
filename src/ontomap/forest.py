"""Dirichlet forest prior encoding must-link / cannot-link constraints.

Must-link closure components share a high-weight internal node (root edge
``|M| * beta``, leaf edges ``eta * beta``).  Components connected by
cannot-links form regions; each maximal clique of the region's complement
graph yields one candidate branch per topic, with out-of-clique words
attached directly under the branch root at the suppressed weight
``epsilon * beta``.  Unconstrained words sit under the global root with
weight ``beta``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import islice

from .constraints import ConstraintSet, _union_find


class TooManyCliques(Exception):
    pass


class ConflictingConstraints(Exception):
    pass


@dataclass(frozen=True)
class Region:
    """Connected group of components with at least one cannot-link edge."""

    component_ids: tuple      # indices into DirichletForest.components
    words: tuple              # all word ids in the region, sorted
    cliques: tuple            # per branch: tuple of component ids


@dataclass(frozen=True)
class DirichletForest:
    vocab_size: int
    beta: float
    eta: float
    epsilon: float
    components: tuple         # tuples of word ids; multi-word or in-region
    regions: tuple            # of Region

    @property
    def is_flat(self) -> bool:
        return not self.components and not self.regions

    @cached_property
    def sampling_index(self) -> "SamplingIndex":
        """The sampler's static view of this forest, built once."""
        return SamplingIndex(self)

    def component_of(self) -> dict:
        out = {}
        for i, comp in enumerate(self.components):
            for w in comp:
                out[w] = i
        return out


class SamplingIndex:
    """Static sampling structure derived from a DirichletForest."""

    def __init__(self, forest: DirichletForest):
        beta, eta, eps = forest.beta, forest.eta, forest.epsilon
        self.eta_beta = eta * beta
        self.eps_beta = eps * beta
        self.comp_size = [len(c) for c in forest.components]
        # per word: component and region id, -1 for none
        comp_of = forest.component_of()
        self.comp_of = [comp_of.get(w, -1) for w in range(forest.vocab_size)]
        self.region_of = [-1] * forest.vocab_size
        for r, region in enumerate(forest.regions):
            for w in region.words:
                self.region_of[w] = r
        # per component: the static terms of the must-link node's weights
        self.size_beta = [n * beta for n in self.comp_size]
        self.size_eta_beta = [n * self.eta_beta for n in self.comp_size]
        # per region: root edge weight (constant across branches)
        self.region_gamma = [beta * len(reg.words) for reg in forest.regions]
        # branch j of region r is branch_offset[r] + j; per branch, the gamma
        # total of the branch root's children, and a byte per component, 1
        # for those in the branch's clique (a region may have 128 branches)
        self.branch_offset = []
        self.branch_gamma = []
        member = bytearray()
        for region in forest.regions:
            self.branch_offset.append(len(self.branch_gamma))
            total_words = len(region.words)
            for clique in region.cliques:
                in_words = sum(self.comp_size[m] for m in clique)
                self.branch_gamma.append(
                    beta * in_words + self.eps_beta * (total_words - in_words))
                row = bytearray(len(self.comp_size))
                for m in clique:
                    row[m] = 1
                member += row
        self.member = bytes(member)


def maximal_cliques(n: int, edges: set) -> list:
    """Deterministic Bron-Kerbosch with pivoting over vertices 0..n-1.

    ``edges`` holds undirected pairs (a, b), a < b.  Cliques come out sorted,
    in lexicographic order.
    """
    return sorted(_bron_kerbosch(n, edges))


def _bron_kerbosch(n: int, edges: set):
    """Yield the maximal cliques one at a time, each as a sorted tuple, so a
    caller can stop once it has seen enough of them."""
    adj = {i: set() for i in range(n)}
    for a, b in edges:
        adj[a].add(b)
        adj[b].add(a)

    def expand(r, p, x):
        if not p and not x:
            yield tuple(sorted(r))
            return
        pivot = max(sorted(p | x), key=lambda u: len(adj[u] & p))
        for v in sorted(p - adj[pivot]):
            yield from expand(r | {v}, p & adj[v], x & adj[v])
            p = p - {v}
            x = x | {v}

    return expand(set(), set(range(n)), set())


def build_forest(cs: ConstraintSet, vocabulary, beta: float = 0.01,
                 eta: float = 100.0, epsilon: float = 1e-6,
                 max_cliques: int = 128) -> DirichletForest:
    if beta <= 0:
        raise ValueError("beta must be positive")
    if eta < 1:
        raise ValueError("eta must be >= 1")
    if not 0 < epsilon <= 1:
        raise ValueError("epsilon must lie in (0, 1]")
    n_words = len(vocabulary)

    # (1) must-link closure components
    find = _union_find(cs.must_links, n_words)
    members: dict = {}
    for w in range(n_words):
        members.setdefault(find(w), []).append(w)
    components = sorted(tuple(ws) for ws in members.values() if len(ws) > 1)

    # (2) cannot-link graph over units: a word's unit is the index of its
    # multi-word component, else n_comps + w, so units order like the
    # components followed by the lone words
    n_comps = len(components)
    unit = list(range(n_comps, n_comps + n_words))
    for i, comp in enumerate(components):
        for w in comp:
            unit[w] = i
    cl_edges = set()
    for a, b in cs.cannot_links:
        ua, ub = unit[a], unit[b]
        if ua == ub:
            raise ConflictingConstraints(
                f"cannot-link inside a must-link component: "
                f"{vocabulary[a]}/{vocabulary[b]}")
        cl_edges.add((min(ua, ub), max(ua, ub)))

    # connected components of the cannot-link graph = regions, keyed by
    # their least unit; a lone word becomes a component when first met
    find = _union_find(cl_edges, n_comps + n_words)
    region_edges: dict = {}
    for a, b in cl_edges:
        region_edges.setdefault(find(a), []).append((a, b))
    regions = []
    for root in sorted(region_edges):
        edges = region_edges[root]
        units = sorted({u for e in edges for u in e})
        ids = []
        for u in units:
            if u < n_comps:
                ids.append(u)
            else:
                ids.append(len(components))
                components.append((u - n_comps,))
        local = {u: j for j, u in enumerate(units)}
        # complement graph of the cannot-link edges within the region
        forbidden = {(local[a], local[b]) for a, b in edges}
        comp_edges = {(i, j) for i in range(len(units))
                      for j in range(i + 1, len(units))
                      if (i, j) not in forbidden}
        # stop the enumeration one past the budget: a region's clique count
        # can grow exponentially with its size
        cliques = sorted(islice(_bron_kerbosch(len(units), comp_edges),
                                max_cliques + 1))
        if len(cliques) > max_cliques:
            raise TooManyCliques(
                f"region has more than {max_cliques} branches; "
                f"thin the constraint set")
        regions.append(Region(
            component_ids=tuple(ids),
            words=tuple(sorted(w for m in ids for w in components[m])),
            cliques=tuple(tuple(ids[j] for j in cl) for cl in cliques),
        ))

    return DirichletForest(
        vocab_size=n_words,
        beta=beta,
        eta=eta,
        epsilon=epsilon,
        components=tuple(components),
        regions=tuple(regions),
    )


def flat_forest(vocab_size: int, beta: float) -> DirichletForest:
    """Degenerate forest: every word directly under the root with weight beta."""
    return DirichletForest(vocab_size=vocab_size, beta=beta, eta=1.0,
                           epsilon=1.0, components=(), regions=())
