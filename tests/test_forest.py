import hashlib
import random
import time
from itertools import combinations

import pytest

from ontomap import forest
from ontomap.constraints import ConstraintSet
from ontomap.forest import (
    ConflictingConstraints,
    TooManyCliques,
    build_forest,
    flat_forest,
)


def cs(must=(), cannot=()):
    return ConstraintSet(must_links=tuple(must), cannot_links=tuple(cannot))


VOCAB = tuple(f"w{i}" for i in range(8))


def test_flat_forest_is_flat():
    f = flat_forest(8, 0.01)
    assert f.is_flat
    assert build_forest(cs(), VOCAB).is_flat


def test_must_links_merge_into_components():
    f = build_forest(cs(must=[(0, 1), (1, 2), (4, 5)]), VOCAB)
    assert f.components == ((0, 1, 2), (4, 5))
    assert f.regions == ()
    assert f.sampling_index.comp_of == [0, 0, 0, -1, 1, 1, -1, -1]


def test_cannot_link_builds_region_with_two_branches():
    f = build_forest(cs(cannot=[(0, 1)]), VOCAB)
    assert len(f.regions) == 1
    region = f.regions[0]
    assert region.words == (0, 1)
    assert len(region.cliques) == 2  # each side alone


def test_mixed_constraints():
    f = build_forest(cs(must=[(0, 1)], cannot=[(0, 2)]), VOCAB)
    region = f.regions[0]
    assert region.words == (0, 1, 2)
    cliques = {tuple(sorted(f.components[m] for m in cl))
               for cl in region.cliques}
    assert cliques == {((0, 1),), ((2,),)}


def test_compatible_components_share_a_branch():
    # 0-1 forbidden, 2 compatible with both -> branches {0,2} and {1,2}
    f = build_forest(cs(cannot=[(0, 1), (0, 2), (1, 2)]), VOCAB)
    region = f.regions[0]
    assert len(region.cliques) == 3
    f2 = build_forest(cs(cannot=[(0, 1)], must=[(2, 3)]), VOCAB)
    assert len(f2.regions[0].cliques) == 2  # comp {2,3} not in the region


def test_conflicting_constraints_rejected():
    with pytest.raises(ConflictingConstraints):
        build_forest(cs(must=[(0, 1)], cannot=[(0, 1)]), VOCAB)


def test_too_many_cliques():
    # complete cannot-link bipartite-free structure with many branches:
    # pairwise cannot among 9 singletons -> 9 branches > max_cliques=8
    pairs = [(i, j) for i in range(9) for j in range(i + 1, 9)]
    with pytest.raises(TooManyCliques):
        build_forest(cs(cannot=pairs), tuple(f"v{i}" for i in range(9)),
                     max_cliques=8)


def test_clique_budget_stops_the_enumeration():
    # a cannot-link path of n words has about 1.32 ** n maximal cliques in
    # its complement; at n = 60, some 10 ** 7, enumerating them all takes
    # minutes and gigabytes
    n = 60
    path = [(i, i + 1) for i in range(n - 1)]
    t = time.perf_counter()
    with pytest.raises(TooManyCliques, match="more than 128 branches"):
        build_forest(cs(cannot=path), tuple(f"v{i}" for i in range(n)))
    assert time.perf_counter() - t < 5


def test_hyperparameter_validation():
    with pytest.raises(ValueError):
        build_forest(cs(), VOCAB, beta=0.0)
    with pytest.raises(ValueError):
        build_forest(cs(), VOCAB, eta=0.5)
    with pytest.raises(ValueError):
        build_forest(cs(), VOCAB, epsilon=0.0)


def test_maximal_cliques_deterministic():
    edges = {(0, 1), (1, 2), (0, 2), (2, 3)}
    got = sorted(forest._bron_kerbosch(4, edges))
    assert got == [(0, 1, 2), (2, 3)]
    assert sorted(forest._bron_kerbosch(4, edges)) == got


def test_maximal_cliques_empty_graph_gives_singletons():
    assert sorted(forest._bron_kerbosch(3, set())) == [(0,), (1,), (2,)]


def test_maximal_cliques_match_networkx():
    nx = pytest.importorskip("networkx")
    rnd = random.Random(3)
    for _ in range(200):
        n = rnd.randint(1, 12)
        edges = {e for e in combinations(range(n), 2) if rnd.random() < 0.5}
        g = nx.Graph(edges)
        g.add_nodes_from(range(n))
        want = sorted(tuple(sorted(c)) for c in nx.find_cliques(g))
        assert sorted(forest._bron_kerbosch(n, edges)) == want


def _random_constraints(rnd):
    n = rnd.randint(2, 14)
    pairs = list(combinations(range(n), 2))
    must = rnd.sample(pairs, rnd.randint(0, min(4, len(pairs))))
    cannot = rnd.sample(pairs, rnd.randint(0, min(8, len(pairs))))
    return n, cs(sorted(must), sorted(cannot))


def test_build_forest_pinned():
    # components, regions and the sampling index over random constraint
    # sets; conflicts and over-budget regions pin their message instead
    rnd = random.Random(5)
    out = []
    for _ in range(300):
        n, constraints = _random_constraints(rnd)
        try:
            f = build_forest(constraints, tuple(f"w{i}" for i in range(n)),
                             max_cliques=4)
        except (ConflictingConstraints, TooManyCliques) as exc:
            out.append(f"{type(exc).__name__}: {exc}")
            continue
        index = f.sampling_index
        out.append((f.components, f.regions, index.comp_of, index.region_of))
    assert hashlib.sha256(repr(out).encode()).hexdigest() == (
        "024db02f1388dcddc9d84e37a0447b1edad64e485857ed333a54106b526898ee")
