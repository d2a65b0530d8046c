"""End-to-end acceptance checks for the whole toolkit.

Each test pins one externally observable guarantee: round-trip stability of
the serializer, agreement of the inference engine with a brute-force oracle,
fixture-level inferences and violation detection, metrics parity with an
independent counting script, clustering quality and determinism, reduction of
the constrained sampler to flat LDA, topic recovery on planted corpora,
constraint efficacy across many seeds, correctness of the branch sampler
against a closed form, and a full CLI pipeline with schema-valid outputs.
"""

import contextlib
import io
import json
import math
import random
import runpy
import time
from pathlib import Path

import jsonschema
import numpy as np
import pytest

from ontomap import cli, gibbs
from ontomap.constraints import ConstraintSet
from ontomap.forest import build_forest, flat_forest
from ontomap.gibbs import dflda_gibbs, lda_gibbs, top_words
from ontomap.model import (
    ClassAssertion,
    Name,
    ObjectPropertyAssertion,
    Ontology,
    add_axiom,
)
from ontomap.ofn import parse, serialize
from ontomap.reasoner import IsA, saturate
from ontomap.synthetic import HEALTH_SNIPPETS

from helpers import (
    brute_force_best_partition,
    cannot_link_corpus,
    louvain,
    must_link_corpus,
    naive_closure,
    planted_two_topics,
    random_graph,
    random_ontology,
    random_reasoner_ontology,
    topic_purity,
)

REPO_ROOT = Path(__file__).resolve().parents[1]


def N(local):
    return Name("", local)


def run_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    code = cli.main(argv, stdout=out, stderr=err)
    return code, out.getvalue(), err.getvalue()


# --- 1: serializer round trip ------------------------------------------------


def test_01_thousand_random_round_trips_under_30s():
    rnd = random.Random(20240817)
    start = time.monotonic()
    for _ in range(1000):
        o = random_ontology(rnd)
        result = parse(serialize(o))
        assert result.errors == ()
        assert result.ontology == o
    assert time.monotonic() - start < 30.0


# --- 2: inference engine vs brute-force closure ------------------------------


def test_02_saturation_matches_naive_closure_on_500_ontologies():
    rnd = random.Random(97)
    start = time.monotonic()
    for _ in range(500):
        o = random_reasoner_ontology(rnd)
        assert saturate(o).facts == naive_closure(o)
    assert time.monotonic() - start < 60.0


# --- 3: fixture inferences and violation injection ---------------------------


def test_03_fixture_inferences_and_injected_violations(fixture_ontology,
                                                       fixture_store):
    assert fixture_store.violations == ()
    assert IsA(N("Obesity"), N("MedicalCondition")) in fixture_store.facts
    assert IsA(N("AbdominalPain"), N("Manifestation")) in fixture_store.facts

    looped = add_axiom(fixture_ontology, ObjectPropertyAssertion(
        N("medCondMayLeadToMedCond"), N("Obesity"), N("Obesity")))
    violations = saturate(looped).violations
    assert [v.kind for v in violations] == ["IrreflexiveLoop"]
    assert N("Obesity") in violations[0].involved

    dual = add_axiom(fixture_ontology,
                     ClassAssertion(N("Medication"), N("LowCalorieDiet")))
    violations = saturate(dual).violations
    assert [v.kind for v in violations] == ["DisjointMembership"]
    assert {N("LowCalorieDiet"), N("Diet"), N("Medication")} <= \
        set(violations[0].involved)


# --- 4: metrics parity with an independent counting script -------------------


def test_04_metrics_command_matches_line_counting_script(fixture_path,
                                                        tmp_path):
    count_ofn = runpy.run_path(str(REPO_ROOT / "scripts" / "count_ofn.py"))
    rnd = random.Random(404)
    paths = [fixture_path, tmp_path / "empty.ofn"]
    paths[1].write_text(serialize(Ontology()), encoding="utf-8")
    for i in range(100):
        make = random_ontology if i % 2 else random_reasoner_ontology
        path = tmp_path / f"random{i}.ofn"
        path.write_text(serialize(make(rnd)), encoding="utf-8")
        paths.append(path)
    for path in paths:
        code, out, _ = run_cli(["metrics", str(path)])
        assert code == 0
        oracle = io.StringIO()
        with contextlib.redirect_stdout(oracle):
            count_ofn["main"](str(path))
        assert out == oracle.getvalue(), path


# --- 5: clustering optimality, monotonicity, determinism ---------------------


def test_05_louvain_optimal_monotone_and_deterministic():
    # two triangles joined by a bridge: the known best split is the triangles
    adj = {i: {} for i in range(6)}
    for u, v in [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5), (2, 3)]:
        adj[u][v] = 1.0
        adj[v][u] = 1.0
    assignment, history = louvain(adj, seed=42)
    best_q, best = brute_force_best_partition(adj)
    groups = {}
    for u, c in assignment.items():
        groups.setdefault(c, set()).add(u)
    assert set(map(frozenset, groups.values())) == {frozenset({0, 1, 2}),
                                                    frozenset({3, 4, 5})}
    assert history[-1] == pytest.approx(best_q, abs=1e-9)

    rnd = random.Random(5150)
    for _ in range(100):
        g = random_graph(rnd, max_n=50)
        _, history = louvain(g, seed=rnd.randrange(10 ** 6))
        assert all(b >= a - 1e-12 for a, b in zip(history, history[1:]))

    g = random_graph(random.Random(7), max_n=40)
    runs = [louvain(g, seed=42) for _ in range(5)]
    assert all(r == runs[0] for r in runs[1:])


# --- 6: flat-forest reduction is bit-exact -----------------------------------


def test_06_flat_forest_sampler_reduces_to_plain_lda():
    corpus, _ = planted_two_topics(n_docs=50, seed=3)
    forest = flat_forest(len(corpus.vocabulary), 0.01)
    for seed in (0, 1, 2):
        flat = lda_gibbs(corpus, K=2, alpha=1.0, beta=0.01, iters=60,
                         seed=seed)
        tree = dflda_gibbs(corpus, forest, K=2, alpha=1.0, iters=60,
                           seed=seed)
        assert flat.z == tree.z
        assert flat.n_kw == tree.n_kw


# --- 7: topic recovery on a planted corpus -----------------------------------


def test_07_planted_two_topic_recovery_three_seeds():
    corpus, labels = planted_two_topics(n_docs=200, seed=0)
    start = time.monotonic()
    for seed in (0, 1, 2):
        state = lda_gibbs(corpus, K=2, alpha=1.0, beta=0.01, iters=500,
                          seed=seed)
        assert topic_purity(state, labels) >= 0.95
    assert time.monotonic() - start < 120.0


# --- 8: constraint efficacy over 20 seeds ------------------------------------


def _pair_in_same_top10(state, corpus):
    for ranked in top_words(state, corpus, 10):
        words = {w for w, _ in ranked}
        if {"word000", "word001"} <= words:
            return True
    return False


def test_08_constraints_change_topic_assignments():
    start = time.monotonic()

    corpus = must_link_corpus(seed=0)
    cs = ConstraintSet(must_links=((0, 1),), cannot_links=())
    forest = build_forest(cs, corpus.vocabulary, beta=1.0, eta=100.0)
    with_must = sum(
        _pair_in_same_top10(
            dflda_gibbs(corpus, forest, K=2, alpha=1.0, iters=200, seed=s),
            corpus)
        for s in range(20))
    baseline_must = sum(
        _pair_in_same_top10(
            lda_gibbs(corpus, K=2, alpha=1.0, beta=1.0, iters=200, seed=s),
            corpus)
        for s in range(20))
    assert with_must >= 18
    assert baseline_must <= 5

    corpus = cannot_link_corpus(seed=0)
    cs = ConstraintSet(must_links=(), cannot_links=((0, 1),))
    forest = build_forest(cs, corpus.vocabulary, beta=0.01)
    with_cannot = sum(
        _pair_in_same_top10(
            dflda_gibbs(corpus, forest, K=2, alpha=4.5, iters=800, seed=s),
            corpus)
        for s in range(20))
    baseline_cannot = sum(
        _pair_in_same_top10(
            lda_gibbs(corpus, K=2, alpha=4.5, beta=0.01, iters=800, seed=s),
            corpus)
        for s in range(20))
    assert with_cannot <= 2
    assert baseline_cannot >= 8

    assert time.monotonic() - start < 600.0


# --- 9: branch sampler vs closed-form posterior ------------------------------


def test_09_branch_sampler_matches_dirichlet_multinomial():
    beta, epsilon = 0.5, 0.01
    cs = ConstraintSet(must_links=(), cannot_links=((0, 1),))
    forest = build_forest(cs, ("a", "b", "c", "d"), beta=beta,
                          epsilon=epsilon)
    counts = [7, 3, 2, 1]

    # closed form, written out directly from the Dirichlet-multinomial
    # marginal: each branch keeps its own word at beta and suppresses the
    # other at epsilon * beta
    def log_marginal(gammas, ns):
        s = math.lgamma(sum(gammas)) - math.lgamma(sum(gammas) + sum(ns))
        for g, n in zip(gammas, ns):
            s += math.lgamma(g + n) - math.lgamma(g)
        return s

    region_counts = [counts[0], counts[1]]
    logs = [log_marginal([beta, epsilon * beta], region_counts),
            log_marginal([epsilon * beta, beta], region_counts)]
    mx = max(logs)
    weights = [math.exp(v - mx) for v in logs]
    expected = [w / sum(weights) for w in weights]

    # align closed-form branch order with the forest's clique order
    order = []
    for clique in forest.regions[0].cliques:
        words = {w for m in clique for w in forest.components[m]}
        order.append(0 if 0 in words else 1)
    expected = [expected[i] for i in order]

    rng = np.random.Generator(np.random.PCG64(123))
    ncomp = [sum(counts[w] for w in comp) for comp in forest.components]
    draws = [gibbs._sample_branch(forest, 0, counts, ncomp, rng)
             for _ in range(10000)]
    for j, p in enumerate(expected):
        freq = draws.count(j) / len(draws)
        assert freq == pytest.approx(p, abs=0.02)


# --- 10: full pipeline through the command line ------------------------------


NAME_ARRAY = {"type": "array",
              "items": {"type": "array",
                        "prefixItems": [{"type": "string"},
                                        {"type": "number"}]}}

REASON_SCHEMA = {
    "type": "object",
    "required": ["facts", "strict", "violations"],
    "properties": {
        "facts": {"type": "object",
                  "required": ["IsA", "Rel", "Sub", "total"],
                  "additionalProperties": {"type": "integer"}},
        "strict": {"type": "boolean"},
        "violations": {"type": "array"},
    },
}

NODELINK_SCHEMA = {
    "type": "object",
    "required": ["nodes", "links"],
    "properties": {
        "nodes": {"type": "array",
                  "items": {"type": "object",
                            "required": ["id", "kind", "label", "cluster"]}},
        "links": {"type": "array",
                  "items": {"type": "object",
                            "required": ["source", "target", "kind",
                                         "weight"]}},
    },
}

MODEL_SCHEMA = {
    "type": "object",
    "required": ["meta", "vocabulary", "phi", "topics", "log_likelihood"],
    "properties": {
        "meta": {"type": "object",
                 "required": ["k", "alpha", "beta", "iters", "seed",
                              "constrained"]},
        "vocabulary": {"type": "array", "items": {"type": "string"}},
        "phi": {"type": "array",
                "items": {"type": "array", "items": {"type": "number"}}},
        "topics": {"type": "array",
                   "items": {"type": "object",
                             "required": ["id", "top_words", "tags"],
                             "properties": {"id": {"type": "integer"},
                                            "top_words": NAME_ARRAY,
                                            "tags": NAME_ARRAY}}},
        "log_likelihood": {"type": "number"},
    },
}

TAGS_SCHEMA = {
    "type": "object",
    "required": ["topics"],
    "properties": {
        "topics": {"type": "array",
                   "items": {"type": "object",
                             "required": ["id", "tags"],
                             "properties": {"id": {"type": "integer"},
                                            "tags": NAME_ARRAY}}},
    },
}


def test_10_cli_pipeline_end_to_end(fixture_path, tmp_path):
    corpus = tmp_path / "corpus.tsv"
    corpus.write_text("".join(f"{i}\t{t}\n" for i, t in HEALTH_SNIPPETS),
                      encoding="utf-8")

    code, _, err = run_cli(["validate", str(fixture_path)])
    assert (code, err) == (0, "")

    report = tmp_path / "report.json"
    code, _, _ = run_cli(["reason", str(fixture_path), "--out", str(report)])
    assert code == 0
    payload = json.loads(report.read_text())
    jsonschema.validate(payload, REASON_SCHEMA)
    assert payload["violations"] == []

    graph = tmp_path / "graph.json"
    code, _, _ = run_cli(["graph", str(fixture_path), "--cluster",
                          "--format", "nodelink-json", "--out", str(graph)])
    assert code == 0
    jsonschema.validate(json.loads(graph.read_text()), NODELINK_SCHEMA)

    model = tmp_path / "model.json"
    code, _, _ = run_cli(["lda", str(corpus), "--k", "2", "--iters", "100",
                          "--ontology", str(fixture_path), "--constrained",
                          "--out", str(model)])
    assert code == 0
    payload = json.loads(model.read_text())
    jsonschema.validate(payload, MODEL_SCHEMA)
    assert payload["meta"]["constrained"] is True

    tags = tmp_path / "tags.json"
    code, _, _ = run_cli(["tag", str(model), "--ontology", str(fixture_path),
                          "--out", str(tags)])
    assert code == 0
    jsonschema.validate(json.loads(tags.read_text()), TAGS_SCHEMA)
