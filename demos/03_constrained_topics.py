#!/usr/bin/env python3
"""Topic-model a small health corpus under ontology-derived constraints.

Shows the full constrained-topic pipeline: ingest raw text, mine must-link /
cannot-link word pairs from the ontology's concept labels and disjointness
axioms, compile them into a Dirichlet forest, run the collapsed Gibbs
sampler, and tag each topic with the ontology concepts its top words cover.
An unconstrained run on the same corpus is shown for contrast.

Run from the repository root:

    python3 demos/03_constrained_topics.py
"""

from pathlib import Path

from ontomap import (
    build_forest,
    build_lexicon,
    derive_constraints,
    dflda_gibbs,
    ingest_corpus,
    lda_gibbs,
    parse_file,
    tag_topics,
    top_words,
)
from ontomap.synthetic import HEALTH_SNIPPETS

FIXTURE = Path(__file__).resolve().parents[1] / "fixtures" / "obesity-sample.ofn"


def show(state, corpus, lexicon, title):
    print(f"\n-- {title} --")
    tags = tag_topics(state, corpus, lexicon, n=10)
    for k, ranked in enumerate(top_words(state, corpus, 10)):
        words = ", ".join(w for w, _ in ranked)
        print(f"  topic {k}: {words}")
        if tags[k]:
            labelled = ", ".join(f"{c} ({s:.3f})" for c, s in tags[k][:4])
            print(f"    tags: {labelled}")


def main():
    onto = parse_file(FIXTURE).ontology
    corpus = ingest_corpus(HEALTH_SNIPPETS)
    print(f"{len(corpus.documents)} documents, "
          f"{len(corpus.vocabulary)} vocabulary words, "
          f"{corpus.n_tokens} tokens")

    lexicon = build_lexicon(onto)
    constraints = derive_constraints(onto, lexicon, corpus.vocabulary)
    print(f"{len(constraints.must_links)} must-links, "
          f"{len(constraints.cannot_links)} cannot-links from the ontology")
    for a, b in constraints.must_links[:5]:
        print(f"  must-link: {corpus.vocabulary[a]} ~ {corpus.vocabulary[b]}")
    for a, b in constraints.cannot_links[:5]:
        print(f"  cannot-link: {corpus.vocabulary[a]} x {corpus.vocabulary[b]}")

    flat = lda_gibbs(corpus, K=2, alpha=25.0, beta=0.01, iters=300, seed=42)
    show(flat, corpus, lexicon, "unconstrained topics")

    forest = build_forest(constraints, corpus.vocabulary)
    constrained = dflda_gibbs(corpus, forest, K=2, alpha=25.0, iters=300,
                              seed=42)
    show(constrained, corpus, lexicon, "ontology-constrained topics")


if __name__ == "__main__":
    main()
