"""Collapsed Gibbs samplers: plain LDA and the Dirichlet-forest variant.

Both samplers share one kernel so that with a flat forest (no constraints)
they consume randomness identically and produce bit-identical assignments.
The RNG is numpy's PCG64 (a permuted-congruential generator); the seed fully
determines every assignment and branch choice.  Changing the generator is a
breaking change.  For n corpus tokens, one ``integers(K, size=n)`` draws
the initial topics and one ``random(n)`` per sweep draws its uniforms, the
same PCG64 stream as one call per token (``tests/test_gibbs.py`` pins it);
each sweep's branch draws follow its token loop.

The token loop is ``_sweep``: it takes the chain's counts as flat int64
arrays (``_Chain``) and that sweep's uniforms, and draws no random
numbers.  ``sweep.c`` is its compiled twin, built and loaded by
``native``; it computes every weight with the same operations in the
same order, so the two give the same bits, and ``_sweep`` runs whenever
no compiler or library is available.  Init, the uniforms and the branch
draws are shared Python code.

Token step: p(z_i = k) is proportional to (alpha + n_dk) times the product,
over internal nodes on the root-to-leaf path of the word in topic k's
selected tree, of (gamma_child + n_child) / sum_children (gamma + n).  With
a flat tree this collapses to (beta + n_kw) / (V*beta + n_k).  Once per
sweep each (topic, region) resamples its branch from the Dirichlet
multinomial marginal of the region's counts under each candidate branch.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from functools import partial
from heapq import nsmallest
from itertools import accumulate, chain, islice
from math import exp, inf, lgamma
from typing import NamedTuple, Optional

import numpy as np

from .corpus import Corpus
from .forest import DirichletForest, flat_forest


class InvalidHyperparameter(Exception):
    pass


class ForestVocabMismatch(Exception):
    pass


@dataclass
class TopicModelState:
    K: int
    alpha: float
    beta: float
    z: list                 # per doc: list of topic ids
    n_dk: list              # doc x topic counts
    n_kw: list              # topic x word counts
    n_k: list               # per-topic totals
    seed: int
    iters: int
    forest: Optional[DirichletForest] = None
    q: Optional[list] = None        # topic x region branch selections
    n_comp: Optional[list] = None   # topic x component counts
    n_region: Optional[list] = None # topic x region counts


def _validate(corpus: Corpus, K, alpha, beta, iters):
    if K < 1:
        raise InvalidHyperparameter("K must be >= 1")
    if alpha <= 0 or beta <= 0:
        raise InvalidHyperparameter(
            "alpha, beta and epsilon * beta must be positive")
    if iters < 1:
        raise InvalidHyperparameter("iters must be >= 1")
    # the largest lgamma arguments of log_likelihood
    for x in (K * alpha, len(corpus.vocabulary) * beta):
        try:
            if lgamma(x + corpus.n_tokens) < inf:
                continue
        except OverflowError:
            pass
        raise InvalidHyperparameter(
            "alpha, beta or eta too large: the log-likelihood overflows")


def lda_gibbs(corpus: Corpus, K: int, alpha: float, beta: float,
              iters: int, seed: int) -> TopicModelState:
    """Plain collapsed Gibbs LDA; exactly ``iters`` full sweeps."""
    _validate(corpus, K, alpha, beta, iters)
    return _run(corpus, None, K, alpha, beta, iters, seed)


def dflda_gibbs(corpus: Corpus, forest: DirichletForest, K: int, alpha: float,
                iters: int, seed: int) -> TopicModelState:
    """Dirichlet-forest collapsed Gibbs; beta comes from the forest."""
    # the smallest and the largest word weight of the forest
    for weight in (forest.epsilon * forest.beta, forest.eta * forest.beta):
        _validate(corpus, K, alpha, weight, iters)
    if forest.vocab_size != len(corpus.vocabulary):
        raise ForestVocabMismatch(
            f"forest built for {forest.vocab_size} words, corpus has "
            f"{len(corpus.vocabulary)}")
    if forest.is_flat:
        # exact algebraic reduction; also keeps the randomness stream
        # identical to lda_gibbs
        state = _run(corpus, None, K, alpha, forest.beta, iters, seed)
        state.forest = forest
        return state
    return _run(corpus, forest, K, alpha, forest.beta, iters, seed)


def _pick(cumulative, u):
    """Index of the first cumulative weight above ``u``, else the last."""
    return min(bisect_right(cumulative, u), len(cumulative) - 1)


class _Chain(NamedTuple):
    """A sampler's state as int64 arrays, row-major where 2-D.  A sweep
    writes into the arrays; the fields are never rebound, because the
    compiled sweep holds the arrays' addresses."""

    words: np.ndarray       # per token: word id
    doc: np.ndarray         # per token: document id
    z: np.ndarray           # per token: topic id
    n_dk: np.ndarray        # doc x topic counts
    n_kw: np.ndarray        # topic x word counts
    n_k: np.ndarray         # per-topic totals
    n_comp: np.ndarray      # topic x component counts
    n_region: np.ndarray    # topic x region counts
    q: np.ndarray           # topic x region branch selections


def _init(docs, tree, K, V, rng) -> _Chain:
    """One uniform topic draw per token, and the counts it implies."""
    lengths = [len(doc) for doc in docs]
    n = sum(lengths)
    words = np.fromiter(chain.from_iterable(docs), np.int64, n)
    if n and not 0 <= words.min() <= words.max() < V:
        raise ValueError("corpus word id outside its vocabulary")
    z = rng.integers(K, size=n)
    doc = np.repeat(np.arange(len(docs), dtype=np.int64), lengths)
    comp = np.array(tree.comp_of, np.int64)[words]
    region = np.array(tree.region_of, np.int64)[words]
    M, R = len(tree.comp_size), len(tree.region_gamma)

    def counts(keys, rows, width):
        return np.bincount(keys, minlength=rows * width).astype(
            np.int64, copy=False).reshape(rows, width)

    return _Chain(
        words=words, doc=doc, z=z,
        n_dk=counts(doc * K + z, len(docs), K),
        n_kw=counts(z * V + words, K, V),
        n_k=counts(z, 1, K)[0],
        n_comp=counts((z * M + comp)[comp >= 0], K, M),
        n_region=counts((z * R + region)[region >= 0], K, R),
        q=np.zeros((K, R), np.int64))


def _run(corpus, forest, K, alpha, beta, iters, seed):
    # imported here, at the first sampler call: it loads subprocess and
    # hashlib, which ``import ontomap`` does not need
    from . import native

    rng = np.random.Generator(np.random.PCG64(seed))
    V = len(corpus.vocabulary)
    docs = corpus.documents
    # a flat index maps every word to component and region -1
    tree = (forest or flat_forest(V, beta)).sampling_index
    s = _init(docs, tree, K, V, rng)
    flat = forest is None
    sweep = native.sweeper(tree, flat, K, alpha, beta, s) \
        or partial(_sweep, tree, flat, K, alpha, beta, s)
    n_regions = len(tree.region_gamma)
    for _ in range(iters):
        sweep(rng.random(len(s.words)))
        if n_regions:
            n_kw, n_comp = s.n_kw.tolist(), s.n_comp.tolist()
            for k in range(K):
                for r in range(n_regions):
                    s.q[k, r] = _sample_branch(
                        forest, r, n_kw[k], n_comp[k], rng)

    z = iter(s.z.tolist())
    return TopicModelState(
        K=K, alpha=alpha, beta=beta,
        z=[list(islice(z, len(doc))) for doc in docs],
        n_dk=s.n_dk.tolist(), n_kw=s.n_kw.tolist(), n_k=s.n_k.tolist(),
        seed=seed, iters=iters, forest=forest,
        q=None if flat else s.q.tolist(),
        n_comp=None if flat else s.n_comp.tolist(),
        n_region=None if flat else s.n_region.tolist())


def _sweep(tree, flat, K, alpha, beta, s, uniforms):
    """One Gibbs sweep over every token of ``s``, in place, with one
    uniform per token; the reference for the compiled sweep (sweep.c).
    Returns the last token's cumulative topic weights."""
    comp_of, region_of = tree.comp_of, tree.region_of
    vbeta = len(comp_of) * beta
    weights = [0.0] * K
    arrays = (s.z, s.n_dk, s.n_kw, s.n_k, s.n_comp, s.n_region)
    z, n_dk, n_kw, n_k, n_comp, n_region = (a.tolist() for a in arrays)
    q = s.q.tolist()
    tokens = zip(s.words.tolist(), s.doc.tolist(), uniforms.tolist())
    for i, (w, d, u) in enumerate(tokens):
        m, r = comp_of[w], region_of[w]
        ndk, k_old = n_dk[d], z[i]
        ndk[k_old] -= 1
        n_kw[k_old][w] -= 1
        n_k[k_old] -= 1
        if m >= 0:
            n_comp[k_old][m] -= 1
        if r >= 0:
            n_region[k_old][r] -= 1
        total = 0.0
        if flat:
            for k in range(K):
                total += (alpha + ndk[k]) * (beta + n_kw[k][w]) \
                    / (vbeta + n_k[k])
                weights[k] = total
        else:
            for k in range(K):
                total += (alpha + ndk[k]) * _path_prob(
                    tree, w, m, r, beta, vbeta,
                    n_kw[k], n_k[k], n_comp[k], n_region[k], q[k])
                weights[k] = total
        k_new = _pick(weights, u * total)
        z[i] = k_new
        ndk[k_new] += 1
        n_kw[k_new][w] += 1
        n_k[k_new] += 1
        if m >= 0:
            n_comp[k_new][m] += 1
        if r >= 0:
            n_region[k_new][r] += 1
    for a, values in zip(arrays, (z, n_dk, n_kw, n_k, n_comp, n_region)):
        a[...] = values
    return weights


def _path_prob(tree, w, m, r, beta, vbeta, nkw, nk, ncomp, nregion, qk):
    """Posterior word weight for one topic: product along the tree path."""
    root_den = vbeta + nk
    if m < 0:
        return (beta + nkw[w]) / root_den
    if r < 0:
        return ((tree.size_beta[m] + ncomp[m]) / root_den
                * (tree.eta_beta + nkw[w])
                / (tree.size_eta_beta[m] + ncomp[m]))
    p = (tree.region_gamma[r] + nregion[r]) / root_den
    b = tree.branch_offset[r] + qk[r]
    den = tree.branch_gamma[b] + nregion[r]
    if tree.member[b * len(tree.comp_size) + m]:
        if tree.comp_size[m] == 1:
            return p * (beta + nkw[w]) / den
        return (p * (tree.size_beta[m] + ncomp[m]) / den
                * (tree.eta_beta + nkw[w])
                / (tree.size_eta_beta[m] + ncomp[m]))
    return p * (tree.eps_beta + nkw[w]) / den


def _must_link_node(score, gamma, comp, nkw):
    """``score`` plus the log marginal of a must-link node's leaves."""
    sub_gamma = sub_n = 0.0
    for w in comp:
        score += lgamma(gamma + nkw[w]) - lgamma(gamma)
        sub_gamma += gamma
        sub_n += nkw[w]
    return score + (lgamma(sub_gamma) - lgamma(sub_gamma + sub_n))


def _branch_log_score(forest, r, j, nkw, ncomp):
    """Dirichlet-multinomial marginal of one candidate branch (log)."""
    tree = forest.sampling_index
    region = forest.regions[r]
    row = (tree.branch_offset[r] + j) * len(tree.comp_size)
    gamma_sum = 0.0
    n_sum = 0
    score = 0.0
    for m in region.component_ids:
        comp = forest.components[m]
        if tree.member[row + m]:
            g = tree.size_beta[m]
            n = ncomp[m]
            score += lgamma(g + n) - lgamma(g)
            gamma_sum += g
            n_sum += n
            if len(comp) > 1:
                score = _must_link_node(score, tree.eta_beta, comp, nkw)
        else:
            for w in comp:
                g = tree.eps_beta
                n = nkw[w]
                score += lgamma(g + n) - lgamma(g)
                gamma_sum += g
                n_sum += n
    score += lgamma(gamma_sum) - lgamma(gamma_sum + n_sum)
    return score


def _sample_branch(forest, r, nkw, ncomp, rng):
    cliques = forest.regions[r].cliques
    if len(cliques) == 1:
        return 0
    scores = [_branch_log_score(forest, r, j, nkw, ncomp)
              for j in range(len(cliques))]
    mx = max(scores)
    probs = [exp(s - mx) for s in scores]
    # sum(), not the last cumulative sum: it compensates on Python >= 3.12
    return _pick(list(accumulate(probs)), rng.random() * sum(probs))


def sample_branch(forest: DirichletForest, region: int, topic_word_counts,
                  rng) -> int:
    """Resample one region's branch for fixed per-word topic counts."""
    ncomp = [sum(topic_word_counts[w] for w in comp)
             for comp in forest.components]
    return _sample_branch(forest, region, topic_word_counts, ncomp, rng)


# --- posterior summaries ----------------------------------------------------


def phi_matrix(state: TopicModelState):
    """Posterior-mean word distributions, one row per topic."""
    V = len(state.n_kw[0])
    beta = state.beta
    vbeta = V * beta
    forest = state.forest
    if forest is None or forest.is_flat:
        return [[(beta + state.n_kw[k][w]) / (vbeta + state.n_k[k])
                 for w in range(V)] for k in range(state.K)]
    tree = forest.sampling_index
    return [[_path_prob(tree, w, tree.comp_of[w], tree.region_of[w], beta,
                        vbeta, state.n_kw[k], state.n_k[k], state.n_comp[k],
                        state.n_region[k], state.q[k])
             for w in range(V)] for k in range(state.K)]


def _ranked(row, n: int) -> list:
    """Ids of the ``n`` most probable words in ``row``; ties by word id."""
    return nsmallest(n, range(len(row)), key=lambda w: (-row[w], w))


def rank_words(phi, vocabulary, n: int):
    """Per-topic ranked (word, probability) lists; ties break by word id."""
    if n < 1:
        raise ValueError("n must be >= 1")
    return [[(vocabulary[w], row[w]) for w in _ranked(row, n)] for row in phi]


def top_words(state: TopicModelState, corpus: Corpus, n: int):
    """:func:`rank_words` over the state's :func:`phi_matrix`."""
    return rank_words(phi_matrix(state), corpus.vocabulary, n)


def score_tags(phi, vocabulary, lexicon: dict, n: int):
    """Rank ontology concepts against each topic's top-``n`` words.

    score(concept, topic) = sum of phi over the concept tokens that appear
    in the topic's top-n words, normalized by the concept's token count.
    The sum follows the iteration order of the concept's token set, which
    varies with the interpreter's string hash seed.
    """
    index = {w: i for i, w in enumerate(vocabulary)}
    out = []
    for row in phi:
        topn = {vocabulary[w] for w in _ranked(row, n)}
        scored = []
        for concept in sorted(lexicon, key=str):
            tokens = lexicon[concept]
            hit = [t for t in tokens if t in topn]
            if hit:
                score = sum(row[index[t]] for t in hit) / len(tokens)
                scored.append((concept, score))
        scored.sort(key=lambda cs: (-cs[1], str(cs[0])))
        out.append(scored)
    return out


def tag_topics(state: TopicModelState, corpus: Corpus, lexicon: dict,
               n: int = 10):
    """:func:`score_tags` over the state's :func:`phi_matrix`."""
    return score_tags(phi_matrix(state), corpus.vocabulary, lexicon, n)


def log_likelihood(state: TopicModelState, corpus: Corpus) -> float:
    """Joint log p(w, z) under the current counts (flat or tree form)."""
    K, alpha, beta = state.K, state.alpha, state.beta
    V = len(corpus.vocabulary)
    total = 0.0
    for d, doc in enumerate(corpus.documents):
        total += lgamma(K * alpha) - lgamma(K * alpha + len(doc))
        for k in range(K):
            total += lgamma(alpha + state.n_dk[d][k]) - lgamma(alpha)
    forest = state.forest
    if forest is None or forest.is_flat:
        for k in range(K):
            total += lgamma(V * beta) - lgamma(V * beta + state.n_k[k])
            row = state.n_kw[k]
            for w in range(V):
                if row[w]:
                    total += lgamma(beta + row[w]) - lgamma(beta)
        return total
    for k in range(K):
        total += _tree_log_marginal(forest, state, k, beta, V)
    return total


def _tree_log_marginal(forest, state, k, beta, V):
    tree = forest.sampling_index
    nkw, ncomp, nregion = state.n_kw[k], state.n_comp[k], state.n_region[k]
    # root node
    gamma_sum = n_sum = 0.0
    score = 0.0
    for w in range(V):
        if tree.comp_of[w] < 0:
            score += lgamma(beta + nkw[w]) - lgamma(beta)
            gamma_sum += beta
            n_sum += nkw[w]
    for m, comp in enumerate(forest.components):
        if tree.region_of[comp[0]] >= 0:
            continue
        g = len(comp) * beta
        score += lgamma(g + ncomp[m]) - lgamma(g)
        gamma_sum += g
        n_sum += ncomp[m]
        score = _must_link_node(score, tree.eta_beta, comp, nkw)
    for r in range(len(forest.regions)):
        g = tree.region_gamma[r]
        score += lgamma(g + nregion[r]) - lgamma(g)
        gamma_sum += g
        n_sum += nregion[r]
        score += _branch_log_score(forest, r, state.q[k][r], nkw, ncomp)
    score += lgamma(gamma_sum) - lgamma(gamma_sum + n_sum)
    return score
