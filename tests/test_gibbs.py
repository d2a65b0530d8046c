import copy
import hashlib
import io
import math
import shutil
from functools import partial

import numpy as np
import pytest

from ontomap import cli, gibbs, native
from ontomap.constraints import ConstraintSet
from ontomap.corpus import Corpus
from ontomap.forest import build_forest, flat_forest
from ontomap.gibbs import (
    ForestVocabMismatch,
    InvalidHyperparameter,
    dflda_gibbs,
    lda_gibbs,
    log_likelihood,
    phi_matrix,
    rank_words,
    sample_branch,
    tag_topics,
    top_words,
)
from ontomap.model import Name
from ontomap.synthetic import (
    HEALTH_SNIPPETS,
    planted_two_topics,
    topic_purity,
)


def corpus_of(docs, vocab_size=None):
    if vocab_size is None:
        vocab_size = max(max(d) for d in docs if d) + 1
    return Corpus(vocabulary=tuple(f"w{i}" for i in range(vocab_size)),
                  documents=tuple(tuple(d) for d in docs),
                  doc_ids=tuple(str(i) for i in range(len(docs))))


def cs(must=(), cannot=()):
    return ConstraintSet(tuple(must), tuple(cannot), {})


def test_hyperparameter_validation():
    c = corpus_of([[0, 1]])
    with pytest.raises(InvalidHyperparameter):
        lda_gibbs(c, K=0, alpha=1.0, beta=0.01, iters=10, seed=1)
    with pytest.raises(InvalidHyperparameter):
        lda_gibbs(c, K=2, alpha=-1.0, beta=0.01, iters=10, seed=1)
    with pytest.raises(InvalidHyperparameter):
        lda_gibbs(c, K=2, alpha=1.0, beta=0.0, iters=10, seed=1)
    with pytest.raises(InvalidHyperparameter):
        lda_gibbs(c, K=2, alpha=1.0, beta=0.01, iters=0, seed=1)
    # the log-likelihood's lgamma terms would overflow
    with pytest.raises(InvalidHyperparameter):
        lda_gibbs(c, K=2, alpha=1e308, beta=0.01, iters=10, seed=1)
    with pytest.raises(InvalidHyperparameter):
        lda_gibbs(c, K=2, alpha=1.0, beta=1e306, iters=10, seed=1)
    for eta, beta in ((1e308, 0.01), (100.0, 1e-320)):
        # eta * beta overflows; epsilon * beta underflows to 0
        forest = build_forest(cs(must=[(0, 1)], cannot=[(0, 2)]),
                              ("a", "b", "c"), beta=beta, eta=eta)
        with pytest.raises(InvalidHyperparameter):
            dflda_gibbs(corpus_of([[0, 1, 2]]), forest, K=2, alpha=1.0,
                        iters=10, seed=1)


def test_forest_vocab_mismatch():
    c = corpus_of([[0, 1]])
    with pytest.raises(ForestVocabMismatch):
        dflda_gibbs(c, flat_forest(5, 0.01), K=2, alpha=1.0, iters=5, seed=1)


def test_k1_repeated_word_phi_near_one():
    c = corpus_of([[0] * 10], vocab_size=2)
    state = lda_gibbs(c, K=1, alpha=1.0, beta=0.01, iters=5, seed=1)
    tops = top_words(state, c, 1)
    word, p = tops[0][0]
    assert word == "w0"
    assert p > 0.99


def test_flat_phi_matches_hand_computation():
    # one doc [w0, w1, w1], K=1: phi = (beta + n_w) / (2 beta + 3)
    c = corpus_of([[0, 1, 1]])
    state = lda_gibbs(c, K=1, alpha=1.0, beta=0.5, iters=3, seed=0)
    phi = phi_matrix(state)
    assert phi[0][0] == pytest.approx((0.5 + 1) / (1.0 + 3))
    assert phi[0][1] == pytest.approx((0.5 + 2) / (1.0 + 3))


def test_count_conservation_flat_and_tree():
    docs = [[0, 1, 2, 3, 0, 1], [2, 3, 4, 5], [0, 5, 4, 1]]
    c = corpus_of(docs)
    forest = build_forest(cs(must=[(0, 1)], cannot=[(0, 2), (1, 5)]),
                          c.vocabulary)
    for state in (lda_gibbs(c, K=3, alpha=1.0, beta=0.01, iters=20, seed=3),
                  dflda_gibbs(c, forest, K=3, alpha=1.0, iters=20, seed=3)):
        for d, doc in enumerate(docs):
            assert sum(state.n_dk[d]) == len(doc)
        for k in range(state.K):
            assert sum(state.n_kw[k]) == state.n_k[k]
        if state.n_comp is not None:
            for k in range(state.K):
                for m, comp in enumerate(forest.components):
                    assert state.n_comp[k][m] == \
                        sum(state.n_kw[k][w] for w in comp)
                for r, region in enumerate(forest.regions):
                    assert state.n_region[k][r] == \
                        sum(state.n_kw[k][w] for w in region.words)


def test_phi_rows_normalize():
    docs = [[0, 1, 2, 3], [2, 3, 4, 5], [0, 5, 4, 1]]
    c = corpus_of(docs)
    forest = build_forest(cs(must=[(2, 3)], cannot=[(0, 4)]), c.vocabulary)
    flat = lda_gibbs(c, K=2, alpha=1.0, beta=0.01, iters=10, seed=3)
    tree = dflda_gibbs(c, forest, K=2, alpha=1.0, iters=10, seed=3)
    for state in (flat, tree):
        for row in phi_matrix(state):
            assert sum(row) == pytest.approx(1.0)
            assert all(p > 0 for p in row)


def test_seed_determinism_and_variation():
    c, _ = planted_two_topics(n_docs=20, seed=0)
    a = lda_gibbs(c, K=2, alpha=1.0, beta=0.01, iters=30, seed=7)
    b = lda_gibbs(c, K=2, alpha=1.0, beta=0.01, iters=30, seed=7)
    other = lda_gibbs(c, K=2, alpha=1.0, beta=0.01, iters=30, seed=8)
    assert a.z == b.z
    assert a.z != other.z


def test_flat_forest_reduction_bit_exact():
    c, _ = planted_two_topics(n_docs=20, seed=1)
    flat = lda_gibbs(c, K=2, alpha=1.0, beta=0.02, iters=40, seed=5)
    viaforest = dflda_gibbs(c, flat_forest(len(c.vocabulary), 0.02),
                            K=2, alpha=1.0, iters=40, seed=5)
    assert flat.z == viaforest.z


def test_top_words_truncates_and_breaks_ties_by_word_id():
    c = corpus_of([[0, 1]], vocab_size=3)
    state = lda_gibbs(c, K=1, alpha=1.0, beta=1.0, iters=2, seed=0)
    tops = top_words(state, c, 10)
    assert len(tops[0]) == 3  # N > V truncates at V
    # w0 and w1 each occur once -> tie broken toward lower word id
    assert [w for w, _ in tops[0][:2]] == ["w0", "w1"]
    # a three-way tie at 0.3 straddles the cut at n = 2; n runs up to V + 1
    row = [0.1, 0.3, 0.2, 0.3, 0.1, 0.3]
    vocab = tuple(f"w{i}" for i in range(len(row)))
    want = ["w1", "w3", "w5", "w2", "w0", "w4"]
    for n in (1, 2, 3, 4, 5, 6, 7):
        assert [w for w, _ in rank_words([row], vocab, n)[0]] == want[:n]


def test_tag_topics_scores_and_omits_zero():
    c = corpus_of([[0] * 8 + [1]], vocab_size=2)
    state = lda_gibbs(c, K=1, alpha=1.0, beta=0.01, iters=5, seed=0)
    lex = {Name("", "Zero"): frozenset({"w0"}),
           Name("", "Unrelated"): frozenset({"nothere"})}
    tags = tag_topics(state, c, lex, n=1)
    assert [str(cpt) for cpt, _ in tags[0]] == [":Zero"]
    phi = phi_matrix(state)
    assert tags[0][0][1] == pytest.approx(phi[0][0])


def test_log_likelihood_single_token_closed_form():
    c = corpus_of([[0]], vocab_size=4)
    beta = 0.3
    state = lda_gibbs(c, K=1, alpha=1.0, beta=beta, iters=1, seed=0)
    assert log_likelihood(state, c) == pytest.approx(
        math.log(beta / (4 * beta)))


def test_log_likelihood_invariant_under_doc_permutation():
    docs = [[0, 1, 2], [3, 4], [0, 4, 2]]
    c1 = corpus_of(docs)
    state = lda_gibbs(c1, K=2, alpha=1.0, beta=0.01, iters=10, seed=1)
    ll = log_likelihood(state, c1)
    perm = [2, 0, 1]
    c2 = corpus_of([docs[i] for i in perm])
    import copy
    state2 = copy.copy(state)
    state2.z = [state.z[i] for i in perm]
    state2.n_dk = [state.n_dk[i] for i in perm]
    assert log_likelihood(state2, c2) == pytest.approx(ll)


def test_log_likelihood_finite_for_tree_model():
    docs = [[0, 1, 2, 3], [2, 3, 4, 5], [0, 5, 4, 1]]
    c = corpus_of(docs)
    forest = build_forest(cs(must=[(2, 3)], cannot=[(0, 4)]), c.vocabulary)
    state = dflda_gibbs(c, forest, K=2, alpha=1.0, iters=10, seed=1)
    assert math.isfinite(log_likelihood(state, c))


def test_must_link_words_get_correlated_probabilities():
    # w0 and w1 never co-occur, but a must-link couples them
    docs = [[0, 2, 2, 3]] * 6 + [[1, 4, 4, 5]] * 6
    c = corpus_of(docs)
    forest = build_forest(cs(must=[(0, 1)]), c.vocabulary, eta=500.0)
    state = dflda_gibbs(c, forest, K=2, alpha=1.0, iters=60, seed=2)
    phi = phi_matrix(state)
    for k in range(2):
        ratio = phi[k][0] / phi[k][1]
        assert 0.2 < ratio < 5.0  # within the must-link node they stay close


def test_sample_branch_prefers_dominant_branch():
    forest = build_forest(cs(cannot=[(0, 1)]), ("a", "b", "c"), beta=0.5)
    rng = np.random.Generator(np.random.PCG64(0))
    counts = [40, 0, 3]
    picks = {sample_branch(forest, 0, counts, rng) for _ in range(50)}
    heavy = next(j for j, cl in enumerate(forest.regions[0].cliques)
                 if 0 in {w for m in cl for w in forest.components[m]})
    assert picks == {heavy}


def test_purity_on_small_planted_corpus():
    c, labels = planted_two_topics(n_docs=60, doc_len=16, seed=4)
    state = lda_gibbs(c, K=2, alpha=1.0, beta=0.01, iters=150, seed=4)
    assert topic_purity(state, labels) >= 0.9


def _state_digest(state, corpus):
    fields = (state.z, state.n_kw, state.q, state.n_comp, state.n_region,
              phi_matrix(state), repr(log_likelihood(state, corpus)))
    return hashlib.sha256(repr(fields).encode()).hexdigest()


LDA_PINS = [
    (1, "53a87f3767177c3d81b018a05df92f66fe4ac6676d38ea1692e59ecf7116ed22"),
    (2, "70f494ee5027ea4b81d53b0809a26c9fdbd4c4f1c92b320f411900440185ef85"),
    (20, "50b2ad4aa34149f36c609c3e0be8d3b3668f7db6c17da1d1e8e81b159efced64"),
]
DFLDA_PINS = [
    (2, "a74d96f1048bba6375720a490a61c3cd2444ac249d4f655d017697749d2fbf4c"),
    (3, "3d22e83a1c48f75027141f8b12c23649f2ff8f5010a638ef5e2fe515768d1e2c"),
]


@pytest.mark.parametrize("K, digest", LDA_PINS)
def test_lda_state_pinned(K, digest):
    # pins the PCG64 stream consumption and every float of the flat sampler
    c, _ = planted_two_topics(n_docs=12, doc_len=10, seed=3)
    state = lda_gibbs(c, K=K, alpha=0.5, beta=0.05, iters=15, seed=11)
    assert _state_digest(state, c) == digest


@pytest.mark.parametrize("K, digest", DFLDA_PINS)
def test_dflda_state_pinned(K, digest):
    # a free must-link {6, 7}; region 0 holds the must-link {0, 1, 2} and
    # two singletons with two branches; region 1 has two singleton branches
    c, _ = planted_two_topics(n_docs=12, doc_len=10, seed=3)
    forest = build_forest(cs(must=[(0, 1), (1, 2), (6, 7)],
                             cannot=[(0, 12), (12, 13), (5, 20)]),
                          c.vocabulary, beta=0.05, eta=50.0, epsilon=0.01)
    assert [len(r.cliques) for r in forest.regions] == [2, 2]
    state = dflda_gibbs(c, forest, K=K, alpha=0.5, iters=15, seed=11)
    assert _state_digest(state, c) == digest


# --- the compiled sweep against its reference, gibbs._sweep ------------------

SWEEP_CASES = {
    "flat-K1": (None, 1),
    "flat-K2": (None, 2),
    "flat-K3": (None, 3),
    "flat-K20": (None, 20),
    "free-must-link": (cs(must=[(0, 1), (1, 2)]), 3),
    "must-link-in-region": (cs(must=[(0, 1)], cannot=[(1, 5), (5, 6)]), 3),
    "two-regions": (cs(must=[(0, 1), (1, 2), (6, 7)],
                       cannot=[(0, 12), (12, 13), (5, 20)]), 2),
    # the maximal independent sets of a 17-word path: 114 branches
    "114-branches": (cs(cannot=[(w, w + 1) for w in range(16)]), 3),
}


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("case", list(SWEEP_CASES))
def test_c_sweep_matches_python_sweep(case, seed):
    if shutil.which(native.CC) is None:
        pytest.skip("no C compiler")
    constraints, K = SWEEP_CASES[case]
    rnd = np.random.Generator(np.random.PCG64(seed))
    c = corpus_of([rnd.integers(30, size=rnd.integers(1, 25)).tolist()
                   for _ in range(15)], vocab_size=30)
    if constraints is None:
        forest, beta = flat_forest(30, 0.05), 0.05
    else:
        forest = build_forest(constraints, c.vocabulary, beta=0.1, eta=40.0,
                              epsilon=0.02)
        beta = forest.beta
    branches = [len(region.cliques) for region in forest.regions]
    if case == "114-branches":
        assert branches == [114]
    tree, flat = forest.sampling_index, constraints is None
    py = gibbs._init(c.documents, tree, K, 30, rnd)
    compiled = copy.deepcopy(py)

    def sweeps(token=slice(None)):
        """Both sweeps, over the tokens ``token`` selects."""
        py_part, compiled_part = (
            s._replace(words=s.words[token], doc=s.doc[token],
                       z=s.z[token]) for s in (py, compiled))
        compiled_sweep = native.sweeper(tree, flat, K, 0.7, beta,
                                        compiled_part)
        assert compiled_sweep is not None, "a compiler is present"
        return (partial(gibbs._sweep, tree, flat, K, 0.7, beta, py_part),
                compiled_sweep)

    n = len(py.words)
    for it in range(6):
        uniforms = rnd.random(n)
        if it % 2:
            py_sweep, compiled_sweep = sweeps()
            compiled_sweep(uniforms)
            py_sweep(uniforms)
        else:
            # token by token: every token's weights agree to the last bit
            for i in range(n):
                one = slice(i, i + 1)
                py_sweep, compiled_sweep = sweeps(one)
                assert compiled_sweep(uniforms[one]) == \
                    py_sweep(uniforms[one]), f"token {i}"
        for name in ("z", "n_dk", "n_kw", "n_k", "n_comp", "n_region"):
            np.testing.assert_array_equal(getattr(compiled, name),
                                          getattr(py, name), err_msg=name)
        # the next sweep reads new branch choices, the same in both chains
        py.q[...] = compiled.q[...] = [[rnd.integers(b) for b in branches]
                                       for _ in range(K)]


def test_python_sweep_serves_when_no_compiler(monkeypatch, kernel_cache,
                                              fixture_path, tmp_path):
    corpus_tsv = tmp_path / "corpus.tsv"
    corpus_tsv.write_text("".join(f"{i}\t{t}\n" for i, t in HEALTH_SNIPPETS),
                          encoding="utf-8")
    argv = ["lda", str(corpus_tsv), "--k", "3", "--iters", "10",
            "--constrained", "--ontology", str(fixture_path), "--out"]
    assert cli.main(argv + [str(tmp_path / "a.json")],
                    stdout=io.StringIO(), stderr=io.StringIO()) == 0

    # an empty cache and no compiler
    native.kernel.cache_clear()
    monkeypatch.setattr(native, "cache_dir", lambda: tmp_path / "empty")
    monkeypatch.setattr(native, "CC", "no-such-compiler")
    calls = []
    python_sweep = gibbs._sweep
    monkeypatch.setattr(gibbs, "_sweep",
                        lambda *a: calls.append(1) or python_sweep(*a))
    for K, digest in LDA_PINS:
        test_lda_state_pinned(K, digest)
    for K, digest in DFLDA_PINS:
        test_dflda_state_pinned(K, digest)
    assert native.kernel() is None and calls
    err = io.StringIO()
    assert cli.main(argv + [str(tmp_path / "b.json")],
                    stdout=io.StringIO(), stderr=err) == 0
    assert "Traceback" not in err.getvalue()
    assert (tmp_path / "a.json").read_bytes() == \
        (tmp_path / "b.json").read_bytes()


@pytest.mark.parametrize("flat", [True, False])
def test_sweeps_break_a_tie_like_bisect_right(flat):
    # one token, and no other counts: both topics weigh the same, so
    # u = 0.5 lands exactly on the first cumulative weight and picks topic 1
    if shutil.which(native.CC) is None:
        pytest.skip("no C compiler")
    tree = flat_forest(1, 0.1).sampling_index
    chains = [gibbs._Chain(
        words=np.zeros(1, np.int64), doc=np.zeros(1, np.int64),
        z=np.zeros(1, np.int64), n_dk=np.array([[1, 0]]),
        n_kw=np.array([[1], [0]]), n_k=np.array([1, 0]),
        n_comp=np.zeros((2, 0), np.int64), n_region=np.zeros((2, 0), np.int64),
        q=np.zeros((2, 0), np.int64)) for _ in range(2)]
    gibbs._sweep(tree, flat, 2, 0.5, 0.1, chains[0], np.array([0.5]))
    native.sweeper(tree, flat, 2, 0.5, 0.1, chains[1])(np.array([0.5]))
    assert chains[0].z.tolist() == chains[1].z.tolist() == [1]
