"""The four benchmark workloads and their output checks.

Each workload has a job pipeline (`run`, the only timed part), its seeded
inputs (`make_input`, the benchmark's own work) and checks of every job's
outputs (`check`).  The checks use the benchmark's own scans and formulas
where one exists, so a wrong answer from the program shows as a failed job.
Why each workload exists, and the sizes used, are in README.md.
"""

from __future__ import annotations

import hashlib
import io
import json
import math
import random
import re

from ontomap import cli, corpus, gibbs, graphmap, ofn, reasoner
from ontomap.model import Name

from inputs import (concept_phrases, fixture_corpus_tsv, ontology_text,
                    planted_corpus_tsv)


def sha256(data) -> str:
    if isinstance(data, str):
        data = data.encode("utf-8")
    return hashlib.sha256(data).hexdigest()


def _records(tsv: str):
    """(doc_id, text) pairs from the benchmark's own TSV text."""
    return [tuple(line.split("\t", 1)) for line in tsv.splitlines() if line]


def _modularity(g, assignment) -> float:
    """Newman modularity of the undirected projection, by community sums:
    Q = sum_c L_c / m - (d_c / 2m)^2, with L_c the weight inside c and d_c
    its total degree; a self-loop adds its weight to L_c and twice to d_c.
    """
    m = 0.0
    inside, degree = {}, {}
    for e in g.edges:
        cu, cv = assignment[e.source], assignment[e.target]
        m += e.weight
        degree[cu] = degree.get(cu, 0.0) + e.weight
        degree[cv] = degree.get(cv, 0.0) + e.weight
        if cu == cv:
            inside[cu] = inside.get(cu, 0.0) + e.weight
    if m == 0.0:
        return 0.0
    return sum(inside.get(c, 0.0) / m - (d / (2 * m)) ** 2
               for c, d in degree.items())


def _check_partition(g, p, note, fails):
    names = {n.name for n in g.nodes}
    if set(p.assignment) != names:
        fails.append("partition does not cover every graph node")
        return
    q = graphmap.modularity(g, p)
    note("graphmap.modularity", q)
    own = _modularity(g, p.assignment)
    if abs(q - own) > 1e-9:
        fails.append(f"modularity {q!r} != recomputed {own!r}")


def _check_counts(state, documents, fails):
    """Count invariants of a Gibbs state against its corpus documents."""
    tokens = sum(len(d) for d in documents)
    if sum(map(sum, state.n_kw)) != tokens or sum(state.n_k) != tokens:
        fails.append("sum n_kw / n_k differs from the corpus token count")
    if [sum(row) for row in state.n_dk] != [len(d) for d in documents]:
        fails.append("n_dk rows differ from the document lengths")
    n_kw = [[0] * len(state.n_kw[0]) for _ in range(state.K)]
    for doc, zd in zip(documents, state.z):
        if len(zd) != len(doc):
            fails.append("z length differs from a document length")
            return
        for w, k in zip(doc, zd):
            n_kw[k][w] += 1
    if n_kw != state.n_kw:
        fails.append("n_kw differs from the counts recomputed from z")


def _corpus_sizes(corp, iters):
    return {"tokens": corp.n_tokens, "V": len(corp.vocabulary),
            "token_sweeps": corp.n_tokens * iters}


def _check_phi(phi, fails):
    for k, row in enumerate(phi):
        if abs(math.fsum(row) - 1.0) > 1e-9:
            fails.append(f"phi row {k} sums to {math.fsum(row)!r}")


class Workload:
    """Interface shared by the workloads; see run.py for the loop."""

    name = ""
    setup_reps = 1          # >1 where setup does program work
    block = 1               # runs stop after a whole number of blocks

    def __init__(self, seed: int, smoke: bool, root, workdir):
        self.seed = seed
        self.smoke = smoke
        self.root = root
        self.workdir = workdir

    def rnd(self, *parts) -> random.Random:
        return random.Random(":".join([self.name, str(self.seed)]
                                      + [str(p) for p in parts]))

    def hook(self):
        """Installed for the whole run, before setup."""

    def unhook(self):
        """Undoes `hook`."""

    def setup(self):
        """One-time program work, timed into setup_s."""

    def after_setup(self):
        """Benchmark-side indexes over the setup result; untimed.
        Returns (failures, digests) of the setup's output."""
        return [], {}

    def sizes(self) -> dict:
        raise NotImplementedError

    def make_input(self, j: int):
        raise NotImplementedError

    def run(self, inp):
        raise NotImplementedError

    def check(self, inp, out, note):
        """Returns (failures, digests) for one job."""
        raise NotImplementedError

    def job_sizes(self, inp, out) -> dict:
        """Input sizes of one job, for the run record and the rates."""
        return {}


# --- kb-build ---------------------------------------------------------------

_SUB_RE = re.compile(r"^SubClassOf\(:(\w+) :(\w+)\)$", re.M)
_ISA_RE = re.compile(r"^ClassAssertion\(:(\w+) :(\w+)\)$", re.M)


class KbBuild(Workload):
    """Write path: parse -> saturate -> graph -> cluster -> export ->
    serialize of a fresh seeded ontology per job."""

    name = "kb-build"
    # one block is the whole spread: 24 sizes, evenly spaced
    SIZES = tuple(1000 + round(i * 2000 / 23) for i in range(24))
    SMOKE_SIZES = (40, 60, 80, 100)
    SAMPLED_SUBS = 5

    def __init__(self, *args):
        super().__init__(*args)
        self.spread = self.SMOKE_SIZES if self.smoke else self.SIZES
        self.block = len(self.spread)

    def sizes(self):
        return {"axioms_spread": list(self.spread)}

    def make_input(self, j):
        # every block of len(spread) jobs runs each size once, in a seeded
        # order, so every run sees the same size mix
        block = list(self.spread)
        self.rnd("order", j // len(block)).shuffle(block)
        text, counts = ontology_text(self.rnd(j), block[j % len(block)])
        return {"j": j, "text": text, "counts": counts}

    def run(self, inp):
        result = ofn.parse(inp["text"])
        store = reasoner.saturate(result.ontology)
        g = graphmap.build_concept_graph(store)
        p = graphmap.cluster(g, seed=inp["j"])
        graphml = graphmap.export(g, p, "graphml")
        text = ofn.serialize(result.ontology)
        return result, store, g, p, graphml, text

    def check(self, inp, out, note):
        result, store, g, p, graphml, text = out
        fails = [f"diagnostic {d}" for d in result.diagnostics
                 if d.severity == "error"]
        o = result.ontology
        if ofn.parse(text).ontology != o:
            fails.append("parse(serialize(o)).ontology != o")
        facts = sorted(map(str, store.facts))
        have = set(facts)
        for a, b in _SUB_RE.findall(inp["text"]):
            if f"Sub(:{a}, :{b})" not in have:
                fails.append(f"asserted Sub({a}, {b}) missing")
        for c, i in _ISA_RE.findall(inp["text"]):
            if f"IsA(:{i}, :{c})" not in have:
                fails.append(f"asserted IsA({i}, {c}) missing")
        subs = sorted((f for f in store.facts if isinstance(f, reasoner.Sub)),
                      key=str)
        rnd = self.rnd(inp["j"], "check")
        for f in rnd.sample(subs, min(self.SAMPLED_SUBS, len(subs))):
            if not (reasoner.instances_of(store, f.sub)
                    <= reasoner.instances_of(store, f.sup)):
                fails.append(f"instances_of not monotone along {f}")
        _check_partition(g, p, note, fails)
        return fails, {"facts": sha256("\n".join(facts)),
                       "graphml": sha256(graphml)}

    def job_sizes(self, inp, out):
        return {"axioms": inp["counts"]["axioms"], "facts": len(out[1].facts)}


# --- kb-explore -------------------------------------------------------------


class KbExplore(Workload):
    """Read path: a mix of queries, classification, graph building,
    clustering and export against one store saturated at setup."""

    name = "kb-explore"
    setup_reps = 3
    FORMATS = ("graphml", "dot", "nodelink-json")
    block = len(FORMATS)

    def __init__(self, *args):
        super().__init__(*args)
        self.store_axioms = 150 if self.smoke else 4000
        self.n_queries = 5 if self.smoke else 40
        self.text, self.counts = ontology_text(self.rnd("store"),
                                               self.store_axioms)

    def sizes(self):
        return {**self.counts, "facts": len(self.store.facts),
                "instances_of_calls": self.n_queries,
                "explain_calls": self.n_queries}

    def setup(self):
        self.store = reasoner.saturate(ofn.parse(self.text).ontology)

    def after_setup(self):
        self.members = {}
        for f in self.store.facts:
            if isinstance(f, reasoner.IsA):
                self.members.setdefault(f.cls, set()).add(f.individual)
        self.classes = [Name("", f"C{i}")
                        for i in range(self.counts["classes"])]
        facts = sorted(map(str, self.store.facts))
        self.derived = sorted(
            (f for f in self.store.facts
             if self.store.derivations[f].rule != "asserted"), key=str)
        return [], {"store_facts": sha256("\n".join(facts))}

    def make_input(self, j):
        rnd = self.rnd(j)
        return {"j": j,
                "classes": rnd.choices(self.classes, k=self.n_queries),
                "facts": rnd.sample(self.derived,
                                    min(self.n_queries, len(self.derived))),
                "format": self.FORMATS[j % len(self.FORMATS)]}

    def run(self, inp):
        store = self.store
        answers = [reasoner.instances_of(store, c) for c in inp["classes"]]
        trees = [reasoner.explain(store, f) for f in inp["facts"]]
        taxonomy = reasoner.classify(store)
        g = graphmap.build_concept_graph(store, include_individuals=True)
        p = graphmap.cluster(g, seed=inp["j"])
        payload = graphmap.export(g, p, inp["format"])
        return answers, trees, taxonomy, g, p, payload

    def check(self, inp, out, note):
        answers, trees, taxonomy, g, p, payload = out
        fails = []
        for c, got in zip(inp["classes"], answers):
            if got != frozenset(self.members.get(c, ())):
                fails.append(f"instances_of({c}) differs from a fact scan")
        for f, tree in zip(inp["facts"], trees):
            if tree.fact != f:
                fails.append(f"explain({f}) root is {tree.fact}")
            stack = [tree]
            while stack:
                node = stack.pop()
                if node.fact not in self.store.facts:
                    fails.append(f"explain({f}) uses unknown fact {node.fact}")
                if not node.premises and node.rule != "asserted":
                    fails.append(f"explain({f}) leaf {node.fact} is "
                                 f"{node.rule}, not asserted")
                stack.extend(node.premises)
        if set(taxonomy.direct_supers) != set(self.classes):
            fails.append("classify does not cover every declared class")
        _check_partition(g, p, note, fails)
        return fails, {"export": sha256(payload)}

    def job_sizes(self, inp, out):
        g = out[3]
        return {"nodes": len(g.nodes), "edges": len(g.edges)}


# --- topics-flat ------------------------------------------------------------


class TopicsFlat(Workload):
    """Flat LDA at K=20 on a planted 20-topic corpus; no ontology work."""

    name = "topics-flat"
    K = 20
    BETA = 0.01
    TOP = 10

    def __init__(self, *args):
        super().__init__(*args)
        if self.smoke:
            self.shape = {"n_topics": self.K, "n_docs": 20, "doc_len": 10,
                          "words_per_topic": 3}
            self.iters = 2
        else:
            self.shape = {"n_topics": self.K, "n_docs": 150, "doc_len": 40,
                          "words_per_topic": 50}
            self.iters = 20

    def sizes(self):
        return {**self.shape, "K": self.K, "iters": self.iters,
                "raw_tokens": self.shape["n_docs"] * self.shape["doc_len"]}

    def make_input(self, j):
        text = planted_corpus_tsv(self.rnd(j), **self.shape)
        return {"j": j, "records": _records(text)}

    def run(self, inp):
        corp = corpus.ingest_corpus(inp["records"])
        state = gibbs.lda_gibbs(corp, K=self.K, alpha=50.0 / self.K,
                                beta=self.BETA, iters=self.iters,
                                seed=inp["j"])
        tops = gibbs.top_words(state, corp, self.TOP)
        ll = gibbs.log_likelihood(state, corp)
        return corp, state, tops, ll

    def check(self, inp, out, note):
        corp, state, tops, ll = out
        fails = []
        _check_counts(state, corp.documents, fails)
        _check_phi(gibbs.phi_matrix(state), fails)
        if not math.isfinite(ll):
            fails.append(f"log-likelihood {ll!r}")
        for k, words in enumerate(tops):
            probs = [prob for _, prob in words]
            if len(words) != min(self.TOP, len(corp.vocabulary)) \
                    or probs != sorted(probs, reverse=True):
                fails.append(f"top_words of topic {k} not ranked")
        return fails, {"z": sha256(json.dumps(state.z))}

    def job_sizes(self, inp, out):
        return _corpus_sizes(out[0], self.iters)


# --- topics-forest ----------------------------------------------------------


class TopicsForest(Workload):
    """The user pipeline `ontomap lda --constrained` then `ontomap tag`,
    in-process through cli.main, at K=2 with the bundled fixture."""

    name = "topics-forest"
    K = 2

    def __init__(self, *args):
        super().__init__(*args)
        self.fixture = self.root / "fixtures" / "obesity-sample.ofn"
        self.phrases = concept_phrases(self.fixture.read_text("utf-8"))
        if self.smoke:
            self.shape = {"n_docs": 20, "doc_len": 12, "n_fillers": 20}
            self.iters = 2
        else:
            self.shape = {"n_docs": 300, "doc_len": 24, "n_fillers": 200}
            self.iters = 30
        self.corpus_path = self.workdir / "corpus.tsv"
        self.model_path = self.workdir / "model.json"
        self.tags_path = self.workdir / "tags.json"
        self.captured = {}
        self._saved = []

    def sizes(self):
        return {**self.shape, "K": self.K, "iters": self.iters,
                "raw_tokens": self.shape["n_docs"] * self.shape["doc_len"],
                "phrases": len(self.phrases)}

    def hook(self):
        """Keep the corpus and sampler state the CLI builds, for the count
        checks; one extra call per job, outside the sampler."""
        def capture(module, attr):
            original = getattr(module, attr)

            def wrapper(*args, **kwargs):
                result = original(*args, **kwargs)
                self.captured[attr] = result
                return result
            self._saved.append((module, attr, original))
            setattr(module, attr, wrapper)
        capture(corpus, "ingest_corpus")
        capture(gibbs, "dflda_gibbs")

    def unhook(self):
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    def make_input(self, j):
        text = fixture_corpus_tsv(self.rnd(j), self.phrases, **self.shape)
        self.corpus_path.write_text(text, encoding="utf-8")
        for path in (self.model_path, self.tags_path):
            if path.exists():
                path.unlink()
        self.captured.clear()
        return {"j": j}

    def run(self, inp):
        sink = io.StringIO()
        fixture = str(self.fixture)
        lda = cli.main(["lda", str(self.corpus_path), "--k", str(self.K),
                        "--ontology", fixture, "--constrained",
                        "--iters", str(self.iters), "--seed", str(inp["j"]),
                        "--out", str(self.model_path)],
                       stdout=sink, stderr=sink)
        tag = cli.main(["tag", str(self.model_path), "--ontology", fixture,
                        "--out", str(self.tags_path)],
                       stdout=sink, stderr=sink)
        return lda, tag, sink.getvalue()

    def check(self, inp, out, note):
        lda, tag, messages = out
        if (lda, tag) != (0, 0):
            return [f"exit codes lda={lda} tag={tag}: {messages[-300:]}"], {}
        fails = []
        raw = self.model_path.read_bytes()
        model = json.loads(raw)
        tags = json.loads(self.tags_path.read_bytes())
        _check_phi(model["phi"], fails)
        if not math.isfinite(model["log_likelihood"]):
            fails.append(f"log-likelihood {model['log_likelihood']!r}")
        if not model["meta"]["constrained"]:
            fails.append("model is not marked constrained")
        if [t["tags"] for t in tags["topics"]] \
                != [t["tags"] for t in model["topics"]]:
            fails.append("tag output differs from the tags lda embedded")
        state = self.captured.get("dflda_gibbs")
        corp = self.captured.get("ingest_corpus")
        if state is None or corp is None:
            fails.append("sampler state was not captured")
        else:
            _check_counts(state, corp.documents, fails)
            if state.forest is None or not state.forest.regions:
                fails.append("constraints yielded no cannot-link region")
        return fails, {"model_json": sha256(raw)}

    def job_sizes(self, inp, out):
        return _corpus_sizes(self.captured["ingest_corpus"], self.iters)


WORKLOADS = {w.name: w for w in (KbBuild, KbExplore, TopicsFlat,
                                 TopicsForest)}
