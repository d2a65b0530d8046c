"""Spans recorded from outside the program, around calls into each layer.

`Tracer.install` replaces each public entry point with a recording wrapper
at the module attribute its callers look up, and `uninstall` puts the
originals back.  Two kinds of caller are covered:

- callers that go through a module (`ofn.parse`, `gibbs_mod.phi_matrix`)
  or call a function of their own module by its global name (`top_words`
  calling `phi_matrix`): wrapping the defining module's attribute catches
  both;
- modules that imported the function by name (`graphmap` imports
  `classify`, `cli` imports `build_lexicon`): those names are wrapped in
  the importing module too.

A call made while a span of the same name is innermost is passed through
unrecorded, so `explain`'s recursion gives one span per outer call.  Spans
are kept in memory and written out when the run ends.
"""

from __future__ import annotations

import functools
import json
import statistics
import time

from ontomap import (cli, constraints, corpus, forest, gibbs, graphmap, ofn,
                     reasoner)


def _parse_counts(args, kwargs, result):
    return {"axioms": len(result.ontology.axioms) if result.ontology else 0}


def _saturate_counts(args, kwargs, result):
    return {"facts": len(result.facts), "violations": len(result.violations)}


def _graph_counts(args, kwargs, result):
    return {"nodes": len(result.nodes), "edges": len(result.edges)}


def _cluster_counts(args, kwargs, result):
    g = args[0] if args else kwargs["g"]
    return {"edges": len(g.edges),
            "communities": len(set(result.assignment.values()))}


def _ingest_counts(args, kwargs, result):
    return {"tokens": result.n_tokens}


def _constraint_counts(args, kwargs, result):
    return {"must_links": len(result.must_links),
            "cannot_links": len(result.cannot_links)}


def _forest_counts(args, kwargs, result):
    return {"regions": len(result.regions),
            "branches": sum(len(r.cliques) for r in result.regions)}


def _sample_counts(args, kwargs, result):
    corp = args[0] if args else kwargs["corpus"]
    return {"token_sweeps": corp.n_tokens * result.iters}


# (module, attribute, span name, counts taken from args and result)
TARGETS = (
    (ofn, "parse", "ofn.parse", _parse_counts),
    (ofn, "parse_file", "ofn.parse_file", None),
    (ofn, "serialize", "ofn.serialize", None),
    (reasoner, "saturate", "reasoner.saturate", _saturate_counts),
    (reasoner, "classify", "reasoner.classify", None),
    (graphmap, "classify", "reasoner.classify", None),
    (reasoner, "instances_of", "reasoner.instances_of", None),
    (reasoner, "explain", "reasoner.explain", None),
    (graphmap, "build_concept_graph", "graphmap.build_concept_graph",
     _graph_counts),
    (graphmap, "cluster", "graphmap.cluster", _cluster_counts),
    (graphmap, "export", "graphmap.export", None),
    (corpus, "read_records", "corpus.read_records", None),
    (corpus, "ingest_corpus", "corpus.ingest_corpus", _ingest_counts),
    (cli, "build_lexicon", "model.build_lexicon", None),
    (constraints, "derive_constraints", "constraints.derive_constraints",
     _constraint_counts),
    (forest, "build_forest", "forest.build_forest", _forest_counts),
    (gibbs, "lda_gibbs", "gibbs.sample", _sample_counts),
    (gibbs, "dflda_gibbs", "gibbs.sample", _sample_counts),
    (gibbs, "phi_matrix", "gibbs.phi_matrix", None),
    (gibbs, "top_words", "gibbs.top_words", None),
    (gibbs, "tag_topics", "gibbs.tag_topics", None),
    (gibbs, "log_likelihood", "gibbs.log_likelihood", None),
    (cli, "main", "cli.main", None),
)


class Tracer:
    """In-memory span recorder.

    A span is recorded only while `job` is set; the benchmark clears it
    while it checks outputs, so checking calls into the program add no
    spans.
    """

    def __init__(self):
        self.t0 = time.perf_counter()
        self.spans = []     # dicts: id, name, start, end, parent, job, counts
        self.notes = {}     # job -> {metric: value} from output checks
        self.job = None
        self._stack = []
        self._saved = []

    def install(self):
        for module, attr, name, counts in TARGETS:
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr, self._wrap(original, name, counts))

    def uninstall(self):
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    def note(self, job, key, value):
        """A per-job value found while checking outputs (not a span)."""
        self.notes.setdefault(job, {})[key] = value

    def _wrap(self, fn, name, counts):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = tracer._stack
            if tracer.job is None or (stack and stack[-1]["name"] == name):
                return fn(*args, **kwargs)
            span = {"id": len(tracer.spans), "name": name,
                    "parent": stack[-1]["id"] if stack else None,
                    "job": tracer.job}
            tracer.spans.append(span)
            stack.append(span)
            span["start"] = time.perf_counter() - tracer.t0
            try:
                result = fn(*args, **kwargs)
            finally:
                span["end"] = time.perf_counter() - tracer.t0
                stack.pop()
            if counts is not None:
                span["counts"] = counts(args, kwargs, result)
            return result

        return wrapper

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span, sort_keys=True) + "\n")


def unit_of(metric: str) -> str:
    """Unit of a per-layer metric, from its name."""
    special = {"ofn.parse_axioms_per_s": "axioms/s",
               "reasoner.facts_per_s": "facts/s",
               "graphmap.cluster_edges_per_s": "edges/s",
               "gibbs.sample_tokens_per_s": "token-sweeps/s",
               "graphmap.modularity": "Q",
               "trace_overhead_ratio": "ratio"}
    if metric in special:
        return special[metric]
    return "s" if metric.endswith(("_s", "_s_p50")) else "count"


def _median(values):
    return statistics.median(values) if values else 0.0


def _rate(work, seconds):
    return work / seconds if seconds > 0 else 0.0


def layer_metrics(tracer: Tracer) -> dict:
    """Per-layer metrics from the recorded spans.

    Times and counts are summed per job and reported as the median over
    the jobs in which the span occurs (0 where a workload never calls the
    layer).  `*_s_p50` metrics are medians over single calls.  A layer's
    self time is its spans' durations minus the time their child spans
    cover.
    """
    dur = {s["id"]: s["end"] - s["start"] for s in tracer.spans}
    child_time = {}
    for s in tracer.spans:
        if s["parent"] is not None:
            child_time[s["parent"]] = child_time.get(s["parent"], 0.0) \
                + dur[s["id"]]
    per_job = {}    # job -> {key: summed value}
    calls = {}      # span name -> list of single-call durations
    for s in tracer.spans:
        acc = per_job.setdefault(s["job"], {})
        name = s["name"]
        layer = name.split(".", 1)[0]
        acc[name + "_s"] = acc.get(name + "_s", 0.0) + dur[s["id"]]
        acc[name + ".calls"] = acc.get(name + ".calls", 0) + 1
        acc[layer + ".self_s"] = acc.get(layer + ".self_s", 0.0) \
            + dur[s["id"]] - child_time.get(s["id"], 0.0)
        for key, value in s.get("counts", {}).items():
            k = f"{name}.{key}"
            acc[k] = acc.get(k, 0) + value
        calls.setdefault(name, []).append(dur[s["id"]])
    for job, notes in tracer.notes.items():
        per_job.setdefault(job, {}).update(notes)

    def med(key):
        return _median([acc[key] for acc in per_job.values() if key in acc])

    def med_rate(work_key, time_key):
        return _median([_rate(acc[work_key], acc[time_key])
                        for acc in per_job.values()
                        if work_key in acc and time_key in acc])

    return {
        "ofn.parse_s": med("ofn.parse_s"),
        "ofn.parse_axioms_per_s": med_rate("ofn.parse.axioms", "ofn.parse_s"),
        "ofn.serialize_s": med("ofn.serialize_s"),
        "ofn.self_s": med("ofn.self_s"),
        "reasoner.saturate_s": med("reasoner.saturate_s"),
        "reasoner.facts_per_s": med_rate("reasoner.saturate.facts",
                                         "reasoner.saturate_s"),
        "reasoner.facts": med("reasoner.saturate.facts"),
        "reasoner.violations": med("reasoner.saturate.violations"),
        "reasoner.classify_s": med("reasoner.classify_s"),
        "reasoner.instances_of_s_p50":
            _median(calls.get("reasoner.instances_of", [])),
        "reasoner.explain_s_p50": _median(calls.get("reasoner.explain", [])),
        "reasoner.instances_of.calls": med("reasoner.instances_of.calls"),
        "reasoner.self_s": med("reasoner.self_s"),
        "graphmap.build_concept_graph_s":
            med("graphmap.build_concept_graph_s"),
        "graphmap.cluster_s": med("graphmap.cluster_s"),
        "graphmap.cluster_edges_per_s": med_rate("graphmap.cluster.edges",
                                                 "graphmap.cluster_s"),
        "graphmap.export_s": med("graphmap.export_s"),
        "graphmap.nodes": med("graphmap.build_concept_graph.nodes"),
        "graphmap.edges": med("graphmap.build_concept_graph.edges"),
        "graphmap.communities": med("graphmap.cluster.communities"),
        "graphmap.modularity": med("graphmap.modularity"),
        "graphmap.self_s": med("graphmap.self_s"),
        "corpus.read_records_s": med("corpus.read_records_s"),
        "corpus.ingest_corpus_s": med("corpus.ingest_corpus_s"),
        "corpus.tokens": med("corpus.ingest_corpus.tokens"),
        "corpus.self_s": med("corpus.self_s"),
        "model.build_lexicon_s": med("model.build_lexicon_s"),
        "constraints.derive_constraints_s":
            med("constraints.derive_constraints_s"),
        "constraints.must_links":
            med("constraints.derive_constraints.must_links"),
        "constraints.cannot_links":
            med("constraints.derive_constraints.cannot_links"),
        "constraints.self_s": med("constraints.self_s"),
        "forest.build_forest_s": med("forest.build_forest_s"),
        "forest.regions": med("forest.build_forest.regions"),
        "forest.branches": med("forest.build_forest.branches"),
        "forest.self_s": med("forest.self_s"),
        "gibbs.sample_s": med("gibbs.sample_s"),
        "gibbs.sample_tokens_per_s": med_rate("gibbs.sample.token_sweeps",
                                              "gibbs.sample_s"),
        "gibbs.phi_matrix_s": med("gibbs.phi_matrix_s"),
        "gibbs.phi_matrix.calls": med("gibbs.phi_matrix.calls"),
        "gibbs.top_words_s": med("gibbs.top_words_s"),
        "gibbs.tag_topics_s": med("gibbs.tag_topics_s"),
        "gibbs.log_likelihood_s": med("gibbs.log_likelihood_s"),
        "gibbs.self_s": med("gibbs.self_s"),
        "cli.main_s": med("cli.main_s"),
        "cli.self_s": med("cli.self_s"),
    }
