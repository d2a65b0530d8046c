"""Command-line pipeline: validate -> reason -> graph -> lda -> tag.

Exit codes are a stable contract:
  0  success
  1  parse errors in the ontology
  2  I/O failure (unreadable/missing input, unwritable output)
  3  reasoner found violations (report is still written)
  4  empty concept graph
  5  corpus empty after filtering
  6  constraint regions exceed the branch budget
  64 usage error: a malformed or out-of-range flag, ``--constrained``
     without ``--ontology``, or hyperparameters the sampler rejects

Diagnostics print to standard error one per line as
``severity:line:col:code:message``.  Violations print one per line as
``kind<TAB>entities<TAB>witness facts``.  All randomness flows from
``--seed`` (default 42); outputs are byte-stable for identical inputs.
"""

from __future__ import annotations

import argparse
import json
import logging
import math
import sys

from . import constraints as constraints_mod
from . import corpus as corpus_mod
from . import forest as forest_mod
from . import gibbs as gibbs_mod
from . import graphmap, ofn, reasoner
from .model import build_lexicon, compute_metrics


# --- metrics text format ----------------------------------------------------


def format_metrics(rows: dict) -> str:
    width = max(len(k) for k in rows)
    return "\n".join(f"{k:<{width}}  {v}" for k, v in rows.items()) + "\n"


# --- shared helpers ---------------------------------------------------------


def _load_ontology(path, stderr):
    try:
        result = ofn.parse_file(path)
    except (OSError, UnicodeDecodeError) as exc:
        print(f"error: cannot read {path}: {exc}", file=stderr)
        return None, 2
    for diag in result.diagnostics:
        print(str(diag), file=stderr)
    if result.ontology is None:
        return None, 1
    return result.ontology, 0


def _write_bytes(path, payload: bytes, stderr, stdout):
    if path is None or path == "-":
        stdout.buffer.write(payload) if hasattr(stdout, "buffer") \
            else stdout.write(payload.decode("utf-8"))
        return 0
    try:
        with open(path, "wb") as fh:
            fh.write(payload)
    except OSError as exc:
        print(f"error: cannot write {path}: {exc}", file=stderr)
        return 2
    return 0


def _json_bytes(obj) -> bytes:
    return (json.dumps(obj, indent=2, sort_keys=True) + "\n").encode("utf-8")


# --- subcommands ------------------------------------------------------------


def cmd_validate(args, stdout, stderr) -> int:
    _, code = _load_ontology(args.ontology, stderr)
    return code


def cmd_metrics(args, stdout, stderr) -> int:
    o, code = _load_ontology(args.ontology, stderr)
    if code:
        return code
    stdout.write(format_metrics(compute_metrics(o)))
    return 0


def cmd_reason(args, stdout, stderr) -> int:
    o, code = _load_ontology(args.ontology, stderr)
    if code:
        return code
    store = reasoner.saturate(o, strict=args.strict)
    by_kind = {"IsA": 0, "Rel": 0, "Sub": 0}
    for f in store.facts:
        by_kind[type(f).__name__] += 1
    report = {
        "facts": {**by_kind, "total": len(store.facts)},
        "strict": bool(args.strict),
        "violations": [
            {"kind": v.kind,
             "involved": [str(x) for x in v.involved],
             "witnesses": [str(w) for w in v.witnesses]}
            for v in store.violations],
    }
    for v in store.violations:
        entities = ",".join(str(x) for x in v.involved)
        witnesses = ",".join(str(w) for w in v.witnesses)
        stdout.write(f"{v.kind}\t{entities}\t{witnesses}\n")
    if args.out:
        code = _write_bytes(args.out, _json_bytes(report), stderr, stdout)
        if code:
            return code
    return 3 if store.violations else 0


def cmd_graph(args, stdout, stderr) -> int:
    o, code = _load_ontology(args.ontology, stderr)
    if code:
        return code
    store = reasoner.saturate(o)
    g = graphmap.build_concept_graph(store,
                                     include_individuals=args.individuals)
    if not g.nodes:
        print("error: concept graph is empty", file=stderr)
        return 4
    partition = graphmap.cluster(g, seed=args.seed) if args.cluster else None
    payload = graphmap.export(g, partition, args.format)
    return _write_bytes(args.out, payload, stderr, stdout)


def _read_corpus(args, stderr):
    try:
        records = corpus_mod.read_records(args.corpus,
                                          json_lines=args.json_lines)
    except OSError as exc:
        print(f"error: cannot read {args.corpus}: {exc}", file=stderr)
        return None, 2
    except (ValueError, KeyError, TypeError) as exc:
        print(f"error: malformed corpus {args.corpus}: {exc}", file=stderr)
        return None, 2
    return corpus_mod.ingest_corpus(records, min_df=args.min_df), 0


def _model_payload(state, corpus, lexicon, args, constrained):
    phi = gibbs_mod.phi_matrix(state)
    tops = gibbs_mod.rank_words(phi, corpus.vocabulary, args.top)
    topics = []
    tags = gibbs_mod.score_tags(tops, lexicon) if lexicon else None
    for k in range(state.K):
        entry = {"id": k,
                 "top_words": [[w, p] for w, p in tops[k]]}
        if tags is not None:
            entry["tags"] = [[str(c), s] for c, s in tags[k]]
        topics.append(entry)
    return {
        "meta": {"k": state.K, "alpha": state.alpha, "beta": state.beta,
                 "iters": state.iters, "seed": state.seed,
                 "constrained": constrained},
        "vocabulary": list(corpus.vocabulary),
        "phi": phi,
        "topics": topics,
        "log_likelihood": gibbs_mod.log_likelihood(state, corpus),
    }


def cmd_lda(args, stdout, stderr) -> int:
    if args.constrained and not args.ontology:
        print("error: --constrained requires --ontology", file=stderr)
        return 64
    corpus, code = _read_corpus(args, stderr)
    if code:
        return code
    lexicon = None
    if args.ontology:
        o, code = _load_ontology(args.ontology, stderr)
        if code:
            return code
        lexicon = build_lexicon(o)
    alpha = args.alpha if args.alpha is not None else 50.0 / args.k
    if args.constrained:
        cs = constraints_mod.derive_constraints(o, lexicon, corpus.vocabulary)
        df = forest_mod.build_forest(cs, corpus.vocabulary, beta=args.beta,
                                     eta=args.eta, epsilon=args.epsilon)
        state = gibbs_mod.dflda_gibbs(corpus, df, K=args.k, alpha=alpha,
                                      iters=args.iters, seed=args.seed)
    else:
        state = gibbs_mod.lda_gibbs(corpus, K=args.k, alpha=alpha,
                                    beta=args.beta, iters=args.iters,
                                    seed=args.seed)
    payload = _model_payload(state, corpus, lexicon, args, args.constrained)
    return _write_bytes(args.out, _json_bytes(payload), stderr, stdout)


def cmd_tag(args, stdout, stderr) -> int:
    try:
        with open(args.model, encoding="utf-8") as fh:
            model = json.load(fh)
        phi, vocabulary = model["phi"], model["vocabulary"]
        if not (isinstance(vocabulary, list)
                and all(isinstance(w, str) for w in vocabulary)):
            raise ValueError("vocabulary is not a list of strings")
        if len(set(vocabulary)) < len(vocabulary):
            raise ValueError("vocabulary repeats a word")
        for k, row in enumerate(phi):
            if not (isinstance(row, list) and len(row) == len(vocabulary)
                    and all(isinstance(p, float) and math.isfinite(p)
                            for p in row)):
                raise ValueError(f"phi row {k} is not one float per word")
    except OSError as exc:
        print(f"error: cannot read {args.model}: {exc}", file=stderr)
        return 2
    except (ValueError, KeyError, TypeError) as exc:
        print(f"error: malformed model file {args.model}: {exc}", file=stderr)
        return 2
    o, code = _load_ontology(args.ontology, stderr)
    if code:
        return code
    lexicon = build_lexicon(o)
    tags = gibbs_mod.score_tags(
        gibbs_mod.rank_words(phi, vocabulary, args.top), lexicon)
    tagged = [{"id": k, "tags": [[str(c), s] for c, s in scored]}
              for k, scored in enumerate(tags)]
    return _write_bytes(args.out, _json_bytes({"topics": tagged}),
                        stderr, stdout)


# --- argument parsing -------------------------------------------------------


class _HelpRequested(Exception):
    """``-h``/``--help`` was given; carries the help text."""


class _ArgumentParser(argparse.ArgumentParser):
    """Raises on usage errors, which ``main`` reports with exit code 64, and
    hands help text to ``main`` instead of printing it and exiting."""

    def error(self, message):
        raise argparse.ArgumentError(None, message)

    def print_help(self, file=None):
        raise _HelpRequested(self.format_help())


def _ranged(convert, ok, what):
    """An argparse ``type``: ``convert`` the text, then require ``ok``."""
    def parse(text):
        try:
            value = convert(text)
            if ok(value):
                return value
        except ValueError:
            pass
        raise argparse.ArgumentTypeError(f"expected {what}, got {text!r}")
    return parse


_COUNT = _ranged(int, lambda v: v >= 1, "an integer >= 1")
_SEED = _ranged(int, lambda v: v >= 0, "an integer >= 0")
_POSITIVE = _ranged(float, lambda v: 0 < v < math.inf, "a finite number > 0")
_AT_LEAST_ONE = _ranged(float, lambda v: 1 <= v < math.inf,
                        "a finite number >= 1")
_FRACTION = _ranged(float, lambda v: 0 < v <= 1, "a number in (0, 1]")


def build_parser() -> argparse.ArgumentParser:
    parser = _ArgumentParser(
        prog="ontomap",
        description="Ontology toolkit: parsing, reasoning, concept graphs, "
                    "and constrained topic models.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="parse an ontology, report diagnostics")
    p.add_argument("ontology")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("metrics", help="print ontology metrics")
    p.add_argument("ontology")
    p.set_defaults(func=cmd_metrics)

    p = sub.add_parser("reason", help="saturate and report violations")
    p.add_argument("ontology")
    p.add_argument("--strict", action="store_true",
                   help="also flag domain/range derivations not otherwise "
                        "entailed")
    p.add_argument("--out", help="write JSON report here")
    p.set_defaults(func=cmd_reason)

    p = sub.add_parser("graph", help="export the concept graph")
    p.add_argument("ontology")
    p.add_argument("--cluster", action="store_true")
    p.add_argument("--seed", type=_SEED, default=42)
    p.add_argument("--format", default="dot", choices=graphmap.FORMATS)
    p.add_argument("--individuals", action="store_true")
    p.add_argument("--out", help="output path (default: stdout)")
    p.set_defaults(func=cmd_graph)

    p = sub.add_parser("lda", help="fit a topic model on a corpus")
    p.add_argument("corpus", help="TSV doc_id<TAB>text (or JSON lines)")
    p.add_argument("--json-lines", action="store_true")
    p.add_argument("--k", type=_COUNT, default=10)
    p.add_argument("--alpha", type=_POSITIVE, default=None,
                   help="default 50/k")
    p.add_argument("--beta", type=_POSITIVE, default=0.01)
    p.add_argument("--eta", type=_AT_LEAST_ONE, default=100.0)
    p.add_argument("--epsilon", type=_FRACTION, default=1e-6)
    p.add_argument("--iters", type=_COUNT, default=1000)
    p.add_argument("--seed", type=_SEED, default=42)
    p.add_argument("--top", type=_COUNT, default=10)
    p.add_argument("--min-df", type=_COUNT, default=2)
    p.add_argument("--ontology", help="adds concept tags to the output")
    p.add_argument("--constrained", action="store_true",
                   help="derive constraints from --ontology and use the "
                        "forest prior")
    p.add_argument("--out", help="output path (default: stdout)")
    p.set_defaults(func=cmd_lda)

    p = sub.add_parser("tag", help="tag an existing model output with "
                                   "ontology concepts")
    p.add_argument("model", help="JSON produced by the lda subcommand")
    p.add_argument("--ontology", required=True)
    p.add_argument("--top", type=_COUNT, default=10)
    p.add_argument("--out", help="output path (default: stdout)")
    p.set_defaults(func=cmd_tag)
    return parser


# exit codes of the domain failures; any other exception is a bug
_EXIT_CODES = {corpus_mod.EmptyCorpus: 5, forest_mod.TooManyCliques: 6,
               gibbs_mod.InvalidHyperparameter: 64}


def main(argv=None, stdout=None, stderr=None) -> int:
    stdout = stdout if stdout is not None else sys.stdout
    stderr = stderr if stderr is not None else sys.stderr
    try:
        args = build_parser().parse_args(argv)
    except argparse.ArgumentError as exc:
        print(f"error: {exc}", file=stderr)
        return 64
    except _HelpRequested as exc:
        stdout.write(exc.args[0])
        return 0
    # the package's warnings (a dropped document, a pruned constraint) go
    # to this call's stderr
    warnings = logging.StreamHandler(stderr)
    warnings.setFormatter(logging.Formatter("warning: %(message)s"))
    logger = logging.getLogger("ontomap")
    logger.addHandler(warnings)
    try:
        return args.func(args, stdout, stderr)
    except tuple(_EXIT_CODES) as exc:
        print(f"error: {exc}", file=stderr)
        return _EXIT_CODES[type(exc)]
    finally:
        logger.removeHandler(warnings)


def entrypoint():
    raise SystemExit(main())


if __name__ == "__main__":
    entrypoint()
