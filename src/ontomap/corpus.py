"""Corpus ingestion: tokenization, stopword and document-frequency filtering."""

from __future__ import annotations

import json
import logging
import re
from collections import Counter
from dataclasses import dataclass

log = logging.getLogger(__name__)

# small english list; tokenization is deliberately simple (no stemming) so
# that lexicon tokens and corpus tokens agree by construction
DEFAULT_STOPWORDS = frozenset("""
a about after all also an and any are as at be because been before being
between both but by can could did do does down during each few for from
further had has have having he her here hers him his how i if in into is it
its just me more most my no nor not of off on once only or other our out
over own she should so some such than that the their them then there these
they this those through to too under until up very was we were what when
where which while who whom why will with you your
""".split())

_TOKEN_RE = re.compile(r"[A-Za-z0-9]+")
MIN_TOKEN_LEN = 3


class EmptyCorpus(Exception):
    pass


@dataclass(frozen=True)
class Corpus:
    vocabulary: tuple        # word strings, index = word id, sorted
    documents: tuple         # per doc: tuple of word ids
    doc_ids: tuple

    @property
    def vocab_index(self) -> dict:
        return {w: i for i, w in enumerate(self.vocabulary)}

    @property
    def n_tokens(self) -> int:
        return sum(len(d) for d in self.documents)


def tokenize(text: str) -> list:
    return [t for t in _TOKEN_RE.findall(text.lower())
            if len(t) >= MIN_TOKEN_LEN and t not in DEFAULT_STOPWORDS]


def ingest_corpus(records, min_df: int = 2) -> Corpus:
    """Build a corpus from (doc_id, text) records.

    Tokens shorter than ``MIN_TOKEN_LEN``, stopwords, and words appearing in
    fewer than ``min_df`` documents are dropped; documents emptied by
    filtering are dropped with a warning.
    """
    tokenized = [(doc_id, tokenize(text)) for doc_id, text in records]
    df = Counter(w for _, tokens in tokenized for w in set(tokens))
    vocabulary = tuple(sorted(w for w, n in df.items() if n >= min_df))
    index = {w: i for i, w in enumerate(vocabulary)}
    documents = []
    doc_ids = []
    for doc_id, tokens in tokenized:
        ids = tuple(index[w] for w in tokens if w in index)
        if not ids:
            log.warning("document %r is empty after filtering; dropped", doc_id)
            continue
        documents.append(ids)
        doc_ids.append(doc_id)
    if not documents:
        raise EmptyCorpus("no documents survive filtering")
    return Corpus(vocabulary=vocabulary, documents=tuple(documents),
                  doc_ids=tuple(doc_ids))


def read_records(path, json_lines: bool = False):
    """Read corpus records: TSV ``doc_id<TAB>text`` or JSON lines."""
    records = []
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.rstrip("\n")
            if not line:
                continue
            if json_lines:
                obj = json.loads(line)
                text = obj["text"]
                if not isinstance(text, str):
                    raise ValueError(f"line {lineno}: text is not a string")
                records.append((str(obj["id"]), text))
            else:
                doc_id, _, text = line.partition("\t")
                records.append((doc_id, text))
    return records
