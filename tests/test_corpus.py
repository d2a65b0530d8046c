import json

import pytest

from ontomap.corpus import (
    Corpus,
    EmptyCorpus,
    ingest_corpus,
    read_records,
    tokenize,
)


def test_tokenize_lowercases_filters_short_and_stopwords():
    assert tokenize("The Body-Mass INDEX is 30!") == ["body", "mass", "index"]


def test_ingest_applies_min_df_and_drops_empty_docs():
    records = [("a", "obesity diet"), ("b", "obesity exercise"),
               ("c", "zzzunique")]
    corpus = ingest_corpus(records, min_df=2)
    assert corpus.vocabulary == ("obesity",)
    assert corpus.doc_ids == ("a", "b")  # c emptied out and was dropped
    assert corpus.documents == ((0,), (0,))


def test_ingest_empty_corpus_raises():
    with pytest.raises(EmptyCorpus):
        ingest_corpus([("a", "of the and")])


def test_vocab_sorted_and_ids_stable():
    records = [("a", "zebra apple zebra"), ("b", "apple zebra mango"),
               ("c", "mango apple")]
    corpus = ingest_corpus(records, min_df=2)
    assert corpus.vocabulary == tuple(sorted(corpus.vocabulary))
    assert corpus.n_tokens == sum(len(d) for d in corpus.documents)
    assert corpus.vocabulary.index("apple") == 0


def test_read_records_tsv(tmp_path):
    p = tmp_path / "c.tsv"
    p.write_text("d1\thello world\nd2\tsecond doc\n\n", encoding="utf-8")
    assert read_records(p) == [("d1", "hello world"), ("d2", "second doc")]


def test_read_records_json_lines(tmp_path):
    p = tmp_path / "c.jsonl"
    rows = [{"id": "d1", "text": "hello"}, {"id": 2, "text": "world"}]
    p.write_text("\n".join(json.dumps(r) for r in rows), encoding="utf-8")
    assert read_records(p, json_lines=True) == [("d1", "hello"), ("2", "world")]
