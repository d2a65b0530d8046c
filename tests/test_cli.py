import io
import json
import logging
import os
import pathlib
import subprocess
import sys

import pytest

from ontomap import cli
from ontomap.model import compute_metrics

EMPTY_ONT = """Prefix(:=<http://example.org/empty#>)
Ontology(<http://example.org/empty>
)
"""


def run(argv):
    out, err = io.StringIO(), io.StringIO()
    code = cli.main(argv, stdout=out, stderr=err)
    return code, out.getvalue(), err.getvalue()


def subprocess_env(**variables):
    """This environment, with the package's source first on PYTHONPATH."""
    src = str(pathlib.Path(cli.__file__).parents[1])
    return dict(os.environ, **variables, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))


@pytest.fixture()
def corpus_path(tmp_path):
    from ontomap.synthetic import HEALTH_SNIPPETS
    p = tmp_path / "corpus.tsv"
    p.write_text("".join(f"{i}\t{t}\n" for i, t in HEALTH_SNIPPETS),
                 encoding="utf-8")
    return str(p)


# --- validate ----------------------------------------------------------------


def test_validate_fixture_ok(fixture_path):
    code, _, err = run(["validate", str(fixture_path)])
    assert code == 0 and err == ""


def test_validate_reports_errors(tmp_path):
    p = tmp_path / "bad.ofn"
    p.write_text(EMPTY_ONT.replace(")\n", "SubClassOf(:A)\n)\n", 1),
                 encoding="utf-8")
    code, _, err = run(["validate", str(p)])
    assert code == 1
    assert err.splitlines() and err.splitlines()[0].startswith("error:")


def test_validate_missing_file_is_io_error():
    code, _, err = run(["validate", "/no/such/file.ofn"])
    assert code == 2 and "error:" in err


# --- metrics -----------------------------------------------------------------


def test_metrics_prints_one_line_per_row_in_order(fixture_path,
                                                  fixture_ontology):
    code, out, _ = run(["metrics", str(fixture_path)])
    assert code == 0
    rows = compute_metrics(fixture_ontology)
    lines = out.splitlines()
    assert len(lines) == len(rows)
    for line, (key, value) in zip(lines, rows.items()):
        assert line.startswith(f"{key} ") and line.endswith(f"  {value}")


def test_metrics_empty_ontology_all_zero(tmp_path):
    p = tmp_path / "empty.ofn"
    p.write_text(EMPTY_ONT, encoding="utf-8")
    code, out, _ = run(["metrics", str(p)])
    assert code == 0
    values = {key.rstrip(): value for key, value in
              (line.rsplit("  ", 1) for line in out.splitlines())}
    assert values.pop("DL expressivity") == "S"
    assert "Axiom" in values and set(values.values()) == {"0"}


# --- reason ------------------------------------------------------------------


def test_reason_fixture_clean(fixture_path, tmp_path):
    report = tmp_path / "report.json"
    code, out, _ = run(["reason", str(fixture_path), "--out", str(report)])
    assert code == 0 and out == ""
    payload = json.loads(report.read_text())
    assert payload["violations"] == []
    assert payload["facts"]["total"] > 0


def test_reason_violations_exit_3_and_report_written(fixture_path, tmp_path):
    bad = tmp_path / "bad.ofn"
    text = fixture_path.read_text(encoding="utf-8")
    # inject a self-loop on the irreflexive property before the closing paren
    idx = text.rstrip().rfind(")")
    injected = text.rstrip()[:idx] + \
        "ObjectPropertyAssertion(:medCondMayLeadToMedCond :Obesity :Obesity)\n)\n"
    bad.write_text(injected, encoding="utf-8")
    report = tmp_path / "report.json"
    code, out, _ = run(["reason", str(bad), "--out", str(report)])
    assert code == 3
    assert out.splitlines()[0].split("\t")[0] == "IrreflexiveLoop"
    payload = json.loads(report.read_text())
    assert payload["violations"][0]["kind"] == "IrreflexiveLoop"


def test_reason_report_byte_stable(fixture_path, tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    run(["reason", str(fixture_path), "--out", str(a)])
    run(["reason", str(fixture_path), "--out", str(b)])
    assert a.read_bytes() == b.read_bytes()


# --- graph -------------------------------------------------------------------


def test_graph_dot_output(fixture_path, tmp_path):
    out_path = tmp_path / "g.dot"
    code, _, _ = run(["graph", str(fixture_path), "--format", "dot",
                      "--out", str(out_path)])
    assert code == 0
    text = out_path.read_text()
    assert text.startswith("digraph")
    assert "canBeTreated" in text


def test_graph_empty_ontology_exit_4(tmp_path):
    p = tmp_path / "empty.ofn"
    p.write_text(EMPTY_ONT, encoding="utf-8")
    code, _, err = run(["graph", str(p), "--cluster"])
    assert code == 4 and "error:" in err


def test_graph_byte_stable(fixture_path, tmp_path):
    a, b = tmp_path / "a.graphml", tmp_path / "b.graphml"
    for path in (a, b):
        code, _, _ = run(["graph", str(fixture_path), "--cluster",
                          "--format", "graphml", "--seed", "42",
                          "--out", str(path)])
        assert code == 0
    assert a.read_bytes() == b.read_bytes()


# --- lda / tag ---------------------------------------------------------------


def test_lda_output_shape_and_determinism(corpus_path, tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    for path in (a, b):
        code, _, _ = run(["lda", corpus_path, "--k", "2", "--iters", "30",
                          "--out", str(path)])
        assert code == 0
    assert a.read_bytes() == b.read_bytes()
    payload = json.loads(a.read_text())
    assert len(payload["topics"]) == 2
    assert payload["meta"]["seed"] == 42
    assert not payload["meta"]["constrained"]


def test_lda_constrained_requires_ontology(corpus_path):
    code, _, err = run(["lda", corpus_path, "--constrained"])
    assert code == 64 and "--ontology" in err


@pytest.mark.parametrize("flags", [
    ["--k", "0"], ["--k", "two"], ["--iters", "0"], ["--top", "0"],
    ["--alpha", "0"], ["--beta", "0"], ["--eta", "0.5"], ["--epsilon", "2"],
    ["--seed", "-1"], ["--beta", "nan"], ["--bogus"],
    ["--alpha", "1e308"], ["--beta", "1e306"],
    ["--constrained", "--eta", "1e308"],
    ["--constrained", "--beta", "1e-320"],
    ["--min-df", "0"], ["--min-df", "-1"],
], ids=" ".join)
def test_lda_bad_flag_is_usage_error_exit_64(corpus_path, fixture_path,
                                             flags):
    code, out, err = run(["lda", corpus_path, "--iters", "1",
                          "--ontology", str(fixture_path)] + flags)
    assert code == 64 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


def test_package_warnings_print_to_the_given_stderr(corpus_path, fixture_path,
                                                   tmp_path, capfd):
    p = tmp_path / "with-empty.tsv"
    p.write_text(pathlib.Path(corpus_path).read_text(encoding="utf-8")
                 + "empty\tof the and\n", encoding="utf-8")
    handlers = list(logging.getLogger("ontomap").handlers)
    code, out, err = run(["lda", str(p), "--k", "2", "--iters", "2",
                          "--ontology", str(fixture_path), "--constrained"])
    assert code == 0 and out
    assert "warning: document 'empty' is empty after filtering; dropped\n" \
        in err
    assert all(line.startswith("warning: ") for line in err.splitlines())
    assert capfd.readouterr().err == ""
    assert logging.getLogger("ontomap").handlers == handlers


def test_lda_json_lines_non_string_text_exit_2(tmp_path):
    p = tmp_path / "corpus.jsonl"
    p.write_text('{"id": 1, "text": "diet and exercise"}\n'
                 '{"id": 2, "text": 5}\n', encoding="utf-8")
    code, _, err = run(["lda", str(p), "--json-lines"])
    assert code == 2
    assert err == (f"error: malformed corpus {p}: "
                   "line 2: text is not a string\n")


def test_non_utf8_inputs_exit_2(fixture_path, tmp_path):
    bad = tmp_path / "bad.bin"
    bad.write_bytes(b"d1\t\xff\xfe obesity\n")
    assert run(["validate", str(bad)])[0] == 2
    assert run(["lda", str(bad)])[0] == 2
    assert run(["tag", str(bad), "--ontology", str(fixture_path)])[0] == 2


def test_tag_model_without_phi_exit_2(fixture_path, tmp_path):
    model = tmp_path / "model.json"
    model.write_text('{"topics": []}\n', encoding="utf-8")
    code, _, err = run(["tag", str(model), "--ontology", str(fixture_path)])
    assert code == 2
    assert err == f"error: malformed model file {model}: 'phi'\n"


@pytest.mark.parametrize("model, message", [
    ('{"phi": [[0.5]], "vocabulary": []}',
     "phi row 0 is not one float per word"),
    ('{"phi": [[0.5], ["x"]], "vocabulary": ["a"]}',
     "phi row 1 is not one float per word"),
    ('{"phi": [[0.5]], "vocabulary": [["a"]]}',
     "vocabulary is not a list of strings"),
    ('{"phi": [[0.5], [NaN]], "vocabulary": ["a"]}',
     "phi row 1 is not one float per word"),
    ('{"phi": [[Infinity, 0.5]], "vocabulary": ["a", "b"]}',
     "phi row 0 is not one float per word"),
    ('{"phi": [[0.5, -Infinity]], "vocabulary": ["a", "b"]}',
     "phi row 0 is not one float per word"),
], ids=["short-row", "string-entry", "list-word", "nan", "infinity",
        "minus-infinity"])
def test_tag_model_phi_not_matching_vocabulary_exit_2(fixture_path, tmp_path,
                                                      model, message):
    path = tmp_path / "model.json"
    path.write_text(model, encoding="utf-8")
    code, _, err = run(["tag", str(path), "--ontology", str(fixture_path)])
    assert code == 2
    assert err == f"error: malformed model file {path}: {message}\n"


def test_lda_empty_corpus_exit_5(tmp_path):
    p = tmp_path / "empty.tsv"
    p.write_text("d1\tof the and\n", encoding="utf-8")
    code, _, err = run(["lda", str(p), "--k", "2"])
    assert code == 5 and "error:" in err


def test_lda_too_many_cliques_exit_6(tmp_path):
    # 129 pairwise-disjoint single-token classes -> one region with 129
    # singleton branches, over the default budget of 128
    words = []
    for i in range(129):
        words.append("tok" + "".join(
            "abcdefghij"[int(c)] for c in f"{i:03d}"))
    classes = [w.capitalize() for w in words]
    lines = ["Prefix(:=<http://example.org/big#>)",
             "Ontology(<http://example.org/big>"]
    lines += [f"Declaration(Class(:{c}))" for c in classes]
    lines.append("DisjointClasses(" + " ".join(f":{c}" for c in classes) + ")")
    lines.append(")")
    ont = tmp_path / "big.ofn"
    ont.write_text("\n".join(lines) + "\n", encoding="utf-8")
    corpus = tmp_path / "big.tsv"
    text = " ".join(words)
    corpus.write_text(f"d1\t{text}\nd2\t{text}\n", encoding="utf-8")
    code, _, err = run(["lda", str(corpus), "--k", "2", "--iters", "1",
                        "--ontology", str(ont), "--constrained"])
    assert code == 6 and "error:" in err


def test_lda_with_ontology_adds_tags_and_tag_subcommand(
        corpus_path, fixture_path, tmp_path):
    model = tmp_path / "model.json"
    code, _, _ = run(["lda", corpus_path, "--k", "2", "--iters", "50",
                      "--ontology", str(fixture_path), "--constrained",
                      "--out", str(model)])
    assert code == 0
    payload = json.loads(model.read_text())
    assert payload["meta"]["constrained"]
    assert all("tags" in t for t in payload["topics"])
    tags_out = tmp_path / "tags.json"
    code, _, _ = run(["tag", str(model), "--ontology", str(fixture_path),
                      "--out", str(tags_out)])
    assert code == 0
    tags = json.loads(tags_out.read_text())
    # the tag subcommand reproduces the embedded tags exactly
    for embedded, standalone in zip(payload["topics"], tags["topics"]):
        assert embedded["tags"] == standalone["tags"]


def test_console_entrypoint_runs(fixture_path):
    proc = subprocess.run(
        [sys.executable, "-m", "ontomap.cli", "validate", str(fixture_path)],
        capture_output=True, env=subprocess_env())
    assert proc.returncode == 0


GRAPH_HELP = """\
usage: ontomap graph [-h] [--cluster] [--seed SEED] \
[--format {graphml,dot,nodelink-json}] [--individuals] [--out OUT] ontology

positional arguments:
  ontology

options:
  -h, --help            show this help message and exit
  --cluster
  --seed SEED
  --format {graphml,dot,nodelink-json}
  --individuals
  --out OUT             output path (default: stdout)
"""


def test_help_returns_0_with_text_on_given_stdout(monkeypatch):
    monkeypatch.setenv("COLUMNS", "200")  # argparse wraps to the terminal
    assert run(["graph", "--help"]) == (0, GRAPH_HELP, "")
    assert run(["graph", "-h"]) == (0, GRAPH_HELP, "")
    for command in ("validate", "metrics", "reason", "lda", "tag"):
        for flag in ("-h", "--help"):
            code, out, err = run([command, flag])
            assert (code, err) == (0, "")
            assert out.startswith(f"usage: ontomap {command} [-h]")
    code, out, err = run(["--help"])
    assert (code, err) == (0, "") and out.startswith("usage: ontomap [-h]")


def test_reason_and_graph_bytes_do_not_follow_the_hash_seed(fixture_path,
                                                            tmp_path):
    # each process hashes strings with its own PYTHONHASHSEED, so set and
    # dict order may differ between runs; the outputs must not
    commands = {
        "reason": ["reason", str(fixture_path), "--strict", "--out"],
        "graphml": ["graph", str(fixture_path), "--cluster",
                    "--format", "graphml", "--out"],
        "dot": ["graph", str(fixture_path), "--cluster",
                "--format", "dot", "--out"],
    }
    seen = {}
    for hash_seed in ("0", "1", "2"):
        env = subprocess_env(PYTHONHASHSEED=hash_seed)
        for name, argv in commands.items():
            out = tmp_path / f"{name}-{hash_seed}"
            proc = subprocess.run(
                [sys.executable, "-m", "ontomap.cli", *argv, str(out)],
                capture_output=True, env=env)
            got = (proc.returncode, proc.stdout, out.read_bytes())
            assert got == seen.setdefault(name, got), (name, hash_seed)
    assert seen["reason"][0] == 3  # the strict report has violations
