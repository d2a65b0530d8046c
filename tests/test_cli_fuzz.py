"""Random argv and malformed input files against ``cli.main``.

Every run must return one of the exit codes in README's table; an exception
escaping ``main`` fails the test with its traceback.  Examples are
derandomized, so the run is the same every time.
"""

import io
import json
import pathlib
import re

import pytest
from hypothesis import example, given, settings, strategies as st

from ontomap import cli
from ontomap.synthetic import HEALTH_SNIPPETS

ROOT = pathlib.Path(__file__).parent.parent
README_CODES = {int(code) for code in re.findall(
    r"^\| (\d+) +\|", (ROOT / "README.md").read_text(encoding="utf-8"),
    re.MULTILINE)}

ONTOLOGY = (ROOT / "fixtures" / "obesity-sample.ofn").read_text(
    encoding="utf-8")
EMPTY_ONT = ("Prefix(:=<http://example.org/e#>)\n"
             "Ontology(<http://example.org/e>\n)\n")

# name -> file content
FILES = {
    "ont.ofn": ONTOLOGY,
    "empty.ofn": EMPTY_ONT,
    "broken.ofn": EMPTY_ONT.replace(")\n", "SubClassOf(:A)\n)\n", 1),
    "corpus.tsv": "".join(f"{i}\t{t}\n" for i, t in HEALTH_SNIPPETS),
    "corpus.jsonl": "".join(json.dumps({"id": i, "text": t}) + "\n"
                            for i, t in HEALTH_SNIPPETS),
    "bad-text.jsonl": '{"id": 1, "text": 5}\n',
    "stopwords.tsv": "d1\tof the and\n",
    "notjson.jsonl": "{not json\n",
    "mismatch.json": '{"phi": [[0.5]], "vocabulary": []}',
    "no-phi.json": '{"topics": []}',
    "list.json": "[]",
    "str-phi.json": '{"phi": [["a"]], "vocabulary": ["x"]}',
    "int-phi.json": '{"phi": [[1e400, 5]], "vocabulary": ["x", "y"]}',
    "list-vocab.json": '{"phi": [[0.5]], "vocabulary": [[1]]}',
    "dict-vocab.json": '{"phi": [[0.5]], "vocabulary": {"0": "x"}}',
    "scalar-phi.json": '{"phi": 5, "vocabulary": ["x"]}',
    "binary.bin": b"d1\t\xff\xfe obesity\n",
}
# "@name" stands for that file in the work directory.  Repeated entries
# weight the draws toward inputs that get past reading and parsing.
ONTOLOGIES = ["@ont.ofn"] * 4 + ["@empty.ofn", "@broken.ofn", "@binary.bin",
                                 "@missing"]
CORPORA = ["@corpus.tsv"] * 6 + [
    "@corpus.jsonl", "@bad-text.jsonl", "@stopwords.tsv", "@notjson.jsonl",
    "@binary.bin", "@missing"]
MODELS = ["@model.json"] * 3 + [
    "@mismatch.json", "@no-phi.json", "@list.json", "@str-phi.json",
    "@int-phi.json", "@list-vocab.json", "@dict-vocab.json",
    "@scalar-phi.json", "@binary.bin", "@missing"]
OUTS = ["@out", "-", "@.", "@missing/out"]
COUNTS = ["1", "2", "3", "1", "2", "3", "0", "x"]
REALS = ["0.5", "1", "100", "0.5", "1", "100", "1e308", "1e306", "1e-320",
         "5e-324", "0", "nan"]

# command -> (positional choices, flag -> value choices or None for a switch)
COMMANDS = {
    "validate": (ONTOLOGIES, {}),
    "metrics": (ONTOLOGIES, {}),
    "reason": (ONTOLOGIES, {"--strict": None, "--out": OUTS}),
    "graph": (ONTOLOGIES, {
        "--cluster": None, "--individuals": None, "--seed": COUNTS,
        "--format": ["graphml", "dot", "nodelink-json", "svg"],
        "--out": OUTS}),
    # --iters stays small: lda's default of 1000 sweeps is too slow here
    "lda": (CORPORA, {
        "--json-lines": None, "--constrained": None, "--k": COUNTS,
        "--iters": ["1", "2", "0", "x"], "--seed": COUNTS, "--top": COUNTS,
        "--min-df": COUNTS, "--alpha": REALS, "--beta": REALS,
        "--eta": REALS, "--epsilon": REALS, "--out": OUTS}),
    "tag": (MODELS, {"--top": COUNTS, "--out": OUTS}),
}

JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=8)


@st.composite
def argvs(draw):
    command = draw(st.sampled_from(sorted(COMMANDS)))
    positionals, flags = COMMANDS[command]
    argv = [command, draw(st.sampled_from(positionals))]
    if command == "lda":
        argv += ["--iters", "1"]
    if command in ("lda", "tag"):
        argv += ["--ontology", draw(st.sampled_from(ONTOLOGIES))]
    names = st.lists(st.sampled_from(sorted(flags)), max_size=4) \
        if flags else st.just([])
    for flag in draw(names):
        argv.append(flag)
        if flags[flag] is not None:
            argv.append(draw(st.sampled_from(flags[flag])))
    return argv + draw(st.sampled_from(
        [[]] * 8 + [["--bogus"], ["extra"], ["--help"], ["-h"]]))


def lda(*flags):
    return ["lda", "@corpus.tsv", "--iters", "1", "--ontology", "@ont.ofn",
            *flags]


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    root = tmp_path_factory.mktemp("fuzz")
    for name, content in FILES.items():
        path = root / name
        if isinstance(content, bytes):
            path.write_bytes(content)
        else:
            path.write_text(content, encoding="utf-8")
    code = cli.main(["lda", str(root / "corpus.tsv"), "--k", "2",
                     "--iters", "2", "--ontology", str(root / "ont.ofn"),
                     "--constrained", "--out", str(root / "model.json")],
                    stdout=io.StringIO(), stderr=io.StringIO())
    assert code == 0
    return root


def run(workdir, argv):
    argv = [str(workdir / arg[1:]) if arg.startswith("@") else arg
            for arg in argv]
    return cli.main(argv, stdout=io.StringIO(), stderr=io.StringIO())


@settings(max_examples=120, deadline=None, derandomize=True, database=None)
@given(argv=argvs())
@example(["tag", "@mismatch.json", "--ontology", "@ont.ofn"])
@example(lda("--alpha", "1e308"))
@example(lda("--beta", "1e306"))
@example(lda("--constrained", "--eta", "1e308"))
@example(lda("--constrained", "--beta", "1e-320"))
def test_random_argv_exits_with_a_documented_code(workdir, argv):
    assert run(workdir, argv) in README_CODES


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(argv=st.sampled_from([
    ["validate", "@random"],
    ["lda", "@random", "--iters", "1", "--min-df", "1"],
    ["lda", "@random", "--iters", "1", "--min-df", "1", "--json-lines"],
    ["tag", "@random", "--ontology", "@ont.ofn"]]),
    content=st.binary(max_size=40) | st.text(max_size=80)
    | st.lists(JSON, max_size=3).map(
        lambda values: "".join(json.dumps(v) + "\n" for v in values))
    | st.fixed_dictionaries({"phi": JSON, "vocabulary": JSON}).map(
        json.dumps))
@example(["tag", "@random", "--ontology", "@ont.ofn"],
         '{"phi": [[0.5]], "vocabulary": [["obesity"]]}')
def test_random_input_file_exits_with_a_documented_code(workdir, argv,
                                                        content):
    if isinstance(content, str):
        content = content.encode("utf-8")
    (workdir / "random").write_bytes(content)
    assert run(workdir, argv) in README_CODES
