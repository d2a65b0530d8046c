"""Smoke tests of the benchmark at tiny sizes (well under a second each).

They check that every workload runs clean and reports the metrics
BENCHMARK.json declares, and that the output checks bite: a tampered
pinned digest or a wrong answer from the program is a failed job.
"""

import copy
import json
import math

import pytest

import run
from ontomap import gibbs, reasoner
from ontomap.model import Name

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def smoke(name, tmp_path, trace=False, pins=None):
    return run.run_workload(name, seed=0, seconds=0, trace=trace, smoke=True,
                            out_dir=tmp_path, pins=pins, log=lambda msg: None)


@pytest.mark.parametrize("name", run.WORKLOAD_NAMES)
def test_smoke_run_is_correct_and_reports_end_to_end_metrics(name, tmp_path):
    result = smoke(name, tmp_path)
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= run.SMOKE_MIN_JOBS
    declared = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: m["unit"] for k, m in result["metrics"].items()} == declared
    assert all(m["value"] > 0 for m in result["metrics"].values())


@pytest.mark.parametrize("name", ["kb-explore", "topics-forest"])
def test_traced_run_reports_every_per_layer_metric(name, tmp_path):
    result = smoke(name, tmp_path, trace=True)
    assert result["correct"]
    declared = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {k: m["unit"] for k, m in result["metrics"].items()} == declared
    assert (tmp_path / f"spans-{name}-seed0.jsonl").stat().st_size > 0


def test_smoke_seed_has_pinned_digests():
    pins = json.loads(run.PINS_PATH.read_text())
    for name in run.WORKLOAD_NAMES:
        assert pins["smoke"][name]["0"]["0"]


def test_tampered_digest_counts_as_failed_job(tmp_path):
    pins = copy.deepcopy(json.loads(run.PINS_PATH.read_text()))
    job = pins["smoke"]["kb-build"]["0"]["0"]
    job["graphml"] = "0" * 64
    result = smoke("kb-build", tmp_path, pins=pins)
    assert not result["correct"] and result["failed"] == 1


def test_wrong_instances_answer_counts_as_failed_job(tmp_path, monkeypatch):
    real = reasoner.instances_of
    monkeypatch.setattr(reasoner, "instances_of",
                        lambda store, c: real(store, c) | {Name("", "ghost")})
    result = smoke("kb-explore", tmp_path)
    assert not result["correct"] and result["failed"] >= run.SMOKE_MIN_JOBS


def test_non_finite_likelihood_counts_as_failed_job(tmp_path, monkeypatch):
    monkeypatch.setattr(gibbs, "log_likelihood", lambda *a: math.nan)
    result = smoke("topics-flat", tmp_path)
    assert not result["correct"] and result["failed"] == result["attempted"]
