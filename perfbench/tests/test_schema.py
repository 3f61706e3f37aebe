"""Metric names, ``BENCHMARK.json``, and a tiny run of every workload."""

import json
import os
import shutil
import subprocess
import sys

import pytest

from conftest import BENCH, ROOT
from pbench.gen import phase_sizes
from pbench.stats import valid_metric_name
from pbench import WORKLOADS
from pbench.workloads import END_TO_END, PER_LAYER, RESULT_METRICS

RUN = os.path.join(BENCH, "run.py")

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
    SPEC = json.load(fh)


# -- the metric-name grammar ------------------------------------------------------


@pytest.mark.parametrize("name", [
    "setup_s", "p99_ms", "nlp.parse_ms", "pipeline.hit_rate.detect",
    "gc.gen2_collections", "front.route_skew"])
def test_valid_names(name):
    assert valid_metric_name(name)


@pytest.mark.parametrize("name", [
    "", "P99_ms", "_private", "nlp..parse", "nlp.", ".nlp", "p99 ms",
    "front-self", "x" * 65])
def test_invalid_names(name):
    assert not valid_metric_name(name)


def test_every_metric_name_follows_the_grammar():
    for name in (*END_TO_END, *PER_LAYER):
        assert valid_metric_name(name), name


# -- BENCHMARK.json ------------------------------------------------------------------


def test_benchmark_json_matches_the_code():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    assert {m["name"]: (m["unit"], m["better"])
            for m in SPEC["end_to_end"]} == {
        n: END_TO_END[n] for n in RESULT_METRICS}
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == PER_LAYER
    for metric in SPEC["end_to_end"]:
        assert 0 < metric["bound"] <= 0.25
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])


# -- the serving phase order ---------------------------------------------------------


def test_capacity_bursts_surround_every_open_loop_phase():
    sizes = phase_sizes((200.0, 300.0, 400.0), fixed_requests=2000,
                        step_seconds=1.0, capacity=1000)
    assert sizes == [(None, 143), (200.0, 500), (None, 143),
                     (200.0, 500), (None, 143), (200.0, 500),
                     (None, 143), (200.0, 500), (None, 143),
                     (300.0, 300), (None, 143), (400.0, 400),
                     (None, 142)]
    # phases too small to hold a request are left out
    assert phase_sizes((100.0,), 2, 1.0, 1) == [(None, 1), (100.0, 1),
                                                (100.0, 1)]


# -- tiny runs ------------------------------------------------------------------------


def _run(args, cwd=ROOT, timeout=170):
    return subprocess.run([sys.executable, RUN, *args], cwd=cwd,
                          capture_output=True, text=True,
                          timeout=timeout)


def _result(proc):
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
    doc = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(doc) == {"correct", "attempted", "failed", "metrics"}
    assert doc["correct"] is True
    assert isinstance(doc["attempted"], int) and doc["attempted"] >= 1
    assert doc["failed"] == 0
    for metric in doc["metrics"].values():
        assert set(metric) == {"value", "unit"}
        assert isinstance(metric["value"], (int, float))
    return doc


@pytest.mark.parametrize("workload", WORKLOADS)
def test_tiny_untraced_run_prints_every_end_to_end_metric(workload):
    proc = _run(["--workload", workload, "--seed", "3",
                 "--seconds", "0.4", "--trace", "0"])
    doc = _result(proc)
    assert {n: m["unit"] for n, m in doc["metrics"].items()} == {
        n: END_TO_END[n][0] for n in RESULT_METRICS}
    for name in RESULT_METRICS:
        assert doc["metrics"][name]["value"] > 0, name
    # the text report names all seven, the unbounded ones included
    for name, (unit, _better) in END_TO_END.items():
        assert any(line.split()[:1] == [name] and unit in line.split()
                   for line in proc.stdout.splitlines()), name


def test_tiny_traced_run_prints_every_per_layer_metric():
    proc = _run(["--workload", "serve-recheck", "--seed", "3",
                 "--seconds", "0.4", "--trace", "1"])
    doc = _result(proc)
    assert {n: m["unit"] for n, m in doc["metrics"].items()} == PER_LAYER
    assert doc["metrics"]["service.run_ms"]["value"] > 0
    assert "unattributed" in proc.stdout
    assert "tracing overhead" in proc.stdout


def test_without_the_program_it_fails_without_a_result(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "study",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert not proc.stdout.strip()
