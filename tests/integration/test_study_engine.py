"""One study engine, two outcome sources, the same results.

``run_study_streaming`` takes its outcomes from this process (inline
or a thread window) or from the ``ShardPool`` process plane.  Every
source must give the same study:

- the engine matrix: ``{workers=1, workers=3, shards=2}`` x
  ``{fresh, half skipped}`` folds the same ``to_dict()`` as the
  set-based oracle over ``run_study``'s reports, writes the
  same ``--out`` result-shard bytes, and fires ``on_outcome`` for the
  same packages (fresh apps only, in index order),
- ``keep_going=False`` raises the same ``BatchItemError`` on every
  plane, naming the corpus index, package, stage and error type,
- the shard processes build their checkers from the same recipe as
  the parent, so ``study --deadline`` quarantines the same apps with
  and without ``--shards``.
"""

import json
import os
import subprocess
import sys

import pytest

from repro.core.checker import CheckerOptions
from repro.core.results import ShardedResultWriter
from repro.core.study import run_study, run_study_streaming
from repro.corpus.appstore import CorpusSpec
from repro.pipeline import stages
from repro.pipeline.executor import BatchItemError
from tests.core.study_reference import reference_study

N_APPS = 24

ENGINES = {
    "workers1": {"workers": 1},
    "workers3": {"workers": 3},
    "shards2": {"shards": 2},
}


def canonical(doc):
    return json.dumps(doc, indent=2, sort_keys=True).encode()


def shard_bytes(out):
    files = {}
    for name in sorted(os.listdir(out)):
        with open(os.path.join(out, name), "rb") as handle:
            files[name] = handle.read()
    return files


@pytest.fixture(scope="module")
def spec():
    return CorpusSpec(n_apps=N_APPS)


@pytest.fixture(scope="module")
def baseline(spec):
    return run_study(spec)


def run_engine(spec, out, engine, skip=None):
    fired = []
    meta = {"kind": "study", "seed": spec.seed, "apps": spec.n_apps}
    with ShardedResultWriter(out, meta, shards=2) as writer:
        aggregate = run_study_streaming(
            spec, skip=skip, sinks=[writer],
            on_outcome=lambda package, outcome: fired.append(package),
            **ENGINES[engine])
    return aggregate, shard_bytes(out), fired


class TestEngineMatrix:
    @pytest.fixture(scope="class")
    def reference(self, spec, tmp_path_factory):
        return run_engine(spec, str(tmp_path_factory.mktemp("ref")),
                          "workers1")

    @pytest.mark.parametrize("half_skipped", [False, True],
                             ids=["fresh", "half-skipped"])
    @pytest.mark.parametrize("engine", sorted(ENGINES))
    def test_same_tables_shards_and_hook_sequence(
            self, spec, baseline, reference, tmp_path, engine,
            half_skipped):
        skip = None
        if half_skipped:
            skip = {spec.package_for(index):
                    baseline.reports[spec.package_for(index)]
                    for index in range(0, N_APPS, 2)}
        aggregate, shards, fired = run_engine(
            spec, str(tmp_path / "out"), engine, skip=skip)
        ref_aggregate, ref_shards, _ = reference
        assert canonical(aggregate.to_dict()) \
            == canonical(ref_aggregate.to_dict()) \
            == canonical(reference_study(spec, baseline).to_dict())
        assert shards == ref_shards
        assert fired == [spec.package_for(index)
                         for index in range(N_APPS)
                         if skip is None
                         or spec.package_for(index) not in skip]


class TestFailFast:
    @pytest.mark.parametrize("engine", sorted(ENGINES))
    def test_every_plane_raises_batch_item_error(self, spec, tmp_path,
                                                 engine):
        package = spec.package_for(1)
        plan = tmp_path / "faults.json"
        plan.write_text(json.dumps({"faults": [{
            "stage": stages.POLICY_ANALYSIS, "match": package,
            "message": "injected crash"}]}))
        with pytest.raises(BatchItemError) as excinfo:
            run_study(spec, limit=4, keep_going=False,
                      shard_options=CheckerOptions(fault_plan=str(plan)),
                      **ENGINES[engine])
        error = excinfo.value
        assert error.index == 1
        assert error.item == package
        message = str(error)
        assert package in message
        assert stages.POLICY_ANALYSIS in message
        assert "InjectedFault" in message


def cli_env():
    root = os.path.dirname(os.path.dirname(
        os.path.dirname(os.path.abspath(__file__))))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(root, "src") + (
        os.pathsep + env["PYTHONPATH"]
        if env.get("PYTHONPATH") else "")
    env.setdefault("PYTHONHASHSEED", "0")
    return env


class TestShardsHonourTheRecipe:
    @pytest.mark.parametrize("shards", ["0", "2"])
    def test_deadline_quarantines_every_app(self, tmp_path, shards):
        out = tmp_path / "study.json"
        run = subprocess.run(
            [sys.executable, "-m", "repro.cli", "study", "--apps", "8",
             "--deadline", "0.000001", "--shards", shards,
             "--json", str(out)],
            env=cli_env(), capture_output=True, text=True, timeout=300)
        assert run.returncode == 0, run.stdout + run.stderr
        summary = json.loads(out.read_text())["summary"]
        assert summary["quarantined_apps"] == 8
