"""One study engine, two outcome sources, the same results.

``run_study_streaming`` takes its outcomes from this process (inline)
or from the ``ShardPool`` process plane.  Every source must give the
same study:

- the engine matrix: ``{inline, shards=2}`` x
  ``{fresh, half skipped}`` folds the same ``to_dict()`` as the
  set-based oracle over ``run_study``'s reports, journals the same
  rows, and fires ``on_outcome`` for the same packages (fresh apps
  only, in index order),
- a resume of a complete journal checks nothing on either plane:
  every stage has zero executions and zero cache hits, and
  ``shards=2`` starts no process,
- ``keep_going=False`` raises the same ``BatchItemError`` on every
  plane, naming the corpus index, package, stage and error type,
- the shard processes build their checkers from the same recipe as
  the parent, so ``study --deadline`` quarantines the same apps with
  and without ``--shards``,
- there is no thread plane: ``workers`` other than 1 is refused.
"""

import json
import os
import subprocess
import sys

import pytest

from repro.core import study
from repro.core.checker import CheckerOptions
from repro.core.study import run_study, run_study_streaming
from repro.corpus.appstore import CorpusSpec
from repro.durability.journal import replay
from repro.durability.study_log import RunLog
from repro.pipeline import stages
from repro.pipeline import BatchItemError
from tests.core.study_reference import reference_study

N_APPS = 24

ENGINES = {
    "inline": {},
    "shards2": {"shards": 2},
}


def canonical(doc):
    return json.dumps(doc, indent=2, sort_keys=True).encode()


def study_meta(spec):
    return {"kind": "study", "seed": spec.seed, "apps": spec.n_apps}


def journal_rows(journal):
    """The journal's records as ``(type, payload)``, in ``seq``
    order."""
    return [(record["type"], record["payload"])
            for record in replay(journal)]


@pytest.fixture(scope="module")
def spec():
    return CorpusSpec(n_apps=N_APPS)


@pytest.fixture(scope="module")
def baseline(spec):
    return run_study(spec)


def run_engine(spec, journal, engine, skip=None):
    """One study on *engine*, journaling its fresh outcomes to a new
    journal at *journal* as ``study --journal`` does."""
    fired = []
    runlog = RunLog.fresh(journal, study_meta(spec))

    def on_outcome(package, outcome):
        fired.append(package)
        runlog.record_outcome(package, outcome)

    try:
        aggregate = run_study_streaming(
            spec, skip=skip, on_outcome=on_outcome, **ENGINES[engine])
    finally:
        runlog.close()
    return aggregate, journal_rows(journal), fired


class TestEngineMatrix:
    @pytest.fixture(scope="class")
    def reference(self, spec, tmp_path_factory):
        return run_engine(
            spec, str(tmp_path_factory.mktemp("ref") / "ref.sqlite"),
            "inline")

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
        aggregate, rows, fired = run_engine(
            spec, str(tmp_path / "study.sqlite"), engine, skip=skip)
        ref_aggregate, ref_rows, _ = reference
        assert canonical(aggregate.to_dict()) \
            == canonical(ref_aggregate.to_dict()) \
            == canonical(reference_study(spec, baseline).to_dict())
        # the same rows as the fresh inline run, less the skipped apps
        assert rows == [row for row in ref_rows
                        if skip is None or row[0] != "outcome"
                        or row[1]["key"] not in skip]
        assert fired == [spec.package_for(index)
                         for index in range(N_APPS)
                         if skip is None
                         or spec.package_for(index) not in skip]


class TestResumeOfACompleteJournal:
    @pytest.mark.parametrize("engine", sorted(ENGINES))
    def test_checks_nothing(self, spec, baseline, tmp_path, engine,
                            monkeypatch):
        journal = str(tmp_path / "study.sqlite")
        run_engine(spec, journal, "inline")
        before = journal_rows(journal)

        def no_pool(*args, **kwargs):
            raise AssertionError("shard processes with no app to check")

        monkeypatch.setattr(study, "ShardPool", no_pool)
        runlog, skip = RunLog.resume(journal, study_meta(spec))
        try:
            aggregate = run_study_streaming(
                spec, skip=skip, on_outcome=runlog.record_outcome,
                **ENGINES[engine])
        finally:
            runlog.close()
        assert canonical(aggregate.to_dict()) \
            == canonical(reference_study(spec, baseline).to_dict())
        for stage, row in aggregate.stats.to_dict().items():
            assert row["executions"] == 0, stage
            assert row["cache_hits"] == 0, stage
        assert journal_rows(journal) == before


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


def test_workers_other_than_one_are_refused(spec):
    with pytest.raises(ValueError, match="shards="):
        run_study_streaming(spec, workers=2)


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
