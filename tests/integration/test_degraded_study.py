"""Degraded-mode end-to-end runs: injected faults at corpus scale.

The acceptance scenario from the robustness layer: a batch over six
apps with two injected faults -- one raising, one hanging -- completes
with four full reports and two structured quarantine entries, the hung
stage cut off by the stage timeout.  Plus the determinism guarantee:
inline, 2-shard, and warm-cache runs produce identical reports for
the healthy apps and identical quarantine lists.
"""

import json

import pytest

from repro.cli import main
from repro.core.checker import CheckerOptions, PPChecker
from repro.core.study import run_study
from repro.corpus.appstore import generate_app_store
from repro.android.serialization import save_bundle
from repro.pipeline import stages
from repro.pipeline.artifacts import build_store
from repro.pipeline import BatchItemError
from repro.pipeline.faults import FaultPlan, FaultSpec
from repro.pipeline.resilience import RetryPolicy

N_APPS = 6
#: generous per-stage budget -- healthy corpus stages run in
#: milliseconds; only the injected hang ever gets near it
TIMEOUT = 3.0
HANG = 30.0


@pytest.fixture(scope="module")
def store():
    return generate_app_store(seed=2016, n_apps=N_APPS)


def fault_targets(store):
    """(app that raises, app that hangs)."""
    return store.apps[1].package, store.apps[3].package


def crash_and_hang_plan(raise_pkg, hang_pkg):
    return FaultPlan([
        FaultSpec(stage=stages.POLICY_ANALYSIS, match=raise_pkg,
                  message="injected crash"),
        FaultSpec(stage=stages.STATIC_ANALYSIS, match=hang_pkg,
                  kind="hang", hang_seconds=HANG),
    ])


def degraded_checker(store, plan, artifact_store=None):
    return PPChecker(
        lib_policy_source=store.lib_policy,
        fault_plan=plan,
        retry_policy=RetryPolicy(stage_timeout=TIMEOUT),
        artifact_store=artifact_store,
    )


class TestDegradedStudy:
    def test_crash_and_hang_quarantined_not_fatal(self, store):
        raise_pkg, hang_pkg = fault_targets(store)
        checker = degraded_checker(
            store, crash_and_hang_plan(raise_pkg, hang_pkg))
        result = run_study(store, checker=checker)

        assert len(result.reports) == N_APPS - 2
        assert set(result.failures) == {raise_pkg, hang_pkg}

        crash = result.failures[raise_pkg]
        assert crash.stage == stages.POLICY_ANALYSIS
        assert crash.error == "InjectedFault"
        assert "injected crash" in crash.message

        hang = result.failures[hang_pkg]
        assert hang.stage == stages.STATIC_ANALYSIS
        assert hang.error == "StageTimeout"

        assert result.summary()["quarantined_apps"] == 2
        doc = result.to_dict()
        assert [e["package"] for e in doc["quarantine"]] == \
            sorted([raise_pkg, hang_pkg])
        # quarantine entries are JSON-clean
        json.dumps(doc["quarantine"])

    def test_keep_going_false_fails_fast(self, store):
        raise_pkg, _ = fault_targets(store)
        plan = FaultPlan([FaultSpec(stage=stages.POLICY_ANALYSIS,
                                    match=raise_pkg)])
        checker = degraded_checker(store, plan)
        with pytest.raises(BatchItemError) as excinfo:
            run_study(store, checker=checker, keep_going=False)
        assert excinfo.value.index == 1


class TestDeterminism:
    """Identical reports and quarantine lists, however the batch runs."""

    def fault_plan(self, store):
        raise_pkg, corrupt_pkg = fault_targets(store)
        return FaultPlan([
            FaultSpec(stage=stages.POLICY_ANALYSIS, match=raise_pkg,
                      message="injected crash"),
            FaultSpec(stage=stages.DETECT, match=corrupt_pkg,
                      kind="corrupt"),
        ])

    def run_once(self, store, artifact_store=None):
        checker = degraded_checker(store, self.fault_plan(store),
                                   artifact_store=artifact_store)
        return self.outcomes(run_study(store, checker=checker))

    def run_sharded(self, store, tmp_path):
        plan = tmp_path / "faults.json"
        plan.write_text(json.dumps(self.fault_plan(store).to_dict()))
        return self.outcomes(run_study(
            store, shards=2, shard_options=CheckerOptions(
                fault_plan=str(plan), stage_timeout=TIMEOUT)))

    @staticmethod
    def outcomes(result):
        reports = {pkg: report.to_dict()
                   for pkg, report in result.reports.items()}
        quarantine = [result.failures[pkg].to_dict()
                      for pkg in sorted(result.failures)]
        return reports, quarantine

    def test_serial_parallel_and_warm_cache_agree(self, store,
                                                  tmp_path):
        serial = self.run_once(store)
        sharded = self.run_sharded(store, tmp_path)

        cache = str(tmp_path / "cache")
        cold = self.run_once(
            store, artifact_store=build_store(cache_dir=cache))
        warm = self.run_once(
            store, artifact_store=build_store(cache_dir=cache))

        baseline_reports, baseline_quarantine = serial
        assert len(baseline_quarantine) == 2
        for reports, quarantine in (sharded, cold, warm):
            assert reports == baseline_reports
            assert quarantine == baseline_quarantine


class TestCliDegradedBatch:
    """The ISSUE acceptance scenario through the real CLI."""

    def export_bundles(self, store, tmp_path):
        paths = []
        for index, app in enumerate(store.apps):
            path = str(tmp_path / f"app{index}.json")
            save_bundle(app.bundle, path)
            paths.append(path)
        return paths

    def test_six_apps_two_faults(self, store, tmp_path, capsys):
        raise_pkg, hang_pkg = fault_targets(store)
        paths = self.export_bundles(store, tmp_path)
        plan_path = tmp_path / "faults.json"
        plan_path.write_text(json.dumps(
            crash_and_hang_plan(raise_pkg, hang_pkg).to_dict()))
        out_json = str(tmp_path / "batch.json")

        code = main(["batch-check", *paths,
                     "--fault-plan", str(plan_path),
                     "--stage-timeout", str(TIMEOUT),
                     "--fail-on-findings",
                     "--json", out_json])
        # quarantined apps count as findings for exit purposes
        assert code == 1

        out = capsys.readouterr().out
        assert "4 apps checked" in out
        assert "2 quarantined" in out
        assert "== quarantine ==" in out
        assert f"FAILED at {stages.POLICY_ANALYSIS}: InjectedFault" \
            in out
        assert f"FAILED at {stages.STATIC_ANALYSIS}: StageTimeout" \
            in out

        with open(out_json) as handle:
            payload = json.load(handle)
        assert len(payload["reports"]) == 4
        quarantine = {entry["package"]: entry
                      for entry in payload["quarantine"]}
        assert quarantine[raise_pkg]["stage"] == \
            stages.POLICY_ANALYSIS
        assert quarantine[raise_pkg]["error"] == "InjectedFault"
        assert quarantine[hang_pkg]["stage"] == stages.STATIC_ANALYSIS
        assert quarantine[hang_pkg]["error"] == "StageTimeout"
        assert all(entry["attempts"] == 1
                   for entry in quarantine.values())
        # both failed stages show up in the failure counters
        pipeline_stats = payload["pipeline_stats"]
        assert pipeline_stats[stages.POLICY_ANALYSIS]["failures"] == 1
        assert pipeline_stats[stages.STATIC_ANALYSIS]["failures"] == 1

    def test_no_keep_going_aborts(self, store, tmp_path):
        raise_pkg, _ = fault_targets(store)
        paths = self.export_bundles(store, tmp_path)[:3]
        plan_path = tmp_path / "faults.json"
        plan_path.write_text(json.dumps(FaultPlan([
            FaultSpec(stage=stages.POLICY_ANALYSIS, match=raise_pkg),
        ]).to_dict()))
        with pytest.raises(BatchItemError):
            main(["batch-check", *paths, "--no-keep-going",
                  "--fault-plan", str(plan_path)])
