"""Crash-safe study runs: checkpoints, resume, and the kill -9 e2e.

The acceptance scenario of the durability layer: a ``study --journal``
subprocess is killed without warning mid-run (both flavours -- an
injected ``crash`` fault that ``os._exit``\\ s the process, and a real
``SIGKILL`` while a stage hangs), restarted with ``--resume``, and the
final JSON report is byte-identical to an uninterrupted run's.
"""

import json
import os
import signal
import subprocess
import sys
import time

import pytest

from repro.core.report import AppFailure, AppReport
from repro.core.study import run_study
from repro.corpus.appstore import generate_app_store
from repro.durability.journal import replay
from repro.durability.study_log import (
    RunLog,
    RunLogError,
    open_run_log,
)
from repro.pipeline.faults import CRASH_EXIT_CODE
from repro.core.checker import PPChecker

N_APPS = 6


@pytest.fixture(scope="module")
def store():
    return generate_app_store(seed=2016, n_apps=N_APPS)


class TestRunLog:
    def meta(self):
        return {"kind": "study", "seed": 2016, "apps": N_APPS}

    def test_fresh_refuses_existing_run(self, tmp_path):
        path = str(tmp_path / "run.jsonl")
        log = RunLog.fresh(path, self.meta())
        log.close()
        with pytest.raises(RunLogError, match="resume"):
            RunLog.fresh(path, self.meta())

    def test_resume_refuses_foreign_journal(self, tmp_path):
        path = str(tmp_path / "run.jsonl")
        RunLog.fresh(path, self.meta()).close()
        with pytest.raises(RunLogError, match="different run"):
            RunLog.resume(path, {"kind": "study", "seed": 1,
                                 "apps": N_APPS})

    def test_resume_of_missing_journal_is_fresh(self, tmp_path):
        path = str(tmp_path / "run.jsonl")
        log, outcomes = RunLog.resume(path, self.meta())
        assert outcomes == {}
        assert log.recovery.resumed is False
        log.close()

    def test_outcomes_round_trip_exactly(self, store, tmp_path):
        path = str(tmp_path / "run.jsonl")
        checker = PPChecker(lib_policy_source=store.lib_policy)
        report = checker.check(store.apps[0].bundle)
        failure = AppFailure(
            package="com.example.broken", stage="policy_analysis",
            error="InjectedFault", message="boom", attempts=2)
        log = RunLog.fresh(path, self.meta())
        log.record_outcome(store.apps[0].package, report)
        log.record_outcome(failure.package, failure)
        log.close()

        resumed, outcomes = RunLog.resume(path, self.meta())
        resumed.close()
        assert resumed.recovery.resumed is True
        assert resumed.recovery.reports_replayed == 1
        assert resumed.recovery.quarantine_replayed == 1
        replayed = outcomes[store.apps[0].package]
        assert isinstance(replayed, AppReport)
        assert replayed.to_dict() == report.to_dict()
        replayed_failure = outcomes[failure.package]
        assert isinstance(replayed_failure, AppFailure)
        assert replayed_failure.to_dict() == failure.to_dict()

    def test_open_run_log_requires_resume_flag(self, tmp_path):
        path = str(tmp_path / "run.jsonl")
        log, _ = open_run_log(path, self.meta(), resume=False)
        log.record_outcome(
            "pkg", AppFailure(package="pkg", stage="s", error="E",
                              message="m", attempts=1))
        log.close()
        with pytest.raises(RunLogError, match="--resume"):
            open_run_log(path, self.meta(), resume=False)
        log, outcomes = open_run_log(path, self.meta(), resume=True)
        log.close()
        assert set(outcomes) == {"pkg"}


class TestStudySkip:
    def test_skip_merges_identically_to_full_run(self, store):
        full = run_study(store)
        half = dict(list(full.reports.items())[:3])
        resumed = run_study(store, skip=half)
        assert {p: r.to_dict() for p, r in resumed.reports.items()} \
            == {p: r.to_dict() for p, r in full.reports.items()}
        assert resumed.to_dict() == full.to_dict()

    def test_on_outcome_fires_once_per_fresh_app(self, store):
        seen = []
        run_study(store, on_outcome=lambda pkg, out:
                  seen.append(pkg))
        assert sorted(seen) == sorted(
            app.package for app in store.apps)
        seen.clear()
        skip_keys = [app.package for app in store.apps[:4]]
        full = run_study(store)
        run_study(store,
                  skip={k: full.reports[k] for k in skip_keys
                        if k in full.reports},
                  on_outcome=lambda pkg, out: seen.append(pkg))
        assert sorted(seen) == sorted(
            app.package for app in store.apps[4:])


def run_cli(args, env, timeout=300):
    return subprocess.run(
        [sys.executable, "-m", "repro.cli", *args],
        env=env, capture_output=True, text=True, timeout=timeout)


def cli_env():
    root = os.path.dirname(os.path.dirname(
        os.path.dirname(os.path.abspath(__file__))))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(root, "src") + (
        os.pathsep + env["PYTHONPATH"]
        if env.get("PYTHONPATH") else "")
    env.setdefault("PYTHONHASHSEED", "0")
    return env


def stripped(path):
    """The report JSON as canonical bytes, telemetry keys removed
    (pipeline_stats / nlp_caches / telemetry carry wall-clock noise
    and the resumed run legitimately executes fewer stages)."""
    with open(path, encoding="utf-8") as handle:
        payload = json.load(handle)
    payload.pop("pipeline_stats", None)
    payload.pop("nlp_caches", None)
    payload.pop("telemetry", None)
    return json.dumps(payload, indent=2, sort_keys=True).encode()


STUDY_ARGS = ["study", "--apps", str(N_APPS), "--seed", "2016"]


class TestCrashResumeE2E:
    @pytest.fixture(scope="class")
    def reference(self, tmp_path_factory):
        """One uninterrupted run; the byte baseline."""
        out = str(tmp_path_factory.mktemp("ref") / "ref.json")
        result = run_cli([*STUDY_ARGS, "--json", out], cli_env())
        assert result.returncode == 0, result.stdout + result.stderr
        return stripped(out)

    def test_crash_fault_then_resume_is_byte_identical(
            self, store, tmp_path, reference):
        env = cli_env()
        journal = str(tmp_path / "study.jsonl")
        out = str(tmp_path / "out.json")
        plan = tmp_path / "faults.json"
        plan.write_text(json.dumps({"faults": [{
            "stage": "detect", "match": store.apps[4].package,
            "kind": "crash",
        }]}))

        first = run_cli([*STUDY_ARGS, "--journal", journal,
                         "--json", out, "--fault-plan", str(plan)],
                        env)
        assert first.returncode == CRASH_EXIT_CODE
        assert not os.path.exists(out)  # died before the report
        committed = replay(journal)
        # the meta record plus every app finished before the crash
        assert committed[0]["type"] == "meta"
        assert 1 <= len(committed) - 1 < N_APPS

        second = run_cli([*STUDY_ARGS, "--journal", journal,
                          "--resume", "--json", out], env)
        assert second.returncode == 0, second.stdout + second.stderr
        assert "== recovery ==" in second.stdout
        assert "resumed" in second.stdout
        assert stripped(out) == reference

    def test_kill_9_mid_run_then_resume_is_byte_identical(
            self, store, tmp_path, reference):
        env = cli_env()
        journal = str(tmp_path / "study.jsonl")
        out = str(tmp_path / "out.json")
        plan = tmp_path / "faults.json"
        # a long hang (no stage timeout): the run checkpoints the
        # apps before it, then stalls where we can SIGKILL it
        plan.write_text(json.dumps({"faults": [{
            "stage": "static_analysis",
            "match": store.apps[4].package,
            "kind": "hang", "hang_seconds": 300,
        }]}))
        process = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", *STUDY_ARGS,
             "--journal", journal,
             "--json", out, "--fault-plan", str(plan)],
            env=env, stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL)
        try:
            deadline = time.monotonic() + 120
            while True:
                committed = replay(journal)
                if len(committed) >= 3:  # meta + >= 2 outcomes
                    break
                if time.monotonic() > deadline:
                    raise TimeoutError(
                        "study never checkpointed an outcome")
                time.sleep(0.05)
            process.send_signal(signal.SIGKILL)
            process.wait(timeout=30)
            assert process.returncode == -signal.SIGKILL
        finally:
            if process.poll() is None:  # pragma: no cover
                process.kill()
                process.wait(timeout=10)

        assert not os.path.exists(out)
        resumed = run_cli([*STUDY_ARGS, "--journal", journal,
                           "--resume", "--json", out], env)
        assert resumed.returncode == 0, \
            resumed.stdout + resumed.stderr
        assert "== recovery ==" in resumed.stdout
        assert stripped(out) == reference

    def test_resume_against_wrong_run_exits_cleanly(self, tmp_path):
        env = cli_env()
        journal = str(tmp_path / "study.jsonl")
        first = run_cli([*STUDY_ARGS, "--journal", journal], env)
        assert first.returncode == 0
        rows = replay(journal)
        with open(journal, "rb") as handle:
            content = handle.read()
        for wrong_run in (["--apps", str(N_APPS), "--seed", "1"],
                          ["--apps", str(N_APPS + 1), "--seed", "2016"]):
            wrong = run_cli(["study", *wrong_run, "--journal", journal,
                             "--resume"], env)
            assert wrong.returncode == 2
            assert wrong.stderr.splitlines() == [
                wrong.stderr.strip()]
            assert wrong.stderr.startswith(f"error: {journal}: ")
            assert "different run" in wrong.stderr
            assert replay(journal) == rows
            with open(journal, "rb") as handle:
                assert handle.read() == content

    def test_journal_without_resume_refuses_clobber(self, tmp_path):
        env = cli_env()
        journal = str(tmp_path / "study.jsonl")
        assert run_cli([*STUDY_ARGS, "--journal", journal],
                       env).returncode == 0
        again = run_cli([*STUDY_ARGS, "--journal", journal], env)
        assert again.returncode == 2
        assert "--resume" in again.stderr
