"""Persistent service jobs: journal fold semantics, crash recovery,
dead-lettering, and the `serve --state-dir` restart e2e.

The in-process tests restart a :class:`CheckService` over the same
``state_dir`` and assert that accepted jobs survive under their
original ids; the subprocess test crashes a real ``ppchecker serve``
with a ``crash``-kind fault and restarts it into a dead-letter.
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import time

import pytest

from repro.core.checker import CheckerOptions
from repro.durability.service_log import ServiceLog, deadletter_doc
from repro.pipeline.faults import CRASH_EXIT_CODE
from repro.service import ServiceClient, ServiceConfig, start_service

from tests.android.appbuilder import PKG
from tests.service.test_service import make_doc


def accept(log, n, package="com.example.app", bundle=None):
    log.job_accepted(f"job-{n}", f"key-{n}", package,
                     bundle if bundle is not None else {"stub": n})


def reopen(log, state_dir):
    """Recovery reads the records committed before open -- exactly a
    process restart, which is what these tests model."""
    log.close()
    return ServiceLog(str(state_dir))


class TestServiceLogFold:
    def test_unfinished_jobs_requeue_in_acceptance_order(
            self, tmp_path):
        log = ServiceLog(str(tmp_path))
        accept(log, 1)
        accept(log, 2)
        accept(log, 3)
        log.job_started("job-2", 1)
        log.job_completed("job-2")
        log = reopen(log, tmp_path)
        state = log.recover(max_redeliveries=3)
        log.close()
        assert [j.id for j in state.requeue] == ["job-1", "job-3"]
        assert state.deadletters == []
        assert state.max_job_number == 3

    def test_terminal_jobs_never_requeue(self, tmp_path):
        log = ServiceLog(str(tmp_path))
        accept(log, 1)
        log.job_started("job-1", 1)
        log.job_quarantined("job-1", {"error": "Boom"})
        log = reopen(log, tmp_path)
        state = log.recover(max_redeliveries=3)
        log.close()
        assert state.requeue == []
        assert state.deadletters == []

    def test_exhausted_deliveries_deadletter(self, tmp_path):
        log = ServiceLog(str(tmp_path))
        accept(log, 1)
        for delivery in (1, 2):
            log.job_started("job-1", delivery)
        log = reopen(log, tmp_path)
        state = log.recover(max_redeliveries=2)
        assert state.requeue == []
        assert [j.id for j in state.deadletters] == ["job-1"]
        assert state.deadletters[0].deliveries == 2
        log.close()

    def test_deadletter_decision_is_itself_journaled(self, tmp_path):
        log = ServiceLog(str(tmp_path))
        accept(log, 1)
        log.job_started("job-1", 1)
        log = reopen(log, tmp_path)
        log.recover(max_redeliveries=1)
        log.close()
        # a second recovery must see the journaled decision, not a
        # fresh delivery budget -- even with a laxer policy
        log = ServiceLog(str(tmp_path))
        state = log.recover(max_redeliveries=99)
        log.close()
        assert state.requeue == []
        assert [j.id for j in state.deadletters] == ["job-1"]

    def test_started_before_accepted_race_is_folded(self, tmp_path):
        """The two appends race across threads; replay must still
        count the delivery."""
        log = ServiceLog(str(tmp_path))
        log.job_started("job-1", 1)
        accept(log, 1)
        log = reopen(log, tmp_path)
        state = log.recover(max_redeliveries=1)
        log.close()
        assert state.requeue == []
        assert [j.id for j in state.deadletters] == ["job-1"]

    def test_deadletter_doc_shape(self):
        doc = deadletter_doc("job-9", "key-9", "com.example.x", 3)
        assert doc["state"] == "deadlettered"
        assert doc["error"]["kind"] == "deadlettered"
        assert doc["error"]["attempts"] == 3
        assert "dead-lettered" in doc["error"]["message"]


def durable_config(state_dir, **overrides):
    settings = dict(port=0, workers=2, queue_size=16,
                    state_dir=str(state_dir))
    settings.update(overrides)
    return ServiceConfig(**settings)


class TestInProcessRestart:
    def test_accepted_jobs_survive_a_restart(self, tmp_path):
        # first life: no workers, so accepted jobs only ever reach
        # the journal -- the crash window at its widest
        first = start_service(durable_config(tmp_path, workers=0))
        client = ServiceClient(port=first.port)
        assert client.healthz()["durable"] is True
        stub_a = client.submit(make_doc(package="com.example.a"))
        stub_b = client.submit(make_doc(package="com.example.b"))
        first.close(drain=False, deadline=0.1)

        second = start_service(durable_config(tmp_path))
        try:
            client = ServiceClient(port=second.port)
            final_a = client.wait(stub_a["id"], timeout=60.0)
            final_b = client.wait(stub_b["id"], timeout=60.0)
            assert final_a["state"] == "completed"
            assert final_a["report"]["package"] == "com.example.a"
            assert final_b["state"] == "completed"
            assert final_b["report"]["package"] == "com.example.b"
            text = client.metrics_text()
            assert "ppchecker_jobs_recovered_total 2" in text
            # read at scrape time from disk: the database plus -wal
            journal = str(tmp_path / ServiceLog.FILENAME)
            on_disk = os.path.getsize(journal) + os.path.getsize(
                journal + "-wal")
            assert f"ppchecker_journal_size_bytes {on_disk}\n" in text
        finally:
            second.close(deadline=5.0)

    def test_replayed_job_gets_the_default_deadline(self, tmp_path):
        """A journaled job carries no request deadline; replayed by a
        service with a default (``serve --deadline``), it is bounded
        by that default like any submission without one."""
        first = start_service(durable_config(tmp_path, workers=0))
        client = ServiceClient(port=first.port)
        stub = client.submit(make_doc(package="com.example.replayed"))
        first.close(drain=False, deadline=0.1)

        second = start_service(durable_config(
            tmp_path, workers=0, checker=CheckerOptions(deadline=30.0)))
        try:
            job = second.service.job(stub["id"])
            assert job.deadline is not None
            assert job.deadline.budget == 30.0
        finally:
            second.close(drain=False, deadline=0.1)

    def test_new_ids_never_collide_with_journaled_ones(self,
                                                       tmp_path):
        first = start_service(durable_config(tmp_path, workers=0))
        client = ServiceClient(port=first.port)
        stub = client.submit(make_doc(package="com.example.a"))
        first.close(drain=False, deadline=0.1)

        second = start_service(durable_config(tmp_path))
        try:
            client = ServiceClient(port=second.port)
            fresh = client.submit(make_doc(package="com.example.c"))
            assert fresh["id"] != stub["id"]
            assert int(fresh["id"].split("-")[1]) > \
                int(stub["id"].split("-")[1])
        finally:
            second.close(deadline=5.0)

    def test_resubmission_coalesces_onto_recovered_job(self,
                                                       tmp_path):
        first = start_service(durable_config(tmp_path, workers=0))
        client = ServiceClient(port=first.port)
        doc = make_doc(package="com.example.a")
        stub = client.submit(doc)
        first.close(drain=False, deadline=0.1)

        second = start_service(durable_config(tmp_path, workers=0))
        try:
            client = ServiceClient(port=second.port)
            again = client.submit(doc)
            assert again["coalesced"] is True
            assert again["id"] == stub["id"]
        finally:
            second.close(drain=False, deadline=0.1)

    def test_finished_jobs_are_not_rerun(self, tmp_path):
        first = start_service(durable_config(tmp_path))
        client = ServiceClient(port=first.port)
        stub = client.submit(make_doc(package="com.example.a"))
        client.wait(stub["id"], timeout=60.0)
        first.close(deadline=5.0)

        second = start_service(durable_config(tmp_path))
        try:
            client = ServiceClient(port=second.port)
            text = client.metrics_text()
            assert "ppchecker_jobs_recovered_total 0" in text
            # the id is gone (completed LRU died with process one)
            # but it was issued: 410, not 404
            status, _, payload = client.request(
                "GET", f"/v1/jobs/{stub['id']}")
            assert status == 410
            assert payload["error"]["kind"] == "gone"
        finally:
            second.close(deadline=5.0)


class TestPoisonPill:
    def seed_poison(self, state_dir, doc, deliveries=1):
        """Journal an accepted job that burned *deliveries* without
        finishing -- what a crash leaves behind."""
        from repro.android.serialization import (
            bundle_from_dict, bundle_to_dict)
        from repro.hashing import fingerprint

        canonical = bundle_to_dict(bundle_from_dict(doc))
        key = fingerprint(canonical)
        log = ServiceLog(str(state_dir))
        log.job_accepted("job-1", key, doc["package"], canonical)
        for delivery in range(1, deliveries + 1):
            log.job_started("job-1", delivery)
        log.close()
        return key

    def test_exhausted_job_is_parked_and_surfaced(self, tmp_path):
        doc = make_doc(package="com.example.poison")
        self.seed_poison(tmp_path, doc, deliveries=2)
        handle = start_service(
            durable_config(tmp_path, max_redeliveries=2))
        try:
            client = ServiceClient(port=handle.port)
            payload = client.deadletter()
            assert payload["count"] == 1
            (parked,) = payload["deadletters"]
            assert parked["id"] == "job-1"
            assert parked["state"] == "deadlettered"
            assert parked["error"]["kind"] == "deadlettered"
            assert parked["deliveries"] == 2

            # the id still resolves, to the parked payload
            doc_by_id = client.job("job-1")
            assert doc_by_id["state"] == "deadlettered"

            assert client.healthz()["deadletters"] == 1
            text = client.metrics_text()
            assert "ppchecker_jobs_deadlettered_total 1" in text
        finally:
            handle.close(deadline=5.0)

    def test_under_budget_job_is_redelivered_not_parked(
            self, tmp_path):
        doc = make_doc(package="com.example.retry")
        self.seed_poison(tmp_path, doc, deliveries=1)
        handle = start_service(
            durable_config(tmp_path, max_redeliveries=3))
        try:
            client = ServiceClient(port=handle.port)
            final = client.wait("job-1", timeout=60.0)
            assert final["state"] == "completed"
            assert final["report"]["package"] == "com.example.retry"
            assert client.deadletter()["count"] == 0
        finally:
            handle.close(deadline=5.0)

    def test_resubmitting_a_parked_bundle_gets_a_fresh_job(
            self, tmp_path):
        """A dead-letter is never a coalescing target: the same
        bundle resubmitted runs with a fresh delivery budget."""
        doc = make_doc(package="com.example.poison")
        self.seed_poison(tmp_path, doc, deliveries=2)
        handle = start_service(
            durable_config(tmp_path, max_redeliveries=2))
        try:
            client = ServiceClient(port=handle.port)
            assert client.deadletter()["count"] == 1
            stub = client.submit(doc)
            assert stub["coalesced"] is False
            assert stub["id"] != "job-1"
            final = client.wait(stub["id"], timeout=60.0)
            assert final["state"] == "completed"
            # the original pill stays parked
            assert client.job("job-1")["state"] == "deadlettered"
        finally:
            handle.close(deadline=5.0)

    def test_memory_only_service_has_empty_deadletter(self):
        handle = start_service(ServiceConfig(port=0, workers=1,
                                             queue_size=4))
        try:
            client = ServiceClient(port=handle.port)
            assert client.healthz()["durable"] is False
            payload = client.deadletter()
            assert payload == {
                "count": 0, "deadletters": [],
                "schema_version": payload["schema_version"],
            }
        finally:
            handle.close(deadline=5.0)


class TestServeSubprocessCrashRecovery:
    def wait_healthy(self, client, deadline=60):
        end = time.monotonic() + deadline
        while True:
            try:
                return client.healthz()
            except OSError:
                if time.monotonic() > end:
                    raise TimeoutError("service never came up")
                time.sleep(0.2)

    def spawn(self, port_file, state_dir, fault_plan, env):
        # OS-assigned port published through --port-file: no
        # probe-then-rebind race with parallel CI lanes
        return subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "serve",
             "--port", "0", "--port-file", port_file,
             "--workers", "1",
             "--state-dir", state_dir, "--max-redeliveries", "1",
             "--drain-timeout", "5",
             "--fault-plan", fault_plan],
            env=env, stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL)

    def test_crash_fault_restart_deadletters_the_pill(self,
                                                      tmp_path):
        from repro.service import read_port_file

        port_file = str(tmp_path / "serve.port")
        root = os.path.dirname(os.path.dirname(
            os.path.dirname(os.path.abspath(__file__))))
        env = dict(os.environ)
        env["PYTHONPATH"] = os.path.join(root, "src") + (
            os.pathsep + env["PYTHONPATH"]
            if env.get("PYTHONPATH") else "")
        state_dir = str(tmp_path / "state")
        plan = tmp_path / "faults.json"
        # stall the poison job for a second before crashing it, so
        # the 202 (journal fsync + response write) always reaches the
        # client before the worker takes the process down
        plan.write_text(json.dumps({"faults": [
            {"stage": "policy_analysis",
             "match": "com.example.poison",
             "kind": "hang", "hang_seconds": 1.0},
            {"stage": "detect", "match": "com.example.poison",
             "kind": "crash"},
        ]}))

        process = self.spawn(port_file, state_dir, str(plan), env)
        try:
            client = ServiceClient(port=read_port_file(port_file),
                                   timeout=5.0)
            self.wait_healthy(client)
            stub = client.submit(make_doc(
                package="com.example.poison"))
            process.wait(timeout=60)
            assert process.returncode == CRASH_EXIT_CODE
        finally:
            if process.poll() is None:  # pragma: no cover
                process.kill()
                process.wait(timeout=10)

        # restart with the SAME fault plan armed: recovery must
        # dead-letter the pill instead of crash-looping
        os.unlink(port_file)  # the restart publishes a fresh port
        process = self.spawn(port_file, state_dir, str(plan), env)
        try:
            client = ServiceClient(port=read_port_file(port_file),
                                   timeout=5.0)
            health = self.wait_healthy(client)
            assert health["deadletters"] == 1
            payload = client.deadletter()
            assert payload["deadletters"][0]["id"] == stub["id"]
            assert client.job(stub["id"])["state"] == "deadlettered"
            # the service still checks healthy bundles
            report = client.check(make_doc())
            assert report["package"] == PKG
            process.send_signal(signal.SIGTERM)
            process.wait(timeout=30)
            assert process.returncode == 0
        finally:
            if process.poll() is None:  # pragma: no cover
                process.kill()
                process.wait(timeout=10)
