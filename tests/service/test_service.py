"""End-to-end tests of the check service over real HTTP.

Every test here starts a real ``ThreadingHTTPServer`` on an ephemeral
port and talks to it through :class:`repro.service.ServiceClient` --
the same path ``ppchecker serve`` traffic takes.
"""

from __future__ import annotations

import json
import threading

import pytest

from repro import __version__
from repro.android.serialization import bundle_to_dict
from repro.core.checker import AppBundle, CheckerOptions, PPChecker
from repro.core.schema import SCHEMA_VERSION
from repro.pipeline.faults import FaultPlan, FaultSpec
from repro.service import (
    CheckQuarantined,
    ServiceBusy,
    ServiceClient,
    ServiceConfig,
    ServiceUnavailable,
    start_service,
)

from tests.android.appbuilder import (
    LOCATION_API,
    PKG,
    add_activity,
    empty_apk,
    invoke,
)


def plan_file(directory, plan: FaultPlan) -> str:
    """*plan* written as a JSON fault plan under *directory*; returns
    its path (the checker recipe takes a path, not a live plan)."""
    path = directory / "faults.json"
    path.write_text(json.dumps(plan.to_dict()))
    return str(path)


def make_doc(package=PKG, policy="We collect your email.",
             description="An app.", with_location=False):
    apk = empty_apk()
    instructions = [invoke(LOCATION_API, dest="v0")] \
        if with_location else None
    add_activity(apk, instructions=instructions)
    bundle = AppBundle(package=package, apk=apk, policy=policy,
                       description=description)
    return bundle_to_dict(bundle)


@pytest.fixture()
def handle():
    h = start_service(ServiceConfig(port=0, workers=4,
                                    queue_size=16))
    yield h
    h.close(deadline=5.0)


@pytest.fixture()
def client(handle):
    return ServiceClient(port=handle.port)


class TestHTTPBasics:
    def test_healthz(self, client, handle):
        doc = client.healthz()
        assert doc["status"] == "ok"
        assert doc["version"] == __version__
        assert doc["schema_version"] == SCHEMA_VERSION
        assert doc["queue_capacity"] == 16
        assert doc["workers"] == 4
        assert doc["workers_alive"] == 4

    def test_server_header_reports_version(self, client):
        status, headers, _ = client.request("GET", "/healthz")
        assert status == 200
        assert headers["Server"] == f"ppchecker/{__version__}"

    def test_check_matches_cli_json_schema(self, client):
        report = client.check(make_doc(with_location=True))
        # the exact report a direct PPChecker produces, stamped with
        # schema_version exactly like `check --json`
        from repro.android.serialization import bundle_from_dict
        from repro.core.schema import versioned
        expected = versioned(PPChecker().check(
            bundle_from_dict(make_doc(with_location=True))).to_dict())
        assert report == expected
        assert report["has_problem"]
        assert "incomplete" in report

    def test_async_job_roundtrip(self, client):
        stub = client.submit(make_doc())
        assert stub["schema_version"] == SCHEMA_VERSION
        assert stub["location"] == f"/v1/jobs/{stub['id']}"
        final = client.wait(stub["id"], timeout=30.0)
        assert final["state"] == "completed"
        assert final["report"]["package"] == PKG
        assert final["key"] == stub["key"]

    def test_batch_mixed_validity(self, client):
        payload = client.batch([
            make_doc(package="com.example.one"),
            {"not": "a bundle"},
        ])
        assert payload["schema_version"] == SCHEMA_VERSION
        statuses = [r["status"] for r in payload["results"]]
        assert statuses == ["ok", "invalid"]
        assert payload["checked"] == 1
        assert payload["rejected"] == 1
        assert payload["results"][0]["report"]["package"] == \
            "com.example.one"

    def test_unknown_endpoint_404(self, client):
        status, _, payload = client.request("GET", "/nope")
        assert status == 404
        assert payload["error"]["kind"] == "not_found"

    def test_unknown_job_404(self, client):
        status, _, payload = client.request("GET",
                                            "/v1/jobs/job-999")
        assert status == 404

    def test_invalid_json_400(self, client, handle):
        import http.client

        conn = http.client.HTTPConnection(client.host, handle.port)
        conn.request("POST", "/v1/check", body=b"{not json",
                     headers={"Content-Type": "application/json"})
        response = conn.getresponse()
        assert response.status == 400
        response.read()
        conn.close()

    def test_invalid_bundle_400(self, client):
        status, _, payload = client.request("POST", "/v1/check",
                                            {"version": 1})
        assert status == 400
        assert payload["error"]["kind"] == "bad_request"

    def test_part_without_a_digest_400(self, client):
        """A null policy decodes but has no digest, so the document
        has no bundle key: it is refused, not queued."""
        status, _, payload = client.request("POST", "/v1/check",
                                            make_doc(policy=None))
        assert status == 400
        assert payload["error"]["kind"] == "bad_request"

    def test_requests_counted_in_metrics(self, client):
        client.healthz()
        text = client.metrics_text()
        assert 'ppchecker_requests_total{endpoint="/healthz"' in text
        assert "ppchecker_queue_depth 0" in text
        assert "ppchecker_workers_alive 4" in text


class TestCoalescing:
    """The acceptance scenario: 8 concurrent identical submissions,
    one pipeline execution, identical reports, consistent metrics,
    graceful drain."""

    def test_concurrent_identical_checks_run_once(self):
        h = start_service(ServiceConfig(port=0, workers=4,
                                        queue_size=16))
        try:
            client = ServiceClient(port=h.port)
            doc = make_doc(with_location=True)
            reports: list[dict] = []
            errors: list[Exception] = []
            barrier = threading.Barrier(8)

            def hit():
                try:
                    barrier.wait(timeout=10)
                    reports.append(client.check(doc))
                except Exception as exc:  # pragma: no cover
                    errors.append(exc)

            threads = [threading.Thread(target=hit)
                       for _ in range(8)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
            assert not errors
            assert len(reports) == 8

            # all eight clients got the same, correct report
            assert all(r == reports[0] for r in reports)
            assert reports[0]["has_problem"]

            # exactly one pipeline execution, by stage-compute counters
            stats = h.service.runner.stats.to_dict()
            for stage in ("policy_analysis", "static_analysis",
                          "description_permissions", "detect"):
                assert stats[stage]["executions"] == 1, stage
                assert stats[stage]["failures"] == 0, stage

            # /metrics agrees with the traffic
            text = client.metrics_text()
            assert ('ppchecker_requests_total{endpoint="/v1/check",'
                    'status="200"} 8') in text
            assert 'ppchecker_jobs_total{status="completed"} 1' \
                in text
            assert "ppchecker_jobs_coalesced_total 7" in text
            assert ('ppchecker_stage_requests_total'
                    '{stage="policy_analysis",outcome="execution"} 1'
                    ) in text
            assert "ppchecker_queue_depth 0" in text

            # graceful drain: workers join, queue empty
            assert h.close(deadline=5.0) is True
            assert h.service.pool.alive == 0
            assert h.service.queue.depth == 0
        except BaseException:
            h.close(drain=False, deadline=1.0)
            raise

    def test_completed_job_lru_serves_repeat_requests(self, client,
                                                      handle):
        doc = make_doc()
        first = client.check(doc)
        second = client.check(doc)
        assert first == second
        # the repeat resolved to the completed job: still one job
        m = handle.service.metrics
        assert m.jobs.value(status="completed") == 1
        assert m.coalesced.value() == 1


class TestQuarantine:
    @pytest.fixture()
    def faulty_handle(self, tmp_path):
        plan = FaultPlan([FaultSpec(stage="static_analysis",
                                    kind="raise",
                                    message="injected crash")])
        h = start_service(ServiceConfig(
            port=0, workers=2, queue_size=8,
            checker=CheckerOptions(fault_plan=plan_file(tmp_path,
                                                        plan))))
        yield h
        h.close(deadline=5.0)

    def test_quarantined_check_is_structured_422(self, faulty_handle):
        client = ServiceClient(port=faulty_handle.port)
        with pytest.raises(CheckQuarantined) as excinfo:
            client.check(make_doc())
        error = excinfo.value.error
        assert error["kind"] == "quarantined"
        assert error["package"] == PKG
        assert error["stage"] == "static_analysis"
        assert error["error"] == "InjectedFault"
        assert "injected crash" in error["message"]
        assert error["attempts"] == 1

        # quarantine surfaces in the metrics, not as a 500
        text = client.metrics_text()
        assert "ppchecker_quarantine_total 1" in text
        assert 'ppchecker_jobs_total{status="quarantined"} 1' in text
        assert ('ppchecker_requests_total{endpoint="/v1/check",'
                'status="422"} 1') in text

    def test_async_job_reports_quarantine(self, faulty_handle):
        client = ServiceClient(port=faulty_handle.port)
        stub = client.submit(make_doc(package="com.example.async"))
        final = client.wait(stub["id"], timeout=30.0)
        assert final["state"] == "quarantined"
        assert final["error"]["stage"] == "static_analysis"
        assert "report" not in final

    def test_batch_quarantine_slot(self, faulty_handle):
        client = ServiceClient(port=faulty_handle.port)
        payload = client.batch([make_doc(package="com.example.b")])
        assert payload["quarantined"] == 1
        assert payload["results"][0]["status"] == "quarantined"
        assert payload["results"][0]["error"]["error"] == \
            "InjectedFault"


class TestBackpressureAndDrain:
    @pytest.fixture()
    def stalled_handle(self):
        # no workers: jobs stay queued, so capacity is reachable
        h = start_service(ServiceConfig(port=0, workers=0,
                                        queue_size=2))
        yield h
        h.close(drain=False, deadline=0.5)

    def test_full_queue_answers_429_retry_after(self, stalled_handle):
        client = ServiceClient(port=stalled_handle.port)
        client.submit(make_doc(package="com.example.a"))
        client.submit(make_doc(package="com.example.b"))
        with pytest.raises(ServiceBusy) as excinfo:
            client.submit(make_doc(package="com.example.c"))
        assert excinfo.value.retry_after >= 1
        assert excinfo.value.payload["error"]["kind"] == "queue_full"
        text = client.metrics_text()
        assert ('ppchecker_rejected_total{reason="queue_full"} 1'
                ) in text
        assert "ppchecker_queue_depth 2" in text

    def test_no_workers_by_design_reads_ok(self, stalled_handle):
        health = ServiceClient(port=stalled_handle.port).healthz()
        assert health["workers"] == health["workers_alive"] == 0
        assert health["status"] == "ok"

    def test_dead_workers_read_degraded(self):
        h = start_service(ServiceConfig(port=0, workers=2))
        try:
            client = ServiceClient(port=h.port)
            assert client.healthz()["status"] == "ok"
            h.service.pool.stop(deadline=5.0)
            health = client.healthz()
            assert health["workers_alive"] == 0
            assert health["status"] == "degraded"
        finally:
            h.close(drain=False, deadline=0.5)

    def test_queued_job_visible_via_status_endpoint(self,
                                                    stalled_handle):
        client = ServiceClient(port=stalled_handle.port)
        stub = client.submit(make_doc(package="com.example.q"))
        assert client.job(stub["id"])["state"] == "queued"

    def test_draining_rejects_new_work_503(self, stalled_handle):
        client = ServiceClient(port=stalled_handle.port)
        stalled_handle.service.begin_drain()
        with pytest.raises(ServiceUnavailable):
            client.submit(make_doc(package="com.example.d"))
        assert client.healthz()["status"] == "draining"
        text = client.metrics_text()
        assert ('ppchecker_rejected_total{reason="draining"} 1'
                ) in text

    def test_drain_503_carries_retry_after_from_budget(self):
        h = start_service(ServiceConfig(port=0, workers=0,
                                        queue_size=2,
                                        drain_timeout=7.0))
        try:
            client = ServiceClient(port=h.port)
            h.service.begin_drain()
            with pytest.raises(ServiceUnavailable) as excinfo:
                client.submit(make_doc(package="com.example.d"))
            # the server derives Retry-After from its drain budget:
            # back off for as long as the drain can possibly take
            assert excinfo.value.retry_after == 7.0
            status, headers, _ = client.request(
                "POST", "/v1/batch",
                {"bundles": [make_doc(package="com.example.e")]})
            assert status == 503
            assert headers["Retry-After"] == "7"
        finally:
            h.close(drain=False, deadline=0.5)

    def test_drain_and_queue_full_reasons_distinguishable(
            self, stalled_handle):
        client = ServiceClient(port=stalled_handle.port)
        client.submit(make_doc(package="com.example.a"))
        client.submit(make_doc(package="com.example.b"))
        with pytest.raises(ServiceBusy):
            client.submit(make_doc(package="com.example.c"))
        stalled_handle.service.begin_drain()
        with pytest.raises(ServiceUnavailable):
            client.submit(make_doc(package="com.example.d"))
        text = client.metrics_text()
        assert ('ppchecker_rejected_total{reason="draining"} 1'
                ) in text
        assert ('ppchecker_rejected_total{reason="queue_full"} 1'
                ) in text


class TestCompletedJobEviction:
    @pytest.fixture()
    def tiny_lru_handle(self):
        # one completed-job slot: the second finished job evicts the
        # first, whose id must then answer 410 Gone
        h = start_service(ServiceConfig(port=0, workers=1,
                                        queue_size=8,
                                        completed_jobs=1))
        yield h
        h.close(deadline=5.0)

    def test_evicted_job_answers_410_gone(self, tiny_lru_handle):
        from repro.service import JobGone

        client = ServiceClient(port=tiny_lru_handle.port)
        first = client.submit(make_doc(package="com.example.one"))
        client.wait(first["id"], timeout=30.0)
        second = client.submit(make_doc(package="com.example.two"))
        client.wait(second["id"], timeout=30.0)

        status, _, payload = client.request(
            "GET", f"/v1/jobs/{first['id']}")
        assert status == 410
        assert payload["error"]["kind"] == "gone"
        assert payload["error"]["job_id"] == first["id"]
        assert "resubmit" in payload["error"]["message"]
        with pytest.raises(JobGone):
            client.job(first["id"])
        # the survivor still resolves
        assert client.job(second["id"])["state"] == "completed"

    def test_never_issued_id_stays_404(self, tiny_lru_handle):
        client = ServiceClient(port=tiny_lru_handle.port)
        status, _, payload = client.request("GET",
                                            "/v1/jobs/job-999")
        assert status == 404
        assert payload["error"]["kind"] == "not_found"
        status, _, _ = client.request("GET", "/v1/jobs/not-a-job")
        assert status == 404

    def test_evictions_counted_in_metrics(self, tiny_lru_handle):
        client = ServiceClient(port=tiny_lru_handle.port)
        for i in range(3):
            stub = client.submit(make_doc(
                package=f"com.example.evict{i}"))
            client.wait(stub["id"], timeout=30.0)
        text = client.metrics_text()
        assert "ppchecker_jobs_evicted_total 2" in text
        assert tiny_lru_handle.service.index.evictions == 2

    def test_graceful_shutdown_finishes_queued_jobs(self):
        h = start_service(ServiceConfig(port=0, workers=2,
                                        queue_size=16))
        client = ServiceClient(port=h.port)
        stubs = [client.submit(make_doc(package=f"com.example.g{i}"))
                 for i in range(4)]
        jobs = [h.service.job(stub["id"]) for stub in stubs]
        assert h.close(deadline=30.0) is True
        assert all(job.done for job in jobs)
        assert all(job.state == "completed" for job in jobs)
        assert h.service.pool.alive == 0


class TestServeEntrypoint:
    def test_serve_drains_on_sigterm(self, tmp_path):
        """`ppchecker serve` in a child process: poll /healthz,
        submit one bundle, SIGTERM, expect a clean drain + exit 0."""
        import os
        import signal
        import subprocess
        import sys
        import time

        from repro.service import read_port_file

        port_file = str(tmp_path / "serve.port")
        root = os.path.dirname(os.path.dirname(
            os.path.dirname(os.path.abspath(__file__))))
        env = dict(os.environ)
        env["PYTHONPATH"] = os.path.join(root, "src") + (
            os.pathsep + env["PYTHONPATH"]
            if env.get("PYTHONPATH") else "")
        process = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "serve",
             "--port", "0", "--port-file", port_file,
             "--workers", "1",
             "--drain-timeout", "5"],
            env=env, stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT, text=True,
        )
        try:
            client = ServiceClient(port=read_port_file(port_file),
                                   timeout=5.0)
            deadline = time.monotonic() + 60
            while True:
                try:
                    client.healthz()
                    break
                except OSError:
                    if time.monotonic() > deadline:
                        raise TimeoutError("service never came up")
                    time.sleep(0.2)
            report = client.check(make_doc())
            assert report["package"] == PKG
            process.send_signal(signal.SIGTERM)
            out, _ = process.communicate(timeout=30)
            assert process.returncode == 0
            assert "serving on" in out
            assert "drained, bye" in out
        finally:
            if process.poll() is None:  # pragma: no cover
                process.kill()
                process.communicate(timeout=10)
