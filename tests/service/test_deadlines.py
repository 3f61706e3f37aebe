"""Deadline propagation through the single-process service.

A request-level budget (the ``deadline_s`` field or the
``X-Ppchecker-Deadline`` header) follows the job through queueing and
execution.  Expired work is *shed* -- a structured 504, never a
half-finished check -- at whichever point the budget runs out:
before queueing, at dequeue, or mid-run.  Shed jobs are forgotten,
not cached, so a resubmission with a fresh budget really runs; and
both 429s and shed 504s carry the load-aware ``Retry-After``.
"""

from __future__ import annotations

import time

import pytest

from repro.android.serialization import bundle_from_dict
from repro.core.checker import CheckerOptions
from repro.pipeline.faults import SLOW, FaultPlan, FaultSpec
from repro.pipeline.resilience import Deadline, StageError, deadline_scope
from repro.service import (
    DEADLINE_HEADER,
    ServiceClient,
    ServiceConfig,
    start_service,
)

from tests.service.test_service import make_doc, plan_file

SLOW_PKG = "com.slow.app"


def slow_plan(directory, delay: float = 0.5) -> str:
    """Every stage of ``com.slow.*`` checks takes *delay* extra
    seconds -- the brownout shape: correct answers, late.  Returns
    the plan's path."""
    return plan_file(directory, FaultPlan([FaultSpec(
        stage="policy_analysis", match="com.slow", kind=SLOW,
        delay_seconds=delay)]))


@pytest.fixture()
def handle(tmp_path):
    h = start_service(ServiceConfig(
        port=0, workers=1, queue_size=8,
        checker=CheckerOptions(fault_plan=slow_plan(tmp_path, 0.5))))
    yield h
    h.close(deadline=5.0)


@pytest.fixture()
def client(handle):
    return ServiceClient(port=handle.port, timeout=60.0)


def metrics_value(client: ServiceClient, needle: str) -> float:
    for line in client.metrics_text().splitlines():
        if line.startswith(needle + " "):
            return float(line.split()[-1])
    return 0.0


# -- intake ----------------------------------------------------------------


def test_generous_deadline_checks_normally(client):
    doc = make_doc(package="com.ok.generous")
    doc["deadline_s"] = 60.0
    status, _, payload = client.request("POST", "/v1/check", doc)
    assert status == 200
    assert payload["package"] == "com.ok.generous"


def test_deadline_header_is_honored(handle, client):
    import json
    from http.client import HTTPConnection

    conn = HTTPConnection("127.0.0.1", handle.port, timeout=30)
    try:
        body = json.dumps(make_doc(package="com.ok.header")).encode()
        conn.request("POST", "/v1/check", body=body, headers={
            "Content-Type": "application/json",
            DEADLINE_HEADER: "60",
        })
        response = conn.getresponse()
        payload = json.loads(response.read())
        assert response.status == 200
        assert payload["package"] == "com.ok.header"
    finally:
        conn.close()


@pytest.mark.parametrize("bad", ["soon", -1, 0, "inf", "nan"])
def test_invalid_deadline_is_a_400(client, bad):
    doc = make_doc(package="com.ok.invalid")
    doc["deadline_s"] = bad
    status, _, payload = client.request("POST", "/v1/check", doc)
    assert status == 400
    assert payload["error"]["kind"] == "bad_request"


def test_deadline_field_never_reaches_the_fingerprint(client):
    """Identical bundles with different budgets are the *same* job:
    the reserved field is popped before parsing, so coalescing (and,
    at the cluster front, shard routing) stay deadline-blind."""
    doc = make_doc(package="com.ok.coalesce")
    status, _, first = client.request("POST", "/v1/jobs", doc)
    assert status == 202 and first["coalesced"] is False
    redo = make_doc(package="com.ok.coalesce")
    redo["deadline_s"] = 60.0
    status, _, second = client.request("POST", "/v1/jobs", redo)
    assert status == 202
    assert second["id"] == first["id"]
    assert second["coalesced"] is True


# -- shedding --------------------------------------------------------------


def test_expired_in_queue_is_shed_not_run(client):
    """A queued job whose submitter has already given up must never
    burn pipeline work: it is shed at dequeue with the structured
    504 payload."""
    # workers=1: this slow check (~0.5s) blocks the only worker
    client.request("POST", "/v1/jobs", make_doc(package=SLOW_PKG))
    victim = make_doc(package="com.ok.victim")
    victim["deadline_s"] = 0.05
    status, headers, payload = client.request(
        "POST", "/v1/check", victim)
    assert status == 504
    error = payload["error"]
    assert error["kind"] == "deadline_exceeded"
    assert error["package"] == "com.ok.victim"
    assert "queued" in error["where"]
    assert error["deadline_s"] == 0.05
    assert 1 <= int(headers["Retry-After"]) <= 60
    assert metrics_value(
        client, "ppchecker_deadline_shed_total") >= 1


def test_mid_run_expiry_sheds_instead_of_quarantining(client):
    doc = make_doc(package=SLOW_PKG + ".midrun")
    doc["deadline_s"] = 0.15  # the slow stage alone takes ~0.5s
    status, _, payload = client.request("POST", "/v1/check", doc)
    assert status == 504
    assert payload["error"]["kind"] == "deadline_exceeded"
    # shed is not failure: nothing was quarantined
    assert metrics_value(client, "ppchecker_quarantine_total") == 0


def test_shed_job_is_forgotten_then_fresh_budget_reruns(client):
    client.request("POST", "/v1/jobs", make_doc(package=SLOW_PKG))
    victim = make_doc(package="com.ok.fresh")
    victim["deadline_s"] = 0.05
    status, _, payload = client.request("POST", "/v1/jobs", victim)
    assert status == 202
    job_id = payload["id"]
    # wait for the shed to happen at dequeue
    deadline = time.monotonic() + 30.0
    while time.monotonic() < deadline:
        status, _, _ = client.request("GET", f"/v1/jobs/{job_id}")
        if status == 410:
            break
        time.sleep(0.05)
    # a shed job is forgotten, never a coalesce target: its id is
    # Gone, and resubmitting with a fresh budget actually runs
    assert status == 410
    status, _, payload = client.request(
        "POST", "/v1/check", make_doc(package="com.ok.fresh"))
    assert status == 200
    assert payload["package"] == "com.ok.fresh"


def test_batch_sheds_per_document(client):
    blocker = make_doc(package=SLOW_PKG + ".batch")
    doomed = make_doc(package="com.ok.doomed")
    doomed["deadline_s"] = 0.05
    status, _, payload = client.request(
        "POST", "/v1/batch",
        {"bundles": [blocker, doomed]})
    assert status == 200
    assert payload["shed"] == 1
    assert payload["checked"] == 1
    by_status = {slot["status"]: slot for slot in payload["results"]}
    assert by_status["shed"]["error"]["kind"] == "deadline_exceeded"


def test_submit_with_spent_deadline_is_shed_before_the_queue():
    h = start_service(ServiceConfig(port=0, workers=1,
                                    queue_size=4))
    try:
        from repro.service.server import DeadlineExpired

        spent = Deadline.after(0.001)
        time.sleep(0.01)
        with pytest.raises(DeadlineExpired) as excinfo:
            h.service.submit(make_doc(package="com.ok.spent"),
                             deadline=spent)
        assert excinfo.value.error["kind"] == "deadline_exceeded"
        assert "before the job was queued" in \
            excinfo.value.error["where"]
        # nothing entered the queue or the index
        assert h.service.queue.depth == 0
        assert h.service.index.inflight == 0
    finally:
        h.close(deadline=5.0)


# -- the checker's own deadline vs. an ambient one ------------------------


def test_checker_deadline_yields_to_an_ambient_deadline(tmp_path):
    """``deadline_seconds`` opens a fresh per-check budget only when
    no deadline is in scope already: the service's checker carries
    ``serve --deadline``, and a request's explicit (longer)
    ``deadline_s`` must not be cut down to it."""
    checker = CheckerOptions(fault_plan=slow_plan(tmp_path, 0.2),
                             deadline=0.05).build_checker(
        lambda lib_id: None)
    bundle = bundle_from_dict(make_doc(package=SLOW_PKG))
    # alone, the checker's own budget cuts the slow check
    with pytest.raises(StageError, match="timeout"):
        checker.check(bundle)
    # inside a longer ambient deadline, the same check completes
    with deadline_scope(Deadline.after(5.0)):
        report = checker.check(bundle)
    assert report.package == SLOW_PKG


# -- service-wide default & load-aware Retry-After -------------------------


def test_configured_default_deadline_applies_without_request_one(
        tmp_path):
    h = start_service(ServiceConfig(
        port=0, workers=1, queue_size=4,
        checker=CheckerOptions(fault_plan=slow_plan(tmp_path, 0.6),
                               deadline=0.15)))
    try:
        client = ServiceClient(port=h.port, timeout=60.0)
        status, _, payload = client.request(
            "POST", "/v1/check", make_doc(package=SLOW_PKG))
        assert status == 504
        assert payload["error"]["kind"] == "deadline_exceeded"
        # an explicit request deadline overrides the default
        doc = make_doc(package="com.ok.override")
        doc["deadline_s"] = 60.0
        status, _, payload = client.request("POST", "/v1/check", doc)
        assert status == 200
        # ... also when the check outlasts the default
        doc = make_doc(package=f"{SLOW_PKG}.override")
        doc["deadline_s"] = 60.0
        status, _, payload = client.request("POST", "/v1/check", doc)
        assert status == 200
    finally:
        h.close(deadline=5.0)


def test_429_carries_load_aware_retry_after(tmp_path):
    h = start_service(ServiceConfig(
        port=0, workers=1, queue_size=1,
        checker=CheckerOptions(fault_plan=slow_plan(tmp_path, 0.5))))
    try:
        client = ServiceClient(port=h.port, timeout=60.0)
        saw_429 = None
        for i in range(12):
            status, headers, _ = client.request(
                "POST", "/v1/jobs",
                make_doc(package=f"{SLOW_PKG}.load{i}"))
            if status == 429:
                saw_429 = headers
                break
        assert saw_429 is not None, "queue never filled"
        assert 1 <= int(saw_429["Retry-After"]) <= 60
    finally:
        h.close(deadline=5.0)
