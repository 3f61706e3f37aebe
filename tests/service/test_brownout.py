"""Brownout chaos suite for the 3-shard cluster.

One shard of three is *browned out* -- a per-shard fault plan makes
every ``com.brown.*`` check on shard-0 answer correctly but ~1s
late.  The front must ride it out:

- **correctness** -- a batch spanning healthy and browned shards
  returns reports byte-identical to an in-process reference checker;
- **hedging** -- a slow ``/v1/check`` on the browned shard is raced
  against a healthy peer and the hedge's (identical) answer wins;
- **breaking** -- browned-out latency trips shard-0's circuit
  breaker open (``ppchecker_breaker_state`` = 2), diverting traffic
  to the next ring owner;
- **recovery** -- after the cool-off, a fast probe (a package the
  fault plan does not match) closes the breaker again via half-open;
- **deadlines** -- a tiny budget on a browned-out check is shed as a
  structured 504, end to end through the front.

Shard placement is computed in-test with the same SHA-256 ring every
front process uses, so the suite *chooses* packages that land on the
browned shard instead of hoping."""

from __future__ import annotations

import json
import threading
import time

import pytest

from repro.android.serialization import bundle_from_dict
from repro.core.checker import PPChecker
from repro.hashing import fingerprint
from repro.service import ServiceClient, ServiceConfig
from repro.service.cluster import ClusterConfig, start_cluster
from repro.service.hashring import ring_for, shard_name

from tests.service.test_cluster import wait_cluster_up
from tests.service.test_service import make_doc

SHARDS = 3
BROWNED = 0  # the shard the fault plan slows down
SLOW_S = 1.0


def make_brown_doc(prefix: str, index: int) -> dict:
    """A bundle document with a unique policy text, so every check
    recomputes its stages instead of coalescing into one cache entry
    (a cache hit would bypass the injected brownout)."""
    package = f"{prefix}.app{index}"
    return make_doc(package=package,
                    policy=f"We collect your email. [{package}]")


def docs_routed_to(prefix: str, shard_index: int, count: int,
                   ) -> list[dict]:
    """*count* bundle documents whose routing key lands on
    ``shard-<shard_index>`` -- the exact placement the front will
    compute, since both sides hash with the deterministic ring."""
    ring = ring_for(SHARDS)
    target = shard_name(shard_index)
    found: list[dict] = []
    index = 0
    while len(found) < count:
        doc = make_brown_doc(prefix, index)
        if ring.place(fingerprint(doc)) == target:
            found.append(doc)
        index += 1
        assert index < 10_000, "ring never produced a match"
    return found


def write_brownout_plan(directory) -> str:
    """A fault plan slowing every ``com.brown.*`` policy analysis by
    ``SLOW_S``; returns its path."""
    plan_path = directory / "brownout-plan.json"
    plan_path.write_text(json.dumps({"faults": [{
        "stage": "policy_analysis",
        "match": "com.brown",
        "kind": "slow",
        "delay_seconds": SLOW_S,
    }]}))
    return str(plan_path)


@pytest.fixture(scope="module")
def cluster(tmp_path_factory):
    plan_path = write_brownout_plan(tmp_path_factory.mktemp("brownout"))
    handle = start_cluster(ClusterConfig(
        service=ServiceConfig(port=0, workers=1, drain_timeout=5.0),
        shards=SHARDS,
        shard_fault_plans={BROWNED: plan_path},
        breaker_failures=2,
        breaker_latency=0.5,   # < SLOW_S: browned answers count
        breaker_cooloff=1.0,
        hedge=True,
        hedge_delay=0.3,       # << SLOW_S: hedges fire on brownouts
    ))
    try:
        yield handle
    finally:
        handle.close()


@pytest.fixture(scope="module")
def client(cluster):
    client = ServiceClient(port=cluster.port, timeout=120.0)
    wait_cluster_up(client, SHARDS)
    return client


def metric(client: ServiceClient, name: str, **labels) -> float:
    """One sample from the front's /metrics text."""
    want = name
    if labels:
        body = ",".join(f'{k}="{v}"'
                        for k, v in sorted(labels.items()))
        want = f"{name}{{{body}}}"
    for line in client.metrics_text().splitlines():
        if line.startswith(want + " "):
            return float(line.split()[-1])
    return 0.0


def wait_for(predicate, timeout: float, message: str) -> None:
    end = time.monotonic() + timeout
    while time.monotonic() < end:
        if predicate():
            return
        time.sleep(0.1)
    raise AssertionError(message)


def reference_report(doc: dict) -> dict:
    return PPChecker().check(bundle_from_dict(doc)).to_dict()


def test_every_browned_check_is_rescued_by_a_hedge(tmp_path):
    """Concurrent clients over all three shards: every check the
    browned shard owns is answered by a winning hedge, sooner than
    the browned primary can answer, and every report equals the
    in-process reference.

    A cluster of its own, so the hedge counters start at zero; its
    breaker never opens (the failure threshold exceeds the sweep), so
    no owner is diverted past the hedge path -- the breaker has its
    own cases below."""
    owned = docs_routed_to("com.brown.sweep", BROWNED, 4)
    docs = [doc for trio in zip(
        owned,
        docs_routed_to("com.brown.sweep", 1, 4),
        docs_routed_to("com.brown.sweep", 2, 4)) for doc in trio]
    handle = start_cluster(ClusterConfig(
        service=ServiceConfig(port=0, workers=1, drain_timeout=5.0),
        shards=SHARDS,
        shard_fault_plans={BROWNED: write_brownout_plan(tmp_path)},
        breaker_failures=len(docs) + 1,
        hedge=True,
        hedge_delay=0.3,
    ))
    try:
        client = ServiceClient(port=handle.port, timeout=120.0)
        wait_cluster_up(client, SHARDS)
        pending = list(enumerate(docs))
        lock = threading.Lock()
        answers: dict[int, tuple[int, dict, float]] = {}

        def drive() -> None:
            while True:
                with lock:
                    if not pending:
                        return
                    index, doc = pending.pop(0)
                started = time.monotonic()
                status, _, payload = client.request(
                    "POST", "/v1/check", doc)
                with lock:
                    answers[index] = (status, payload,
                                      time.monotonic() - started)

        threads = [threading.Thread(target=drive) for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        hedges_won = metric(client, "ppchecker_hedges_total",
                            outcome="hedge_won")
    finally:
        handle.close()

    assert sorted(answers) == list(range(len(docs)))
    for index, doc in enumerate(docs):
        status, payload, elapsed = answers[index]
        assert status == 200
        payload.pop("schema_version", None)
        assert payload == reference_report(doc), doc["package"]
        if doc in owned:
            # the browned primary cannot answer before SLOW_S
            assert elapsed < SLOW_S, (doc["package"], elapsed)
    assert hedges_won >= len(owned)


# ordered phases: each test builds on the cluster state the previous
# one left behind, so they must run top to bottom (pytest preserves
# in-file order)


def test_browned_batch_is_byte_identical(client):
    """Answers from the browned-out shard are *late*, never wrong:
    every report matches the in-process reference byte for byte."""
    docs = (docs_routed_to("com.brown.batch", BROWNED, 3)
            + docs_routed_to("com.brown.batch", 1, 2)
            + docs_routed_to("com.brown.batch", 2, 2))
    status, _, payload = client.request("POST", "/v1/batch",
                                        {"bundles": docs})
    assert status == 200
    assert payload["checked"] == len(docs)
    for doc, slot in zip(docs, payload["results"]):
        assert slot["status"] == "ok"
        got = json.dumps(slot["report"], sort_keys=True)
        want = json.dumps(reference_report(doc), sort_keys=True)
        assert got == want, f"report drifted for {doc['package']}"


def test_slow_primary_is_hedged_and_the_hedge_wins(client):
    """A /v1/check owned by the browned shard is raced against a
    healthy peer after the hedge delay; the peer's byte-identical
    answer comes back first."""
    doc = docs_routed_to("com.brown.hedge", BROWNED, 1)[0]
    started = time.monotonic()
    status, _, payload = client.request("POST", "/v1/check", doc)
    elapsed = time.monotonic() - started
    assert status == 200
    got = json.dumps({k: v for k, v in payload.items()
                      if k != "schema_version"}, sort_keys=True)
    want = json.dumps(reference_report(doc), sort_keys=True)
    assert got == want
    assert metric(client, "ppchecker_hedges_total",
                  outcome="hedge_won") >= 1
    # the hedge rescued the latency: the browned primary cannot
    # answer before SLOW_S
    assert elapsed < SLOW_S


def test_brownout_trips_the_breaker_open(client):
    """Consecutive brownout-slow answers open shard-0's breaker;
    subsequent owners' traffic diverts to the next ring owner."""
    shard = shard_name(BROWNED)
    # keep poking the browned shard until the latency signal trips it
    docs = iter(docs_routed_to("com.brown.trip", BROWNED, 12))

    def tripped() -> bool:
        if metric(client, "ppchecker_breaker_state",
                  shard=shard) == 2:
            return True
        status, _, _ = client.request("POST", "/v1/check",
                                      next(docs))
        assert status == 200
        return False

    wait_for(tripped, 90.0, "breaker never opened")
    assert metric(client, "ppchecker_breaker_transitions_total",
                  shard=shard, to="open") >= 1
    # open breaker: a browned-owner check now completes *fast* on a
    # fallback shard (no SLOW_S in the path)
    doc = docs_routed_to("com.brown.divert", BROWNED, 1)[0]
    started = time.monotonic()
    status, _, _ = client.request("POST", "/v1/check", doc)
    assert status == 200
    assert time.monotonic() - started < SLOW_S


def test_breaker_recovers_through_a_half_open_probe(client):
    """After the cool-off, the first request admitted to shard-0 is
    the half-open probe; the fault plan does not match com.probe.*
    so it answers fast and the breaker closes again."""
    shard = shard_name(BROWNED)
    docs = iter(docs_routed_to("com.probe", BROWNED, 30))

    def recovered() -> bool:
        if metric(client, "ppchecker_breaker_state",
                  shard=shard) == 0:
            return True
        status, _, _ = client.request("POST", "/v1/check",
                                      next(docs))
        assert status == 200
        return False

    wait_for(recovered, 90.0, "breaker never re-closed")
    assert metric(client, "ppchecker_breaker_transitions_total",
                  shard=shard, to="half_open") >= 1
    assert metric(client, "ppchecker_breaker_transitions_total",
                  shard=shard, to="closed") >= 1
    # and the recovered shard serves its owners directly again
    doc = docs_routed_to("com.probe.direct", BROWNED, 1)[0]
    status, _, payload = client.request("POST", "/v1/check", doc)
    assert status == 200
    assert payload["package"] == doc["package"]


def test_deadline_is_shed_end_to_end_through_the_front(client):
    """A tiny budget on a browned-out check is forwarded (minus
    front time) and shed by whichever layer the clock runs out in --
    the client sees one structured 504."""
    doc = docs_routed_to("com.brown.doomed", BROWNED, 1)[0]
    doc["deadline_s"] = 0.05
    status, _, payload = client.request("POST", "/v1/check", doc)
    assert status == 504
    assert payload["error"]["kind"] == "deadline_exceeded"
    # and garbage budgets are rejected at the front, before any
    # shard sees them
    bad = docs_routed_to("com.brown.bad", BROWNED, 1)[0]
    bad["deadline_s"] = "soon"
    status, _, payload = client.request("POST", "/v1/check", bad)
    assert status == 400
