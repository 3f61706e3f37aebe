"""Brownout chaos suite for the 3-shard cluster.

Every shard runs a fault plan that makes each ``com.brown.*`` check
answer correctly but ~1s late; the suite picks packages that the ring
places on shard-0, the *browned* shard.  The front routes each request
to its ring owner and nowhere else:

- **correctness** -- a batch spanning healthy and browned shards
  returns reports byte-identical to an in-process reference checker;
- **one route per check** -- a browned-owned ``/v1/check`` runs on
  exactly one shard, so closing the cluster never waits on discarded
  work;
- **deadlines** -- a tiny budget on a browned-out check is shed as a
  structured 504, end to end through the front.

Shard placement is computed in-test with the same SHA-256 ring every
front process uses, so the suite *chooses* packages that land on the
browned shard instead of hoping."""

from __future__ import annotations

import json
import time

import pytest

from repro.android.serialization import bundle_from_dict
from repro.core.checker import CheckerOptions, PPChecker
from repro.service import ServiceClient, ServiceConfig
from repro.service.cluster import ClusterConfig, start_cluster
from repro.service.hashring import ring_for, shard_name
from repro.service.server import decode_bundle

from tests.service.test_cluster import wait_cluster_up
from tests.service.test_service import make_doc

SHARDS = 3
BROWNED = 0  # the shard whose documents the suite picks
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
    """*count* bundle documents whose bundle key lands on
    ``shard-<shard_index>`` -- the exact placement the front will
    compute: the same decode-and-key function, the same
    deterministic ring."""
    ring = ring_for(SHARDS)
    target = shard_name(shard_index)
    found: list[dict] = []
    index = 0
    while len(found) < count:
        doc = make_brown_doc(prefix, index)
        if ring.place(decode_bundle(doc).key) == target:
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


def brownout_cluster(directory):
    """A 3-shard cluster whose fault plan slows ``com.brown.*``."""
    return start_cluster(ClusterConfig(
        service=ServiceConfig(
            port=0, workers=1, drain_timeout=5.0,
            checker=CheckerOptions(
                fault_plan=write_brownout_plan(directory))),
        shards=SHARDS,
    ))


@pytest.fixture(scope="module")
def cluster(tmp_path_factory):
    handle = brownout_cluster(tmp_path_factory.mktemp("brownout"))
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


def reference_report(doc: dict) -> dict:
    return PPChecker().check(bundle_from_dict(doc)).to_dict()


def test_each_check_runs_on_exactly_one_shard(tmp_path):
    """Sequential checks the browned shard owns: each is answered by
    its owner alone -- late but equal to the in-process reference --
    so the front routes exactly one request per check and closing the
    cluster has no abandoned work to wait for.

    A cluster of its own, so the routing counters start at zero."""
    docs = docs_routed_to("com.brown.once", BROWNED, 4)
    handle = brownout_cluster(tmp_path)
    try:
        client = ServiceClient(port=handle.port, timeout=120.0)
        wait_cluster_up(client, SHARDS)
        for doc in docs:
            status, _, payload = client.request("POST", "/v1/check",
                                                doc)
            assert status == 200
            payload.pop("schema_version", None)
            assert payload == reference_report(doc), doc["package"]
        routed = sum(metric(client, "ppchecker_routed_total",
                            shard=shard_name(index))
                     for index in range(SHARDS))
    finally:
        started = time.monotonic()
        handle.close()
        closed_in = time.monotonic() - started
    assert routed == len(docs)
    assert closed_in < SLOW_S


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
