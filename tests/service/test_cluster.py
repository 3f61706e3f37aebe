"""e2e chaos harness for ``serve --shards N``.

Three layers:

- **basics** -- routing by bundle key, cluster-wide job ids
  (``s<shard>-job-<n>``), aggregated healthz/deadletter, front
  metrics;
- **chaos** -- SIGKILL one shard mid-batch: healthz stays green
  (degraded, never down), the in-flight jobs are retried onto the
  respawned shard (or dead-lettered within the redelivery budget for
  poison pills), and completed results are unaffected;
- **drain** -- SIGTERM'ing the cluster drains every shard gracefully
  (exit 0 each).
"""

from __future__ import annotations

import json
import os
import signal
import threading
import time

import pytest

from repro.android.serialization import bundle_to_dict
from repro.core.checker import CheckerOptions
from repro.corpus.appstore import CorpusSpec
from repro.hashing import fingerprint
from repro.service import ServiceClient, ServiceConfig
from repro.service.cluster import ClusterConfig, start_cluster
from repro.service.hashring import ring_for

from tests.service.test_service import make_doc


def wait_cluster_up(client: ServiceClient, shards: int,
                    deadline: float = 120.0) -> dict:
    end = time.monotonic() + deadline
    while True:
        try:
            health = client.healthz()
            if health["shards_alive"] == shards:
                return health
        except OSError:
            pass
        if time.monotonic() > end:
            raise TimeoutError("cluster never became healthy")
        time.sleep(0.2)


def routed_total(client: ServiceClient) -> float:
    """``ppchecker_routed_total`` summed over the shards."""
    return sum(float(line.split()[-1])
               for line in client.metrics_text().splitlines()
               if line.startswith("ppchecker_routed_total{"))


@pytest.fixture(scope="module")
def cluster(tmp_path_factory):
    base = tmp_path_factory.mktemp("cluster")
    handle = start_cluster(ClusterConfig(
        service=ServiceConfig(
            port=0, workers=1, state_dir=str(base / "state"),
            drain_timeout=5.0,
            checker=CheckerOptions(cache_dir=str(base / "cache"))),
        shards=2,
    ))
    try:
        yield handle
    finally:
        handle.close()


@pytest.fixture(scope="module")
def client(cluster):
    c = ServiceClient(port=cluster.port, timeout=60.0)
    wait_cluster_up(c, shards=2)
    return c


class TestClusterBasics:
    def test_healthz_aggregates_shards(self, client):
        health = client.healthz()
        assert health["status"] == "ok"
        assert health["role"] == "front"
        assert health["shards"] == 2
        assert health["shards_alive"] == 2
        assert health["durable"]
        names = [row["name"] for row in health["shard_detail"]]
        assert names == ["shard-0", "shard-1"]
        assert all(row["alive"] for row in health["shard_detail"])

    def test_check_round_trip(self, client):
        report = client.check(make_doc(with_location=True))
        assert report["package"] == "com.test.app"
        assert report["has_problem"]

    def test_job_ids_are_cluster_wide(self, client):
        stub = client.submit(make_doc(package="com.example.async"))
        assert stub["id"].startswith("s")
        assert "-job-" in stub["id"]
        assert stub["location"] == f"/v1/jobs/{stub['id']}"
        final = client.wait(stub["id"], timeout=60)
        assert final["state"] == "completed"
        assert final["id"] == stub["id"]
        assert final["report"]["package"] == "com.example.async"

    def test_identical_bundles_coalesce_on_one_shard(self, client):
        doc = make_doc(package="com.example.same")
        first = client.submit(doc)
        second = client.submit(doc)
        # same content hash -> same shard -> same job
        assert second["id"] == first["id"]
        assert second["coalesced"]

    def test_copy_with_an_unknown_field_coalesces_on_one_shard(
            self, client):
        """Decoding ignores fields it does not know, so the copy has
        the original's bundle key: the same shard, the same job.  The
        document is one whose raw-document hash would have split the
        two across the shards."""
        ring = ring_for(2)
        spec = CorpusSpec(n_apps=64)
        for index in range(len(spec)):
            bundle = spec.app(index).bundle
            if bundle.apk.packed:
                continue
            doc = bundle_to_dict(bundle)
            copy = dict(doc, annotation="not a bundle field")
            if ring.place(fingerprint(doc)) != ring.place(fingerprint(copy)):
                break
        else:
            pytest.fail("no corpus document splits on its raw hash")
        first = client.submit(doc)
        second = client.submit(copy)
        assert second["id"] == first["id"]
        assert second["coalesced"]
        final = client.wait(first["id"], timeout=60)
        assert final["state"] == "completed"
        assert final["report"]["package"] == bundle.package

    def test_undecodable_document_is_answered_by_the_front(self, client):
        """The front decodes to route, so it answers a document that
        does not decode itself -- exactly as a shard would -- and
        routes nothing."""
        shard = ServiceClient(
            port=client.healthz()["shard_detail"][0]["port"],
            timeout=60.0)
        routed = routed_total(client)
        front_answer = client.request("POST", "/v1/check",
                                      {"version": 1})
        shard_answer = shard.request("POST", "/v1/check",
                                     {"version": 1})
        assert front_answer[0] == shard_answer[0] == 400
        assert front_answer[2] == shard_answer[2]
        assert front_answer[2]["error"]["kind"] == "bad_request"

        batch = {"bundles": [make_doc(package="com.example.decodes"),
                             {"version": 1}]}
        status, _, payload = client.request("POST", "/v1/batch", batch)
        assert status == 200
        ok, invalid = payload["results"]
        assert ok["status"] == "ok"
        assert invalid == {"status": "invalid", "error": {
            "kind": "bad_request",
            "message": shard_answer[2]["error"]["message"]}}
        shard.close()
        # only the decodable batch document was routed
        assert routed_total(client) == routed + 1

    def test_batch_spreads_over_shards(self, client):
        docs = [make_doc(package=f"com.example.spread{i}")
                for i in range(8)]
        payload = client.batch(docs)
        assert payload["checked"] == 8
        assert payload["rejected"] == 0
        owners = {row["job_id"].split("-job-")[0]
                  for row in payload["results"]}
        assert owners == {"s0", "s1"}
        for doc, row in zip(docs, payload["results"]):
            assert row["report"]["package"] == doc["package"]

    def test_unprefixed_job_id_is_not_found(self, client):
        from repro.service import ServiceError

        with pytest.raises(ServiceError) as excinfo:
            client.job("job-1")
        assert excinfo.value.status == 404

    def test_deadletter_empty(self, client):
        payload = client.deadletter()
        assert payload == {"schema_version":
                           payload["schema_version"],
                           "deadletters": [], "count": 0}

    def test_front_metrics_expose_cluster_gauges(self, client):
        text = client.metrics_text()
        assert "ppchecker_shards_alive 2" in text
        assert "ppchecker_routed_total" in text
        assert "ppchecker_front_requests_total" in text


@pytest.fixture(scope="module")
def chaos_cluster(tmp_path_factory):
    """shards=3 with an armed fault plan: every ``com.chaos.`` app
    hangs 1s in policy analysis (a wide kill window), and
    ``com.example.poison`` crashes its whole shard process."""
    base = tmp_path_factory.mktemp("chaos")
    plan = base / "faults.json"
    plan.write_text(json.dumps({"faults": [
        {"stage": "policy_analysis", "match": "com.chaos.",
         "kind": "hang", "hang_seconds": 1.0},
        {"stage": "policy_analysis", "match": "com.example.poison",
         "kind": "hang", "hang_seconds": 1.0},
        {"stage": "detect", "match": "com.example.poison",
         "kind": "crash"},
    ]}))
    handle = start_cluster(ClusterConfig(
        service=ServiceConfig(
            port=0, workers=1, state_dir=str(base / "state"),
            max_redeliveries=1, drain_timeout=5.0,
            checker=CheckerOptions(cache_dir=str(base / "cache"),
                                   fault_plan=str(plan))),
        shards=3,
        reroute_timeout=120.0,
    ))
    try:
        yield handle
    finally:
        handle.close()


@pytest.fixture(scope="module")
def chaos_client(chaos_cluster):
    c = ServiceClient(port=chaos_cluster.port, timeout=180.0)
    wait_cluster_up(c, shards=3)
    return c


class TestShardKillChaos:
    def test_sigkill_mid_batch_recovers(self, chaos_cluster,
                                        chaos_client):
        docs = [make_doc(package=f"com.chaos.app{i}")
                for i in range(9)]
        outcome: dict = {}

        def run_batch() -> None:
            outcome["payload"] = chaos_client.batch(docs)

        worker = threading.Thread(target=run_batch)
        worker.start()
        # let the batch reach the shards (every job hangs ~1s), then
        # take one worker process down hard
        time.sleep(0.5)
        victim = chaos_cluster.supervisor.shards[0]
        victim_pid = victim.pid
        assert victim_pid is not None
        os.kill(victim_pid, signal.SIGKILL)

        # healthz stays green throughout the respawn window
        health = chaos_client.healthz()
        assert health["status"] in ("ok", "degraded")
        assert health["shards_alive"] >= 2

        worker.join(timeout=180)
        assert not worker.is_alive(), "batch never completed"
        payload = outcome["payload"]
        # every in-flight job was re-driven to completion: the dead
        # shard's sub-batch was retried against its replacement
        assert payload["checked"] == 9
        assert payload["quarantined"] == 0
        assert payload["rejected"] == 0
        for doc, row in zip(docs, payload["results"]):
            assert row["status"] == "ok"
            assert row["report"]["package"] == doc["package"]

        health = wait_cluster_up(chaos_client, shards=3)
        restarts = {row["name"]: row["restarts"]
                    for row in health["shard_detail"]}
        assert restarts["shard-0"] >= 1
        assert victim.pid != victim_pid

    def test_results_survive_the_kill(self, chaos_client):
        # completed results from before/after the chaos are intact:
        # a fresh check of an unrelated bundle works and a cached
        # re-check returns the identical report
        doc = make_doc(package="com.example.survivor")
        first = chaos_client.check(doc)
        second = chaos_client.check(doc)
        assert first == second
        assert first["package"] == "com.example.survivor"

    def test_poison_pill_deadletters_within_budget(self,
                                                   chaos_client):
        # a unique policy keeps the hang stage cold (a shared-cache
        # hit would skip the hang and let the crash race the 202)
        stub = chaos_client.submit(make_doc(
            package="com.example.poison",
            policy="We collect poison telemetry and device logs."))
        # the shard crashes; the supervisor respawns it; journal
        # recovery burns the delivery budget and parks the pill
        # (earlier chaos may have parked jobs of its own, so poll
        # for this specific id)
        deadline = time.monotonic() + 180
        while True:
            payload = chaos_client.deadletter()
            ids = [doc["id"] for doc in payload["deadletters"]]
            if stub["id"] in ids:
                break
            assert time.monotonic() < deadline, \
                f"pill never dead-lettered (parked: {ids})"
            time.sleep(0.5)
        final = chaos_client.job(stub["id"])
        assert final["state"] == "deadlettered"
        # the cluster still checks healthy bundles
        report = chaos_client.check(make_doc(
            package="com.example.after.poison"))
        assert report["package"] == "com.example.after.poison"
        health = chaos_client.healthz()
        assert health["status"] in ("ok", "degraded")


class TestGracefulDrain:
    def test_close_drains_every_shard(self, tmp_path):
        handle = start_cluster(ClusterConfig(
            service=ServiceConfig(port=0, workers=1,
                                  state_dir=str(tmp_path / "state"),
                                  drain_timeout=5.0),
            shards=2,
        ))
        client = ServiceClient(port=handle.port, timeout=60.0)
        wait_cluster_up(client, shards=2)
        report = client.check(make_doc(package="com.example.drain"))
        assert report["package"] == "com.example.drain"
        processes = [shard.process
                     for shard in handle.supervisor.shards]
        handle.close()
        # SIGTERM drain: every shard exited cleanly, none were killed
        assert [p.returncode for p in processes] == [0, 0]
        # and the front stopped listening
        with pytest.raises(OSError):
            client.healthz()


class TestRunDirectory:
    """A cluster keeps its shards' port and stderr files in a run
    directory: ``state_dir`` when set, else a temp directory that
    ``close()`` removes."""

    def test_close_removes_the_temp_run_dir_it_made(self):
        handle = start_cluster(ClusterConfig(
            service=ServiceConfig(port=0, workers=1, drain_timeout=5.0),
            shards=1,
        ))
        run_dir = handle.temp_dir
        assert os.path.basename(run_dir).startswith("ppchecker-cluster-")
        assert "shard-0.port" in os.listdir(run_dir)
        handle.close()
        assert not os.path.exists(run_dir)

    def test_close_keeps_the_state_dir(self, tmp_path):
        state = tmp_path / "state"
        handle = start_cluster(ClusterConfig(
            service=ServiceConfig(port=0, workers=1,
                                  state_dir=str(state),
                                  drain_timeout=5.0),
            shards=1,
        ))
        assert handle.temp_dir is None
        handle.close()
        assert {"shard-0", "shard-0.port", "shard-0.stderr"} \
            <= set(os.listdir(state))
