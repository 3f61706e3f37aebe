"""The sharded planes are byte-equivalent to the single-process ones.

Differential proof obligations for the ``--shards N`` worker planes:

- ``run_study(..., shards=N)`` reproduces the tables the set-based
  oracle derives from an inline ``run_study``'s reports
  byte-identically for any shard count, cold *and* warm through the
  shared sqlite artifact store (the full 1,197-app study rides in the
  slow lane),
- the streaming study on the process plane folds the same aggregates
  and writes the same NDJSON result shards as the in-process one,
- the journal hooks fire identically, so a resumed sharded run merges
  replayed outcomes exactly like a single-process one,
- the CLI end to end: ``study --shards N`` (alone, and with
  ``--out`` + merge-results) prints the same tables and writes the
  same JSON as plain ``study``,
- the sharded service: ``/v1/batch`` against ``serve --shards N``
  returns the same reports in the same order as the single-process
  service.
"""

import json
import os
import subprocess
import sys

import pytest

from repro.core.checker import CheckerOptions, PPChecker
from repro.core.study import (
    merge_study_results,
    run_study,
    run_study_streaming,
)
from repro.corpus.appstore import CorpusSpec
from repro.pipeline.stages import STAGES
from tests.core.study_reference import reference_study


def canonical(doc):
    return json.dumps(doc, indent=2, sort_keys=True).encode()


def run_cli(args, env, timeout=600):
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
    with open(path, encoding="utf-8") as handle:
        payload = json.load(handle)
    for key in ("pipeline_stats", "nlp_caches", "telemetry"):
        payload.pop(key, None)
    return canonical(payload)


def total_hits(result) -> int:
    return sum(row["cache_hits"]
               for row in result.stats.to_dict().values())


class TestShardedStudyEquivalence:
    def test_cold_and_warm_match_serial(self, tmp_path, small_store):
        base = reference_study(small_store, run_study(small_store))
        options = CheckerOptions(cache_dir=str(tmp_path / "cache"))
        cold = run_study(CorpusSpec(n_apps=64), shards=4,
                         shard_options=options)
        warm = run_study(CorpusSpec(n_apps=64), shards=4,
                         shard_options=options)
        assert canonical(cold.to_dict()) == canonical(base.to_dict())
        assert canonical(warm.to_dict()) == canonical(base.to_dict())
        # the warm pass really re-read the shared sqlite store: every
        # stage request that executed cold is a hit warm
        assert total_hits(warm) > total_hits(cold)

    def test_sharded_cache_serves_the_check_recipe(self, tmp_path):
        """A cache filled by the process plane is all hits for the
        checker ``check`` builds (the default recipe over the same
        ``--cache-dir``): one on-disk layout serves every plane."""
        spec = CorpusSpec(n_apps=16)
        cache = str(tmp_path / "cache")
        run_study(spec, shards=2,
                  shard_options=CheckerOptions(cache_dir=cache))
        checker = CheckerOptions(cache_dir=cache).build_checker(
            spec.lib_policy)
        for app in spec.iter_apps():
            checker.check(app.bundle)
        stats = checker.stats.to_dict()
        assert set(stats) == set(STAGES)
        for stage, row in stats.items():
            assert row["cache_hits"] > 0, stage
            assert row["executions"] == 0, stage
            assert row["failures"] == 0, stage

    def test_shard_count_never_changes_the_tables(self):
        results = [run_study(CorpusSpec(n_apps=32), shards=shards)
                   for shards in (1, 2, 5)]
        payloads = {canonical(result.to_dict())
                    for result in results}
        assert len(payloads) == 1

    def test_limit_matches_run_study_limit(self, mid_store):
        base = reference_study(mid_store,
                               run_study(mid_store, limit=48))
        sharded = run_study(CorpusSpec(n_apps=len(mid_store)),
                            shards=3, limit=48)
        assert canonical(sharded.to_dict()) \
            == canonical(base.to_dict())
        assert sharded.n_apps == 48

    def test_streaming_sharded_writes_identical_result_shards(
            self, tmp_path):
        from repro.core.results import ShardedResultWriter

        spec = CorpusSpec(n_apps=64)
        meta = {"kind": "study", "seed": spec.seed,
                "apps": spec.n_apps}

        def run(out, shards):
            with ShardedResultWriter(out, meta, shards=2) as writer:
                return run_study_streaming(spec, sinks=[writer],
                                           shards=shards)

        inproc = run(str(tmp_path / "inproc"), shards=0)
        sharded = run(str(tmp_path / "sharded"), shards=3)
        assert canonical(sharded.to_dict()) \
            == canonical(inproc.to_dict())
        names = sorted(os.listdir(str(tmp_path / "inproc")))
        assert names == sorted(os.listdir(str(tmp_path / "sharded")))
        for name in names:
            with open(tmp_path / "inproc" / name, "rb") as a, \
                    open(tmp_path / "sharded" / name, "rb") as b:
                assert a.read() == b.read()
        merged = merge_study_results(str(tmp_path / "sharded"))
        assert canonical(merged.to_dict()) \
            == canonical(inproc.to_dict())

    def test_skip_merges_like_a_resumed_journal(self, small_store):
        base = reference_study(small_store, run_study(small_store))
        # replay half the outcomes as if a journal survived a crash
        packages = sorted(base.reports)[::2]
        skip = {package: base.reports[package]
                for package in packages}
        fresh_fired = []
        resumed = run_study(
            CorpusSpec(n_apps=64), shards=3, skip=skip,
            on_outcome=lambda pkg, outcome: fresh_fired.append(pkg))
        assert canonical(resumed.to_dict()) \
            == canonical(base.to_dict())
        # the checkpoint hook fired for exactly the fresh apps
        assert set(fresh_fired) == set(base.reports) - set(skip)

    @pytest.mark.slow
    def test_full_1197_study_cold_and_warm(self, tmp_path,
                                           full_store, checker):
        base = reference_study(full_store,
                               run_study(full_store, checker=checker))
        options = CheckerOptions(cache_dir=str(tmp_path / "cache"))
        cold = run_study(CorpusSpec(), shards=4,
                         shard_options=options)
        warm = run_study(CorpusSpec(), shards=4,
                         shard_options=options)
        assert canonical(cold.to_dict()) == canonical(base.to_dict())
        assert canonical(warm.to_dict()) == canonical(base.to_dict())
        assert total_hits(warm) > total_hits(cold)
        assert warm.summary()["problem_apps"] == 282


class TestShardedStudyCli:
    N_APPS = 80

    @pytest.fixture(scope="class")
    def reference(self, tmp_path_factory):
        out = str(tmp_path_factory.mktemp("ref") / "ref.json")
        result = run_cli(["study", "--apps", str(self.N_APPS),
                          "--json", out], cli_env())
        assert result.returncode == 0, result.stdout + result.stderr
        return out, result.stdout

    def test_cli_sharded_cold_and_warm_match(self, tmp_path,
                                             reference):
        ref_json, ref_stdout = reference
        env = cli_env()
        cache = str(tmp_path / "cache")
        for name in ("cold.json", "warm.json"):
            out = str(tmp_path / name)
            run = run_cli(["study", "--apps", str(self.N_APPS),
                           "--shards", "3", "--cache-dir", cache,
                           "--json", out], env)
            assert run.returncode == 0, run.stdout + run.stderr
            assert stripped(out) == stripped(ref_json)
        # the one on-disk layout: the database and its WAL sidecars
        assert set(os.listdir(cache)) <= {
            "artifacts.sqlite", "artifacts.sqlite-wal",
            "artifacts.sqlite-shm"}

        def tables(text):
            return text[text.index("== study summary =="):
                        text.index("\n== pipeline ==")]

        assert tables(run.stdout) == tables(ref_stdout)

    def test_cli_streaming_sharded_plus_merge(self, tmp_path,
                                              reference):
        ref_json, _ = reference
        env = cli_env()
        shards = str(tmp_path / "shards")
        str_json = str(tmp_path / "str.json")
        merged_json = str(tmp_path / "merged.json")
        run = run_cli(["study", "--apps", str(self.N_APPS),
                       "--shards", "3",
                       "--out", shards, "--out-shards", "2",
                       "--json", str_json], env)
        assert run.returncode == 0, run.stdout + run.stderr
        merge = run_cli(["merge-results", shards,
                         "--json", merged_json], env)
        assert merge.returncode == 0, merge.stdout + merge.stderr
        assert stripped(str_json) == stripped(ref_json)
        assert stripped(merged_json) == stripped(ref_json)


class TestShardedServiceEquivalence:
    """``/v1/batch`` against ``serve --shards N`` returns the same
    reports as the single-process service, and both equal the
    in-process checker over the corpus lib policies -- whichever
    entry point built the service (job ids differ by design: the
    cluster namespaces them per shard)."""

    #: the first apps of a small corpus, then default-corpus apps
    #: whose reports depend on the lib policies (inconsistencies with
    #: a lib's own policy)
    SMALL_CORPUS = 10
    LIB_DEPENDENT = (64, 67, 74)

    @pytest.fixture(scope="class")
    def bundles(self):
        from repro.android.packer import unpack

        small, default = CorpusSpec(n_apps=64), CorpusSpec()
        bundles = ([small.app(i).bundle
                    for i in range(self.SMALL_CORPUS)]
                   + [default.app(i).bundle
                      for i in self.LIB_DEPENDENT])
        for bundle in bundles:
            if bundle.apk.packed:
                unpack(bundle.apk)
        return bundles

    @pytest.fixture(scope="class")
    def docs(self, bundles):
        from repro.android.serialization import bundle_to_dict

        return [bundle_to_dict(bundle) for bundle in bundles]

    @pytest.fixture(scope="class")
    def reference_reports(self, bundles):
        checker = PPChecker(lib_policy_source=CorpusSpec().lib_policy)
        return [checker.check(bundle).to_dict() for bundle in bundles]

    @pytest.fixture(scope="class")
    def single_payload(self, docs):
        from repro.service import ServiceClient
        from repro.service.runner import ServiceConfig
        from repro.service.server import start_service

        handle = start_service(ServiceConfig(port=0, workers=2))
        try:
            client = ServiceClient(port=handle.port, timeout=120.0)
            yield client.batch(docs)
        finally:
            handle.close()

    @pytest.fixture(scope="class")
    def cluster_payload(self, docs, tmp_path_factory):
        from repro.service import ServiceClient, ServiceConfig
        from repro.service.cluster import ClusterConfig, start_cluster

        from tests.service.test_cluster import wait_cluster_up

        base = tmp_path_factory.mktemp("eqcluster")
        handle = start_cluster(ClusterConfig(
            service=ServiceConfig(port=0, workers=1,
                                  state_dir=str(base / "state"),
                                  drain_timeout=5.0),
            shards=2))
        try:
            client = ServiceClient(port=handle.port, timeout=120.0)
            wait_cluster_up(client, shards=2)
            yield client.batch(docs)
        finally:
            handle.close()

    def test_batch_reports_are_byte_identical(self, docs,
                                              single_payload,
                                              cluster_payload,
                                              reference_reports):
        assert cluster_payload["checked"] == len(docs)
        assert cluster_payload["checked"] == single_payload["checked"]
        assert cluster_payload["rejected"] \
            == single_payload["rejected"] == 0
        single_reports = [row["report"]
                          for row in single_payload["results"]]
        cluster_reports = [row["report"]
                           for row in cluster_payload["results"]]
        assert canonical(cluster_reports) \
            == canonical(single_reports)
        assert canonical(single_reports) \
            == canonical(reference_reports)

    def test_lib_dependent_apps_need_the_lib_policies(
            self, bundles, reference_reports):
        """The extra apps really exercise the lib policies: checked
        without them, each one's report differs."""
        bare = PPChecker()
        for position in range(self.SMALL_CORPUS, len(bundles)):
            assert bare.check(bundles[position]).to_dict() \
                != reference_reports[position], position

    def test_batch_statuses_match_in_submission_order(
            self, single_payload, cluster_payload):
        assert [row["status"] for row in cluster_payload["results"]] \
            == [row["status"] for row in single_payload["results"]]
        # the cluster spread the work: both shards own some jobs
        owners = {row["job_id"].split("-job-")[0]
                  for row in cluster_payload["results"]}
        assert len(owners) == 2
