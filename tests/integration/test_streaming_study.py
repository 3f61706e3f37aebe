"""The streaming study is byte-equivalent to the materialized one.

Three proof obligations from the streaming refactor:

- streaming + merge reconstitutes the tables the set-based oracle
  (``tests/core/study_reference.py``) derives from ``run_study``'s
  reports, byte-identically (in-process at mid scale, full 1,197-app
  scale in the slow lane, and through the real CLI end to end),
- a streaming run killed by an injected crash fault and restarted
  with ``--resume`` reproduces the uninterrupted run's shards and
  JSON byte-for-byte,
- peak memory is bounded by the window, not the corpus: 10k apps
  stay within a small constant factor of 1k apps (tracemalloc).
"""

import json
import os
import subprocess
import sys

import pytest

from repro.core.checker import PPChecker
from repro.core.results import ShardedResultWriter, iter_results
from repro.core.study import (
    merge_study_results,
    run_study,
    run_study_streaming,
)
from repro.corpus.appstore import CorpusSpec
from repro.pipeline.faults import CRASH_EXIT_CODE
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


class TestStreamingEquivalence:
    def test_streaming_matches_materialized_mid_scale(self,
                                                      mid_store):
        base = reference_study(mid_store, run_study(mid_store))
        spec = CorpusSpec(n_apps=len(mid_store))
        for engine in ({}, {"shards": 2}):
            aggregate = run_study_streaming(spec, **engine)
            assert canonical(aggregate.to_dict()) \
                == canonical(base.to_dict())

    def test_merge_reconstitutes_the_tables(self, tmp_path,
                                            mid_store):
        base = reference_study(mid_store, run_study(mid_store))
        spec = CorpusSpec(n_apps=len(mid_store))
        out = str(tmp_path / "shards")
        meta = {"kind": "study", "seed": spec.seed,
                "apps": spec.n_apps}
        with ShardedResultWriter(out, meta, shards=4) as writer:
            run_study_streaming(spec, sinks=[writer])
        merged = merge_study_results(out)
        assert canonical(merged.to_dict()) \
            == canonical(base.to_dict())
        indices = [index for index, _, _ in iter_results(out)]
        assert indices == list(range(len(mid_store)))

    def test_limit_matches_run_study_limit(self, mid_store):
        base = reference_study(mid_store,
                               run_study(mid_store, limit=100))
        spec = CorpusSpec(n_apps=len(mid_store))
        aggregate = run_study_streaming(spec, limit=100)
        assert canonical(aggregate.to_dict()) \
            == canonical(base.to_dict())

    def test_telemetry_is_populated(self, mid_store):
        spec = CorpusSpec(n_apps=64)
        aggregate = run_study_streaming(spec, limit=8)
        assert aggregate.telemetry["peak_rss_kb"] > 0
        assert aggregate.telemetry["apps_per_sec"] > 0

    @pytest.mark.slow
    def test_full_1197_study_is_byte_identical(self, tmp_path,
                                               full_store, checker):
        base = reference_study(full_store,
                               run_study(full_store, checker=checker))
        spec = CorpusSpec()
        out = str(tmp_path / "shards")
        meta = {"kind": "study", "seed": spec.seed,
                "apps": spec.n_apps}
        with ShardedResultWriter(out, meta, shards=4) as writer:
            aggregate = run_study_streaming(spec, sinks=[writer])
        merged = merge_study_results(out)
        assert canonical(aggregate.to_dict()) \
            == canonical(base.to_dict())
        assert canonical(merged.to_dict()) \
            == canonical(base.to_dict())
        # the paper's headline number survives the fold
        assert merged.summary()["problem_apps"] == 282


class TestStreamingCli:
    N_APPS = 80

    @pytest.fixture(scope="class")
    def reference(self, tmp_path_factory):
        out = str(tmp_path_factory.mktemp("ref") / "ref.json")
        result = run_cli(["study", "--apps", str(self.N_APPS),
                          "--json", out], cli_env())
        assert result.returncode == 0, result.stdout + result.stderr
        return out, result.stdout

    def test_cli_streaming_plus_merge_is_byte_identical(
            self, tmp_path, reference):
        ref_json, ref_stdout = reference
        env = cli_env()
        shards = str(tmp_path / "shards")
        str_json = str(tmp_path / "str.json")
        merged_json = str(tmp_path / "merged.json")
        run = run_cli(["study", "--apps", str(self.N_APPS),
                       "--shards", "2",
                       "--out", shards, "--json", str_json], env)
        assert run.returncode == 0, run.stdout + run.stderr
        merge = run_cli(["merge-results", shards,
                         "--json", merged_json], env)
        assert merge.returncode == 0, merge.stdout + merge.stderr
        assert stripped(str_json) == stripped(ref_json)
        assert stripped(merged_json) == stripped(ref_json)

        def tables(text):
            return text[text.index("== study summary =="):
                        text.index("\n== pipeline ==")]

        assert tables(run.stdout) == tables(ref_stdout)
        assert merge.stdout.startswith(tables(ref_stdout))

    def test_crash_fault_then_resume_rebuilds_shards_exactly(
            self, tmp_path, reference):
        ref_json, _ = reference
        env = cli_env()
        spec = CorpusSpec(n_apps=self.N_APPS)
        plan = tmp_path / "faults.json"
        plan.write_text(json.dumps({"faults": [{
            "stage": "detect",
            "match": spec.package_for(self.N_APPS // 2),
            "kind": "crash",
        }]}))
        journal = str(tmp_path / "study.jsonl")
        crashed = str(tmp_path / "crashed")
        out_json = str(tmp_path / "out.json")
        base = ["study", "--apps", str(self.N_APPS),
                "--out", crashed, "--journal", journal,
                "--json", out_json]

        first = run_cli([*base, "--fault-plan", str(plan)], env)
        assert first.returncode == CRASH_EXIT_CODE
        # the crash must not leave a finalized (committed) shard
        assert not [name for name in os.listdir(crashed)
                    if name.endswith(".ndjson")]

        second = run_cli([*base, "--resume"], env)
        assert second.returncode == 0, second.stdout + second.stderr
        assert "== recovery ==" in second.stdout
        assert stripped(out_json) == stripped(ref_json)

        # an uninterrupted streaming run writes the very same bytes
        clean = str(tmp_path / "clean")
        third = run_cli(["study", "--apps", str(self.N_APPS),
                         "--out", clean], env)
        assert third.returncode == 0, third.stdout + third.stderr
        names = sorted(os.listdir(clean))
        assert names == sorted(os.listdir(crashed))
        for name in names:
            with open(os.path.join(crashed, name), "rb") as a, \
                    open(os.path.join(clean, name), "rb") as b:
                assert a.read() == b.read()

    def test_out_and_html_in_one_run(self, tmp_path):
        shards = str(tmp_path / "shards")
        html = tmp_path / "study.html"
        run = run_cli(["study", "--apps", "8", "--out", shards,
                       "--html", str(html)], cli_env())
        assert run.returncode == 0, run.stdout + run.stderr
        assert f"wrote {html}" in run.stdout
        assert "<html" in html.read_text(encoding="utf-8").lower()
        merged = merge_study_results(shards)
        assert merged.n_apps == 8

    def test_merge_results_rejects_torn_directory(self, tmp_path):
        run = run_cli(["merge-results", str(tmp_path)], cli_env())
        assert run.returncode == 2
        assert "no finalized" in run.stderr


@pytest.mark.slow
class TestBoundedMemory:
    def test_peak_memory_is_constant_in_corpus_size(self):
        # 10x the corpus must not cost 10x the memory: the window,
        # the fold, and the lazy corpus are all constant-size.  The
        # NLP/artifact memo caches grow toward a *fixed* capacity
        # regardless of corpus size, so they are warmed once first;
        # the measured runs then exercise the full streaming data
        # plane (per-index derivation, bundle build, window, fold)
        # at cache steady state.  Generous 3x bound.
        import tracemalloc

        spec = CorpusSpec(n_apps=10_000)
        checker = PPChecker(lib_policy_source=spec.lib_policy)
        run_study_streaming(spec, checker=checker, limit=10_000)

        peaks = {}
        for n_apps in (1_000, 10_000):
            tracemalloc.start()
            aggregate = run_study_streaming(spec, checker=checker,
                                            limit=n_apps)
            _, peaks[n_apps] = tracemalloc.get_traced_memory()
            tracemalloc.stop()
            assert aggregate.n_apps == n_apps
        assert peaks[10_000] <= 3 * peaks[1_000], (
            f"peak memory grew with corpus size: "
            f"{peaks[1_000]} B at 1k vs {peaks[10_000]} B at 10k")
