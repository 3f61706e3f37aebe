"""The streaming study is byte-equivalent to the materialized one.

Three proof obligations from the streaming refactor:

- streaming, and the merge of a complete journal back into the
  tables by a resume that checks nothing, reconstitute the tables
  the set-based oracle (``tests/core/study_reference.py``) derives
  from ``run_study``'s reports, byte-identically (in-process at mid
  scale, full 1,197-app scale in the slow lane, and through the real
  CLI end to end),
- a streaming run killed by an injected crash fault and restarted
  with ``--resume`` reproduces the uninterrupted run's journal rows
  and JSON byte-for-byte,
- peak memory is bounded by the window, not the corpus: 10k apps
  stay within a small constant factor of 1k apps (tracemalloc).
"""

import json
import os
import subprocess
import sys

import pytest

from repro.core.checker import PPChecker
from repro.core.study import run_study, run_study_streaming
from repro.corpus.appstore import CorpusSpec
from repro.durability.journal import replay
from repro.durability.study_log import RunLog
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


def rows(journal):
    """The journal's records as ``(type, payload)``, in ``seq``
    order."""
    return [(record["type"], record["payload"])
            for record in replay(journal)]


def journaled_study(spec, journal, **kwargs):
    """``run_study_streaming`` checkpointing every outcome to a fresh
    journal at *journal*, as ``study --journal`` does."""
    meta = {"kind": "study", "seed": spec.seed, "apps": spec.n_apps}
    runlog = RunLog.fresh(journal, meta)
    try:
        return run_study_streaming(
            spec, on_outcome=runlog.record_outcome, **kwargs)
    finally:
        runlog.close()


def resumed_study(spec, journal, **kwargs):
    """``study --journal --resume`` over *journal*: its outcomes are
    replayed and only the rest checked."""
    meta = {"kind": "study", "seed": spec.seed, "apps": spec.n_apps}
    runlog, skip = RunLog.resume(journal, meta)
    try:
        return run_study_streaming(
            spec, skip=skip, on_outcome=runlog.record_outcome,
            **kwargs)
    finally:
        runlog.close()


def executions(aggregate):
    return sum(row["executions"]
               for row in aggregate.stats.to_dict().values())


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
        journal = str(tmp_path / "study.sqlite")
        journaled_study(spec, journal)
        merged = resumed_study(spec, journal)
        assert canonical(merged.to_dict()) \
            == canonical(base.to_dict())
        assert executions(merged) == 0
        keys = [payload["key"] for kind, payload in rows(journal)
                if kind == "outcome"]
        assert keys == [spec.package_for(index)
                        for index in range(len(mid_store))]

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
        journal = str(tmp_path / "study.sqlite")
        aggregate = journaled_study(spec, journal)
        merged = resumed_study(spec, journal)
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
        """The merge is ``--resume`` over the run's complete journal:
        it reprints the tables and writes the JSON without a check."""
        ref_json, ref_stdout = reference
        env = cli_env()
        journal = str(tmp_path / "study.sqlite")
        str_json = str(tmp_path / "str.json")
        merged_json = str(tmp_path / "merged.json")
        run = run_cli(["study", "--apps", str(self.N_APPS),
                       "--shards", "2", "--journal", journal,
                       "--json", str_json], env)
        assert run.returncode == 0, run.stdout + run.stderr
        merge = run_cli(["study", "--apps", str(self.N_APPS),
                         "--journal", journal, "--resume",
                         "--json", merged_json], env)
        assert merge.returncode == 0, merge.stdout + merge.stderr
        assert stripped(str_json) == stripped(ref_json)
        assert stripped(merged_json) == stripped(ref_json)

        def tables(text):
            return text[text.index("== study summary =="):
                        text.index("\n== pipeline ==")]

        assert tables(run.stdout) == tables(ref_stdout)
        assert tables(merge.stdout) == tables(ref_stdout)
        with open(merged_json, encoding="utf-8") as handle:
            stats = json.load(handle)["pipeline_stats"]
        assert all(row["executions"] == 0 for row in stats.values())

    def test_crash_fault_then_resume_matches_uninterrupted_journal(
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
        journal = str(tmp_path / "study.sqlite")
        out_json = str(tmp_path / "out.json")
        base = ["study", "--apps", str(self.N_APPS),
                "--journal", journal, "--json", out_json]

        first = run_cli([*base, "--fault-plan", str(plan)], env)
        assert first.returncode == CRASH_EXIT_CODE
        # the meta row plus the apps before the crashing one
        assert len(rows(journal)) == 1 + self.N_APPS // 2

        second = run_cli([*base, "--resume"], env)
        assert second.returncode == 0, second.stdout + second.stderr
        assert "== recovery ==" in second.stdout
        assert stripped(out_json) == stripped(ref_json)

        # an uninterrupted run journals the very same rows
        clean = str(tmp_path / "clean.sqlite")
        third = run_cli(["study", "--apps", str(self.N_APPS),
                         "--journal", clean], env)
        assert third.returncode == 0, third.stdout + third.stderr
        assert rows(journal) == rows(clean)

    def test_resume_renders_html(self, tmp_path):
        journal = str(tmp_path / "study.sqlite")
        pages = []
        for name, extra in (("run.html", []), ("resume.html",
                                               ["--resume"])):
            html = tmp_path / name
            run = run_cli(["study", "--apps", "8", "--journal", journal,
                           "--html", str(html), *extra], cli_env())
            assert run.returncode == 0, run.stdout + run.stderr
            assert f"wrote {html}" in run.stdout
            pages.append(html.read_text(encoding="utf-8"))
        assert "<html" in pages[0].lower()
        # replayed outcomes reach the report sink: the same page
        assert pages[1] == pages[0]


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
