"""Pipeline determinism, cache effectiveness, and sharing.

The acceptance bar of the staged-pipeline refactor:

- a cached (warm) run and a cold run of the same bundle produce
  identical reports,
- checks from threads sharing one checker (as ``serve``'s worker
  pool runs them) equal the serial batch report-for-report, and a
  sharded study equals the inline one,
- a warm rerun skips >= 90% of policy/static stage executions,
- lib-policy analyses are shared across apps and checker instances.
"""

from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.android.serialization import bundle_from_dict, bundle_to_dict
from repro.core.checker import PPChecker
from repro.core.study import run_study
from repro.corpus.appstore import CorpusSpec
from repro.pipeline import build_store
from repro.pipeline.artifacts import MemoryStore


def _report_dicts(reports):
    return {pkg: report.to_dict() for pkg, report in reports.items()}


def check_from_threads(checker, bundles, threads):
    """``checker.check`` over *bundles* from *threads* threads that
    share the checker, as ``serve``'s worker pool calls it; reports
    in input order."""
    with ThreadPoolExecutor(max_workers=threads) as pool:
        return list(pool.map(checker.check, bundles))


@pytest.fixture()
def slice_bundles(small_store):
    """A fresh-checker-sized workload incl. the packed app (index 7)
    and the ad-lib groups."""
    return [app.bundle for app in small_store.apps[:40]]


class TestDeterminism:
    def test_cold_equals_warm_per_bundle(self, small_store):
        checker = PPChecker(lib_policy_source=small_store.lib_policy)
        bundle = small_store.apps[0].bundle
        cold = checker.check(bundle)
        warm = checker.check(bundle)
        assert warm is not cold
        assert warm.to_dict() == cold.to_dict()

    def test_cold_equals_warm_batch(self, small_store, slice_bundles):
        checker = PPChecker(lib_policy_source=small_store.lib_policy)
        cold = checker.check_batch(slice_bundles)
        warm = checker.check_batch(slice_bundles)
        assert [r.to_dict() for r in cold] == \
            [r.to_dict() for r in warm]

    def test_two_workers_equal_serial(self, small_store,
                                      slice_bundles):
        serial = PPChecker(
            lib_policy_source=small_store.lib_policy
        ).check_batch(slice_bundles)
        parallel = check_from_threads(PPChecker(
            lib_policy_source=small_store.lib_policy
        ), slice_bundles, threads=2)
        assert [r.package for r in parallel] == \
            [r.package for r in serial]
        assert [r.to_dict() for r in parallel] == \
            [r.to_dict() for r in serial]

    def test_study_serial_parallel_warm_identical(self, small_store):
        serial = run_study(small_store)
        parallel = run_study(small_store, shards=2)
        warm_checker = PPChecker(
            lib_policy_source=small_store.lib_policy)
        run_study(small_store, checker=warm_checker)
        warm = run_study(small_store, checker=warm_checker)
        baseline = serial.to_dict()
        assert parallel.to_dict() == baseline
        assert warm.to_dict() == baseline
        assert _report_dicts(parallel.reports) == \
            _report_dicts(serial.reports)
        assert _report_dicts(warm.reports) == \
            _report_dicts(serial.reports)


class TestCacheEffectiveness:
    def test_warm_rerun_skips_90_percent(self, small_store,
                                         slice_bundles):
        checker = PPChecker(lib_policy_source=small_store.lib_policy)
        checker.check_batch(slice_bundles)
        cold = checker.stats.snapshot()
        checker.check_batch(slice_bundles)
        warm = checker.stats.snapshot()
        for stage in ("policy_analysis", "static_analysis"):
            requests = (warm[stage]["executions"]
                        + warm[stage]["cache_hits"]
                        - cold[stage]["executions"]
                        - cold[stage]["cache_hits"])
            executed = (warm[stage]["executions"]
                        - cold[stage]["executions"])
            assert requests == len(slice_bundles)
            assert executed <= 0.1 * requests, (
                f"{stage}: {executed}/{requests} re-executed"
            )

    def test_stats_expose_timing(self, small_store):
        checker = PPChecker(lib_policy_source=small_store.lib_policy)
        checker.check(small_store.apps[0].bundle)
        stats = checker.stats.to_dict()
        assert set(stats) >= {"policy_analysis", "static_analysis",
                              "description_permissions", "detect"}
        assert all(row["seconds"] >= 0 for row in stats.values())

    def test_returned_artifacts_are_defensive_copies(self,
                                                     small_store):
        checker = PPChecker(lib_policy_source=small_store.lib_policy)
        target = next(
            app for app in small_store.apps
            if checker.check(app.bundle).has_problem
        )
        original = checker.check(target.bundle)
        snapshot = original.to_dict()
        original.incomplete.clear()
        original.incorrect.clear()
        original.inconsistent.clear()
        assert checker.check(target.bundle).to_dict() == snapshot

    def test_policy_artifact_mutation_does_not_poison_cache(
            self, small_store):
        checker = PPChecker(lib_policy_source=small_store.lib_policy)
        bundle = small_store.apps[0].bundle
        analysis = checker.analyze_policy(bundle)
        analysis.statements.clear()
        analysis.sentences.clear()
        fresh = checker.analyze_policy(bundle)
        assert fresh.sentences


class TestSharedArtifacts:
    def test_lib_analyses_shared_across_checker_instances(
            self, small_store):
        store = MemoryStore()
        first = PPChecker(lib_policy_source=small_store.lib_policy,
                          artifact_store=store)
        second = PPChecker(lib_policy_source=small_store.lib_policy,
                           artifact_store=store)
        # find an app that ships a lib with a policy
        target = next(
            app for app in small_store.apps
            if first.analyze_code(app.bundle).libraries
        )
        first.check(target.bundle)
        before = second.stats.snapshot()
        assert before.get("lib_policy_analysis",
                          {"executions": 0})["executions"] == 0
        second.check(target.bundle)
        after = second.stats.snapshot()
        assert after["lib_policy_analysis"]["executions"] == 0
        assert after["lib_policy_analysis"]["cache_hits"] > 0

    def test_lib_analysis_correct_under_parallel_batch(
            self, small_store, slice_bundles):
        shared = PPChecker(lib_policy_source=small_store.lib_policy)
        parallel = check_from_threads(shared, slice_bundles, threads=4)
        solo = PPChecker(
            lib_policy_source=small_store.lib_policy
        ).check_batch(slice_bundles)
        assert [r.to_dict() for r in parallel] == \
            [r.to_dict() for r in solo]

    def test_disk_cache_survives_checker_instances(self, small_store,
                                                   tmp_path):
        cache_dir = str(tmp_path / "cache")
        bundle = small_store.apps[3].bundle
        cold_checker = PPChecker(
            lib_policy_source=small_store.lib_policy,
            artifact_store=build_store(cache_dir=cache_dir),
        )
        cold = cold_checker.check(bundle)
        warm_checker = PPChecker(
            lib_policy_source=small_store.lib_policy,
            artifact_store=build_store(cache_dir=cache_dir),
        )
        warm = warm_checker.check(bundle)
        assert warm.to_dict() == cold.to_dict()
        stats = warm_checker.stats.snapshot()
        for stage in ("policy_analysis", "static_analysis", "detect"):
            assert stats[stage]["executions"] == 0, stage
            assert stats[stage]["cache_hits"] == 1, stage


def test_packed_app_and_its_wire_copy_share_every_stage():
    """The check unpacks a packed app before keying it, so the
    round-tripped (never packed) copy is the same APK: one static
    analysis, one detect, equal reports."""
    spec = CorpusSpec(n_apps=200)
    bundle = spec.app(7).bundle
    assert bundle.apk.packed
    checker = PPChecker(lib_policy_source=spec.lib_policy)
    report = checker.check(bundle)
    copy = bundle_from_dict(bundle_to_dict(bundle))
    assert checker.check(copy).to_dict() == report.to_dict()
    stats = checker.stats.snapshot()
    assert stats["static_analysis"]["executions"] == 1
    assert stats["detect"]["executions"] == 1


class TestFacade:
    def test_checker_without_store_gets_private_memory(self,
                                                       small_store):
        a = PPChecker(lib_policy_source=small_store.lib_policy)
        b = PPChecker(lib_policy_source=small_store.lib_policy)
        assert a.pipeline.store is not b.pipeline.store

    def test_extended_checker_still_overrides_through_facade(self):
        from repro.core.extended import make_extended_checker
        checker = make_extended_checker()
        assert checker.pipeline.policy_analyzer is \
            checker.policy_analyzer
