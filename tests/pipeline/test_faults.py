"""Fault injection, retries, timeouts, and per-app error isolation.

The fault harness (`repro.pipeline.faults`) is a first-class
deliverable: these tests drive the real pipeline through injected
exceptions, hangs, and corrupt artifacts and assert the robustness
layer degrades exactly as specified -- structured ``AppFailure``
records, bounded retries with deterministic backoff, stage timeouts,
and no batch-wide aborts.
"""

import json
import sqlite3

import pytest

from repro.core.checker import AppBundle, PPChecker
from repro.core.report import AppFailure, AppReport, partition_outcomes
from repro.pipeline import stages
from repro.pipeline.artifacts import MISS, SharedDiskStore, build_store
from repro.pipeline.faults import (
    CRASH_EXIT_CODE,
    KINDS,
    CorruptArtifact,
    FaultPlan,
    FaultSpec,
    InjectedFault,
)
from repro.pipeline.resilience import (
    BatchItemError,
    RetryPolicy,
    StageError,
    StageTimeout,
    call_with_timeout,
)

from tests.android.appbuilder import (
    LOCATION_API,
    PKG,
    add_activity,
    empty_apk,
    invoke,
)


def make_bundle(package=PKG, policy=None, description="An app.",
                policy_is_html=False):
    # the default policy mentions the package so each bundle gets its
    # own content-addressed digest (faults wrap *compute*, so a
    # cross-app cache hit would bypass an injected fault)
    if policy is None:
        policy = f"We collect your email. Contact {package}."
    apk = empty_apk(package=package)
    add_activity(apk, instructions=[invoke(LOCATION_API, dest="v0")])
    return AppBundle(package=package, apk=apk, policy=policy,
                     description=description,
                     policy_is_html=policy_is_html)


def make_checker(**kwargs):
    return PPChecker(**kwargs)


#: a retry policy that never actually sleeps (tests stay fast)
def fast_policy(**kwargs):
    kwargs.setdefault("backoff_base", 0.0)
    kwargs.setdefault("sleep", lambda s: None)
    return RetryPolicy(**kwargs)


# -- resilience primitives ------------------------------------------------


class TestRetryPolicy:
    def test_backoff_is_deterministic(self):
        policy = RetryPolicy(backoff_base=0.1, seed=7)
        a = policy.delay_for("detect", "digest", 1)
        b = policy.delay_for("detect", "digest", 1)
        assert a == b
        assert policy.delay_for("detect", "digest", 2) != a
        assert policy.delay_for("detect", "other", 1) != a

    def test_backoff_grows_exponentially(self):
        policy = RetryPolicy(backoff_base=0.1, jitter=0.0,
                             backoff_multiplier=2.0)
        assert policy.delay_for("s", "d", 1) == pytest.approx(0.1)
        assert policy.delay_for("s", "d", 2) == pytest.approx(0.2)
        assert policy.delay_for("s", "d", 3) == pytest.approx(0.4)

    def test_zero_base_means_no_sleep(self):
        assert RetryPolicy(backoff_base=0.0).delay_for("s", "d", 1) \
            == 0.0

    def test_execute_retries_until_success(self):
        calls = []

        def flaky():
            calls.append(1)
            if len(calls) < 3:
                raise ValueError("transient")
            return "ok"

        policy = fast_policy(max_retries=2)
        assert policy.execute(flaky, stage="s", context="c") == "ok"
        assert len(calls) == 3

    def test_execute_terminal_failure_wraps_as_stage_error(self):
        def always():
            raise ValueError("permanent")

        policy = fast_policy(max_retries=2)
        with pytest.raises(StageError) as excinfo:
            policy.execute(always, stage="detect", context="com.x")
        err = excinfo.value
        assert err.stage == "detect"
        assert err.context == "com.x"
        assert err.attempts == 3
        assert isinstance(err.__cause__, ValueError)

    def test_execute_sleeps_the_backoff_schedule(self):
        slept = []
        policy = RetryPolicy(max_retries=2, backoff_base=0.1,
                             jitter=0.0, sleep=slept.append)

        def always():
            raise ValueError("x")

        with pytest.raises(StageError):
            policy.execute(always, stage="s", digest="d")
        assert slept == pytest.approx([0.1, 0.2])


class TestCallWithTimeout:
    def test_returns_value(self):
        assert call_with_timeout(lambda: 42, timeout=5.0) == 42

    def test_unbounded_runs_inline(self):
        assert call_with_timeout(lambda: 42, timeout=None) == 42

    def test_propagates_exception(self):
        with pytest.raises(KeyError):
            call_with_timeout(lambda: {}["missing"], timeout=5.0)

    def test_hang_is_cut_off(self):
        import time

        with pytest.raises(StageTimeout) as excinfo:
            call_with_timeout(lambda: time.sleep(30), timeout=0.05,
                              stage="static_analysis", context="com.x")
        assert excinfo.value.stage == "static_analysis"
        assert "0.05" in str(excinfo.value)


# -- the fault plan -------------------------------------------------------


class TestFaultPlan:
    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            FaultSpec(kind="explode")

    def test_applies_to_matches_stage_and_context(self):
        spec = FaultSpec(stage="detect", match="com.a")
        assert spec.applies_to("detect", "com.a.app")
        assert not spec.applies_to("detect", "com.b.app")
        assert not spec.applies_to("policy_analysis", "com.a.app")
        assert FaultSpec().applies_to("anything", "anywhere")

    def test_times_budget_is_per_context(self):
        plan = FaultPlan([FaultSpec(stage="s", times=1)])
        assert plan.fire("s", "com.a") is not None
        assert plan.fire("s", "com.a") is None    # budget spent
        assert plan.fire("s", "com.b") is not None  # fresh context

    def test_wrap_raise(self):
        plan = FaultPlan([FaultSpec(stage="s", message="boom")])
        with pytest.raises(InjectedFault, match="boom"):
            plan.wrap("s", "com.a", lambda: 1)()

    def test_wrap_corrupt_still_pays_the_compute(self):
        calls = []
        plan = FaultPlan([FaultSpec(stage="s", kind="corrupt")])
        out = plan.wrap("s", "com.a", lambda: calls.append(1))()
        assert isinstance(out, CorruptArtifact)
        assert calls == [1]

    def test_wrap_consults_plan_per_attempt(self):
        plan = FaultPlan([FaultSpec(stage="s", times=1)])
        wrapped = plan.wrap("s", "com.a", lambda: "fine")
        with pytest.raises(InjectedFault):
            wrapped()
        assert wrapped() == "fine"   # budget spent; retry succeeds

    def test_json_round_trip(self, tmp_path):
        plan = FaultPlan([
            FaultSpec(stage="detect", match="com.a", kind="hang",
                      times=2, hang_seconds=9.5),
            FaultSpec(),
        ])
        path = tmp_path / "plan.json"
        path.write_text(json.dumps(plan.to_dict()))
        loaded = FaultPlan.from_json_file(str(path))
        assert loaded.faults == plan.faults

    def test_crash_kind_round_trips(self):
        spec = FaultSpec(stage="detect", match="com.a", kind="crash")
        assert "crash" in KINDS
        assert FaultSpec.from_dict(spec.to_dict()) == spec

    def test_wrap_crash_requests_hard_exit(self, monkeypatch):
        """The crash kind must die via os._exit -- no unwinding, no
        cleanup.  Stubbed here; the real exit (and the recovery from
        it) is exercised by the durability e2e suites."""
        from repro.pipeline import faults as faults_module

        exits = []
        monkeypatch.setattr(faults_module, "_hard_exit",
                            exits.append)
        plan = FaultPlan([FaultSpec(stage="s", kind="crash")])
        with pytest.raises(InjectedFault, match="did not exit"):
            plan.wrap("s", "com.a", lambda: "never")()
        assert exits == [CRASH_EXIT_CODE]
        assert CRASH_EXIT_CODE == 70

    def test_wrap_crash_never_pays_the_compute(self, monkeypatch):
        from repro.pipeline import faults as faults_module

        monkeypatch.setattr(faults_module, "_hard_exit",
                            lambda code: None)
        calls = []
        plan = FaultPlan([FaultSpec(stage="s", kind="crash")])
        with pytest.raises(InjectedFault):
            plan.wrap("s", "com.a", lambda: calls.append(1))()
        assert calls == []


# -- pipeline-level fault behaviour ---------------------------------------


class TestPipelineFaults:
    def test_injected_raise_surfaces_as_stage_error(self):
        checker = make_checker(fault_plan=FaultPlan([
            FaultSpec(stage=stages.POLICY_ANALYSIS, message="boom"),
        ]))
        with pytest.raises(StageError) as excinfo:
            checker.check(make_bundle())
        assert excinfo.value.stage == stages.POLICY_ANALYSIS
        assert excinfo.value.context == PKG
        assert isinstance(excinfo.value.__cause__, InjectedFault)

    def test_transient_fault_recovers_under_retry(self):
        checker = make_checker(
            fault_plan=FaultPlan([
                FaultSpec(stage=stages.STATIC_ANALYSIS, times=2),
            ]),
            retry_policy=fast_policy(max_retries=2),
        )
        report = checker.check(make_bundle())
        assert isinstance(report, AppReport)
        # the stage eventually executed exactly once for real
        assert checker.stats.stage(stages.STATIC_ANALYSIS).executions \
            == 1

    def test_terminal_failure_counts_in_stats(self):
        checker = make_checker(fault_plan=FaultPlan([
            FaultSpec(stage=stages.DESCRIPTION_PERMISSIONS),
        ]))
        with pytest.raises(StageError):
            checker.check(make_bundle())
        row = checker.stats.stage(stages.DESCRIPTION_PERMISSIONS)
        assert row.failures == 1
        assert row.executions == 0

    def test_hung_stage_cut_by_timeout(self):
        checker = make_checker(
            fault_plan=FaultPlan([
                FaultSpec(stage=stages.DETECT, kind="hang",
                          hang_seconds=30.0),
            ]),
            retry_policy=RetryPolicy(stage_timeout=0.1),
        )
        with pytest.raises(StageError) as excinfo:
            checker.check(make_bundle())
        assert excinfo.value.stage == stages.DETECT
        assert isinstance(excinfo.value.__cause__, StageTimeout)

    def test_corrupt_artifact_poisons_its_stage_not_the_batch(self):
        checker = make_checker(fault_plan=FaultPlan([
            FaultSpec(stage=stages.POLICY_ANALYSIS, kind="corrupt",
                      match=PKG),
        ]))
        with pytest.raises(StageError) as excinfo:
            checker.check(make_bundle())
        assert excinfo.value.stage == stages.POLICY_ANALYSIS
        # a different app is untouched
        other = make_bundle(package="com.other.app")
        assert isinstance(checker.check(other), AppReport)

    def test_quarantine_batch_isolates_failures_in_order(self):
        checker = make_checker(fault_plan=FaultPlan([
            FaultSpec(stage=stages.POLICY_ANALYSIS, match="com.bad"),
        ]))
        bundles = [
            make_bundle(package="com.good.one"),
            make_bundle(package="com.bad.apple"),
            make_bundle(package="com.good.two"),
        ]
        outcomes = checker.check_batch(bundles, on_error="quarantine")
        assert [type(o).__name__ for o in outcomes] == \
            ["AppReport", "AppFailure", "AppReport"]
        failure = outcomes[1]
        assert failure.package == "com.bad.apple"
        assert failure.stage == stages.POLICY_ANALYSIS
        assert failure.error == "InjectedFault"
        reports, failures = partition_outcomes(outcomes)
        assert len(reports) == 2 and len(failures) == 1

    def test_unknown_on_error_mode_rejected(self):
        checker = make_checker()
        with pytest.raises(ValueError):
            checker.check_batch([make_bundle()], on_error="ignore")

    def test_raise_mode_aborts_with_item_attribution(self):
        checker = make_checker(fault_plan=FaultPlan([
            FaultSpec(stage=stages.POLICY_ANALYSIS, match="com.bad"),
        ]))
        bundles = [make_bundle(package="com.good.one"),
                   make_bundle(package="com.bad.apple")]
        with pytest.raises(BatchItemError) as excinfo:
            checker.check_batch(bundles)
        assert excinfo.value.index == 1


# -- batch error attribution ----------------------------------------------


class DoubleOrBoom(PPChecker):
    """``check`` doubles an int item and rejects negative ones."""

    def check(self, bundle):
        if bundle < 0:
            raise ValueError(f"bad item {bundle}")
        return bundle * 2


class TestBatchExecutorFailures:
    def test_serial_failure_names_the_item(self):
        with pytest.raises(BatchItemError) as excinfo:
            DoubleOrBoom().check_batch([1, 2, -7, 4])
        assert excinfo.value.index == 2
        assert excinfo.value.item == -7
        assert isinstance(excinfo.value.__cause__, ValueError)

    def test_first_failing_index_wins(self):
        # both -1 and -2 fail; the earlier input index is reported
        with pytest.raises(BatchItemError) as excinfo:
            DoubleOrBoom().check_batch([-1, 0, -2, 1])
        assert excinfo.value.index == 0

    def test_healthy_batches_unchanged(self):
        assert DoubleOrBoom().check_batch([1, 2, 3]) == [2, 4, 6]


# -- disk store robustness ------------------------------------------------


def rewrite_docs(db_path: str, sql_value: str, *params) -> int:
    """``UPDATE artifacts SET doc = <sql_value>`` on every row; returns
    the number of rows damaged."""
    conn = sqlite3.connect(db_path)
    try:
        count = conn.execute(f"UPDATE artifacts SET doc = {sql_value}",
                             params).rowcount
        conn.commit()
    finally:
        conn.close()
    return count


class TestDiskStoreRobustness:
    def test_truncated_document_is_a_miss(self, tmp_path):
        store = SharedDiskStore(str(tmp_path))
        store.put(stages.DETECT, "d1", AppReport(package="com.x"))
        # a torn document: the first ten characters of the real one
        assert rewrite_docs(store.path, "substr(doc, 1, 10)") == 1
        assert store.get(stages.DETECT, "d1") is MISS

    def test_wrong_schema_document_is_a_miss(self, tmp_path):
        store = SharedDiskStore(str(tmp_path))
        store.put(stages.DETECT, "d2", AppReport(package="com.x"))
        assert rewrite_docs(store.path, "?",
                            '{"valid": "json", "wrong": 1}') == 1
        assert store.get(stages.DETECT, "d2") is MISS

    def test_binary_garbage_is_a_miss(self, tmp_path):
        store = SharedDiskStore(str(tmp_path))
        store.put(stages.DETECT, "d3", AppReport(package="com.x"))
        # raw bytes as a blob, then the same bytes as (undecodable) text
        assert rewrite_docs(store.path, "?", b"\x00\xff\xfe garbage") == 1
        assert store.get(stages.DETECT, "d3") is MISS
        assert rewrite_docs(store.path, "CAST(? AS TEXT)",
                            b"\x00\xff\xfe garbage") == 1
        assert store.get(stages.DETECT, "d3") is MISS

    def test_pipeline_recomputes_over_corrupt_cache(self, tmp_path):
        cache = str(tmp_path / "cache")
        bundle = make_bundle()
        warm = make_checker(artifact_store=build_store(cache_dir=cache))
        baseline = warm.check(bundle)

        # corrupt every cached document on disk
        damaged = rewrite_docs(str(tmp_path / "cache" / "artifacts.sqlite"),
                               "'{torn'")
        assert damaged >= len(stages.STAGES) - 1   # no lib stage here

        cold = make_checker(artifact_store=build_store(cache_dir=cache))
        again = cold.check(make_bundle())
        assert again.to_dict() == baseline.to_dict()
        # everything was recomputed, nothing crashed
        assert cold.stats.stage(stages.DETECT).executions == 1
        assert cold.stats.stage(stages.DETECT).cache_hits == 0
        assert cold.stats.stage(stages.POLICY_ANALYSIS).cache_hits == 0


# -- malformed inputs at the stage boundaries -----------------------------


class TestMalformedInputs:
    def quarantine_one(self, checker, bundle):
        outcomes = checker.check_batch([bundle],
                                       on_error="quarantine")
        assert len(outcomes) == 1
        return outcomes[0]

    def test_missing_policy_quarantines_at_policy_analysis(self):
        bundle = make_bundle()
        bundle.policy = None          # scrape came back empty-handed
        failure = self.quarantine_one(make_checker(), bundle)
        assert isinstance(failure, AppFailure)
        assert failure.stage == stages.POLICY_ANALYSIS
        assert failure.error == "AttributeError"

    def test_garbage_bytes_policy_quarantines_not_crashes(self):
        bundle = make_bundle()
        bundle.policy = b"\x00\xffnot text"    # bytes, not str
        bundle.policy_is_html = True
        failure = self.quarantine_one(make_checker(), bundle)
        assert isinstance(failure, AppFailure)
        assert failure.stage == stages.POLICY_ANALYSIS

    def test_empty_html_policy_is_merely_unhelpful(self):
        # empty input is well-formed: it analyzes to an empty policy,
        # it does not fail
        bundle = make_bundle(policy="", policy_is_html=True)
        outcome = self.quarantine_one(make_checker(), bundle)
        assert isinstance(outcome, AppReport)

    def test_truncated_packed_apk_quarantines_at_static_analysis(self):
        from repro.android.packer import pack

        bundle = make_bundle()
        pack(bundle.apk)
        bundle.apk.packed_payload = bundle.apk.packed_payload[:8]
        failure = self.quarantine_one(make_checker(), bundle)
        assert isinstance(failure, AppFailure)
        assert failure.stage == stages.STATIC_ANALYSIS

    def test_missing_lib_id_quarantines_at_lib_policy_analysis(self):
        from repro.android.dex import DexClass

        def exploding_source(lib_id):
            raise KeyError(lib_id)

        bundle = make_bundle()
        bundle.apk.dex.add_class(
            DexClass(name="com.unity3d.player.Unity"))
        failure = self.quarantine_one(
            make_checker(lib_policy_source=exploding_source), bundle)
        assert isinstance(failure, AppFailure)
        assert failure.stage == stages.LIB_POLICY_ANALYSIS
        assert failure.error == "KeyError"


# -- the AppFailure record ------------------------------------------------


class TestAppFailure:
    def test_from_stage_error_extracts_structure(self):
        try:
            try:
                raise ValueError("inner cause")
            except ValueError as exc:
                raise StageError("detect", "com.x", exc,
                                 attempts=3) from exc
        except StageError as err:
            failure = AppFailure.from_exception("com.x", err)
        assert failure.stage == "detect"
        assert failure.attempts == 3
        assert failure.error == "ValueError"
        assert failure.message == "inner cause"
        assert "test_faults.py" in failure.traceback

    def test_from_plain_exception(self):
        failure = AppFailure.from_exception(
            "com.x", RuntimeError("surprise"))
        assert failure.stage == "check"
        assert failure.attempts == 1
        assert failure.error == "RuntimeError"

    def test_dict_round_trip(self):
        failure = AppFailure(package="com.x", stage="detect",
                             error="ValueError", message="m",
                             traceback="t", attempts=2)
        assert AppFailure.from_dict(failure.to_dict()) == failure

    def test_summary_is_readable(self):
        failure = AppFailure(package="com.x", stage="detect",
                             error="ValueError", message="m",
                             attempts=2)
        text = failure.summary()
        assert "com.x" in text
        assert "FAILED at detect" in text
        assert "2 attempt(s)" in text
