"""The PPChecker facade (Fig. 4).

Input: an app's privacy policy, description, APK, and its third-party
libs' privacy policies.  Output: an :class:`repro.core.report.AppReport`
with the incomplete / incorrect / inconsistent findings.

Since the pipeline refactor, PPChecker is a thin facade over
:class:`repro.pipeline.Pipeline`: every analysis runs as a
content-addressed stage whose result is memoized in an artifact store
(in-memory by default, optionally disk-backed).  The facade keeps
the historical call surface -- ``check``, ``analyze_policy``,
``analyze_code``, ``_lib_policy`` -- so existing call sites and
subclasses (e.g. :class:`repro.core.extended.ExtendedPPChecker`) work
unchanged.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable

from repro.android.apk import Apk
from repro.android.static_analysis import StaticAnalysisResult
from repro.core.matching import InfoMatcher
from repro.core.report import AppFailure, AppReport
from repro.description.autocog import AutoCog
from repro.hashing import fingerprint, fingerprint_text
from repro.pipeline.artifacts import (
    ArtifactStore,
    MemoryStore,
    PipelineStats,
    build_store,
)
from repro.pipeline.faults import FaultPlan
from repro.pipeline.pipeline import Pipeline
from repro.pipeline.resilience import (
    BatchItemError,
    Deadline,
    RetryBudget,
    RetryPolicy,
    current_deadline,
    deadline_scope,
)
from repro.policy.analyzer import PolicyAnalyzer
from repro.policy.model import PolicyAnalysis


@dataclass(frozen=True)
class AppBundle:
    """Everything PPChecker needs to know about one app, and its one
    identity: each part's digest is computed once and kept (the APK's
    from its wire form, so unpack a packed one first); :attr:`key` is
    the job, ring and outcome key.  Frozen, so no digest goes stale."""

    package: str
    apk: Apk
    policy: str
    description: str
    policy_is_html: bool = False

    @cached_property
    def policy_digest(self) -> str:
        return fingerprint_text(self.policy)

    @cached_property
    def description_digest(self) -> str:
        return fingerprint_text(self.description)

    @cached_property
    def apk_digest(self) -> str:
        from repro.android.serialization import apk_to_dict  # cycle

        return fingerprint(apk_to_dict(self.apk))

    @cached_property
    def key(self) -> str:
        return fingerprint([self.package, bool(self.policy_is_html),
                            self.policy_digest, self.description_digest,
                            self.apk_digest])


@dataclass
class PPChecker:
    """The complete pipeline: policy analysis, static analysis,
    description analysis, and the three detectors.

    ``lib_policy_source`` maps a detected lib id to that lib's policy
    text (None when the lib publishes no English policy); lib analyses
    are cached in the artifact store, shared across apps *and* across
    every checker handed the same ``artifact_store``.

    Pass ``artifact_store=build_store(cache_dir=...)`` for a
    disk-backed cache that survives the process, or a prebuilt
    ``pipeline`` to share stages wholesale.
    """

    lib_policy_source: Callable[[str], str | None] = lambda lib_id: None
    policy_analyzer: PolicyAnalyzer = field(default_factory=PolicyAnalyzer)
    autocog: AutoCog = field(default_factory=AutoCog)
    matcher: InfoMatcher = field(default_factory=InfoMatcher)
    use_reachability: bool = True
    use_uri_analysis: bool = True
    honor_disclaimer: bool = True
    artifact_store: ArtifactStore | None = None
    #: per-stage timeouts and bounded retries (defaults: no timeout,
    #: no retries -- historical behaviour)
    retry_policy: RetryPolicy | None = None
    #: fault-injection hook for tests and benchmarks
    fault_plan: FaultPlan | None = None
    #: per-app wall-clock budget (seconds): stage timeouts, retries,
    #: and backoff sleeps all derive from the *remaining* budget, and
    #: an exhausted budget fails the check with a deadline error
    #: instead of burning more pipeline work (None = unbounded)
    deadline_seconds: float | None = None
    pipeline: Pipeline | None = field(default=None, repr=False)

    def __post_init__(self) -> None:
        if self.pipeline is None:
            self.pipeline = Pipeline(
                lib_policy_source=self.lib_policy_source,
                policy_analyzer=self.policy_analyzer,
                autocog=self.autocog,
                matcher=self.matcher,
                use_reachability=self.use_reachability,
                use_uri_analysis=self.use_uri_analysis,
                honor_disclaimer=self.honor_disclaimer,
                # explicit None check: an empty MemoryStore is falsy
                store=(self.artifact_store
                       if self.artifact_store is not None
                       else MemoryStore()),
                resilience=(self.retry_policy
                            if self.retry_policy is not None
                            else RetryPolicy()),
                faults=self.fault_plan,
            )

    @property
    def stats(self) -> PipelineStats:
        """Per-stage wall time and cache-hit counters."""
        return self.pipeline.stats

    # -- pipeline pieces ----------------------------------------------------

    def analyze_policy(self, bundle: AppBundle) -> PolicyAnalysis:
        return self.pipeline.policy_analysis(bundle)

    def analyze_code(self, bundle: AppBundle) -> StaticAnalysisResult:
        return self.pipeline.static_analysis(bundle)

    def infer_permissions(self, bundle: AppBundle) -> set[str]:
        """Info_desc gated on the manifest (Alg. 1 considers only
        permissions the app actually requests)."""
        return (self.pipeline.description_permissions(bundle)
                & bundle.apk.manifest.permissions)

    def _lib_policy(self, lib_id: str) -> PolicyAnalysis | None:
        return self.pipeline.lib_policy_analysis(lib_id)

    # -- the check ----------------------------------------------------------

    def check(self, bundle: AppBundle) -> AppReport:
        """Run all three detectors over one app.  When
        ``deadline_seconds`` is set (and no ambient deadline is
        already in scope -- the serving layer opens its own per-job
        scope), the whole check runs under a fresh per-app
        deadline."""
        deadline = (Deadline.after(self.deadline_seconds)
                    if self.deadline_seconds is not None
                    and current_deadline() is None else None)
        with deadline_scope(deadline):
            policy = self.analyze_policy(bundle)
            static_result = self.analyze_code(bundle)
            permissions = self.infer_permissions(bundle)
            return self.pipeline.detect(bundle, policy, static_result,
                                        permissions)

    def check_batch(self, bundles: list[AppBundle],
                    on_error: str = "raise",
                    on_outcome: Callable[
                        [AppBundle, AppReport | AppFailure],
                        None] | None = None,
                    ) -> list[AppReport | AppFailure]:
        """:meth:`check` over many apps, one after another; results
        come back in input order.  More cores go to separate
        processes (``study --shards N``), not to threads: the checks
        are CPU-bound Python.

        ``on_error="raise"`` (the default) aborts on the first
        failing bundle with a
        :class:`~repro.pipeline.resilience.BatchItemError` naming its
        index.  ``on_error="quarantine"`` isolates failures per app:
        a failing bundle yields an
        :class:`~repro.core.report.AppFailure` in its slot and the
        rest of the batch proceeds (split the mix with
        :func:`repro.core.report.partition_outcomes`).  ``on_outcome``
        observes each finished app before the next one starts (the
        durability layer checkpoints it to its journal here); an
        exception it raises aborts the batch as that bundle's
        :class:`~repro.pipeline.resilience.BatchItemError`."""
        if on_error not in ("raise", "quarantine"):
            raise ValueError(f"unknown on_error mode: {on_error!r}")

        def run(bundle: AppBundle) -> AppReport | AppFailure:
            if on_error == "raise":
                outcome: AppReport | AppFailure = self.check(bundle)
            else:
                try:
                    outcome = self.check(bundle)
                except Exception as exc:
                    outcome = AppFailure.from_exception(
                        bundle.package, exc)
            if on_outcome is not None:
                on_outcome(bundle, outcome)
            return outcome

        outcomes = []
        for index, bundle in enumerate(bundles):
            try:
                outcomes.append(run(bundle))
            except Exception as exc:
                raise BatchItemError(index, bundle, exc) from exc
        return outcomes


def lib_policy_source(
        directory: str | None) -> Callable[[str], str | None]:
    """Lib id -> policy text: ``<directory>/<lib_id>.txt`` (or
    ``.html``), or the synthetic corpus's lib policies when
    *directory* is None."""
    if directory is None:
        from repro.corpus.libpolicies import corpus_lib_policy

        return corpus_lib_policy

    def from_directory(lib_id: str) -> str | None:
        for extension in (".txt", ".html"):
            path = os.path.join(directory, lib_id + extension)
            if os.path.exists(path):
                with open(path, encoding="utf-8") as handle:
                    return handle.read()
        return None

    return from_directory


@dataclass(frozen=True)
class CheckerOptions:
    """The one checker recipe, as picklable primitives.

    The CLI subcommands, each study plane (this process and every
    shard process on its side of the spawn boundary) and the service
    build their checker with :meth:`build_checker`; no checker object
    is ever shipped across.  The same recipe gives the same pipeline,
    which is what keeps the sharded study byte-identical to the
    single-process one and a shard's reports equal to ``serve``'s.
    """

    #: directory of the sqlite artifact store shared by every process
    #: pointed at it (:class:`repro.pipeline.artifacts.SharedDiskStore`;
    #: ``None`` disables the disk tier)
    cache_dir: str | None = None
    max_retries: int = 0
    stage_timeout: float | None = None
    #: path to a JSON fault plan (see :mod:`repro.pipeline.faults`)
    fault_plan: str | None = None
    #: per-check wall-clock budget in seconds, opened only when no
    #: deadline is already in scope (``None`` = unbounded)
    deadline: float | None = None
    #: capacity of the retry token bucket shared by every stage retry
    #: of the checker (``None`` = unlimited)
    retry_budget: float | None = None
    #: tokens the retry bucket regains per second
    retry_budget_refill: float = 1.0

    def build_checker(
            self, lib_policy_source: Callable[[str], str | None],
    ) -> PPChecker:
        budget = (RetryBudget(self.retry_budget,
                              self.retry_budget_refill)
                  if self.retry_budget is not None else None)
        return PPChecker(
            lib_policy_source=lib_policy_source,
            artifact_store=build_store(cache_dir=self.cache_dir),
            retry_policy=RetryPolicy(max_retries=self.max_retries,
                                     stage_timeout=self.stage_timeout,
                                     budget=budget),
            deadline_seconds=self.deadline,
            fault_plan=(FaultPlan.from_json_file(self.fault_plan)
                        if self.fault_plan is not None else None),
        )


__all__ = ["AppBundle", "CheckerOptions", "PPChecker",
           "lib_policy_source"]
