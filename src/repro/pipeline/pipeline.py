"""The staged PPChecker pipeline (Fig. 4, decomposed).

:class:`Pipeline` runs the five stages of :mod:`repro.pipeline.stages`
over app bundles, memoizing every stage result in an artifact store
keyed by content hashes of the stage inputs.  Re-checking an unchanged
app (or a changed app whose policy / APK / description stayed the
same) never re-runs the corresponding analysis; lib-policy analyses
are shared across *all* apps and checker instances that share a store.

:class:`repro.core.checker.PPChecker` is a thin facade over this
class; use the pipeline directly when you need a disk cache or the
per-stage counters.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from threading import Lock
from typing import TYPE_CHECKING, Any, Callable, Iterator

from repro.android.static_analysis import (
    StaticAnalysisResult,
    analyze_apk,
)
from repro.core.incomplete import (
    detect_incomplete_via_code,
    detect_incomplete_via_description,
)
from repro.core.inconsistent import detect_inconsistent
from repro.core.incorrect import (
    detect_incorrect_via_code,
    detect_incorrect_via_description,
)
from repro.core.matching import InfoMatcher
from repro.core.report import AppReport
from repro.description.autocog import AutoCog
from repro.pipeline import stages
from repro.pipeline.artifacts import (
    MISS,
    ArtifactStore,
    MemoryStore,
    PipelineStats,
)
from repro.pipeline.faults import FaultPlan
from repro.pipeline.resilience import RetryPolicy, StageError
from repro.policy.analyzer import PolicyAnalyzer
from repro.policy.model import PolicyAnalysis

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.checker import AppBundle


#: bound on the lib-analysis digest memo (one entry per distinct lib
#: policy and analyzer configuration)
_LIB_DIGESTS_MAX = 4096


@dataclass
class Pipeline:
    """Content-addressed, stage-cached PPChecker execution."""

    lib_policy_source: Callable[[str], str | None] = lambda lib_id: None
    policy_analyzer: PolicyAnalyzer = field(default_factory=PolicyAnalyzer)
    autocog: AutoCog = field(default_factory=AutoCog)
    matcher: InfoMatcher = field(default_factory=InfoMatcher)
    use_reachability: bool = True
    use_uri_analysis: bool = True
    honor_disclaimer: bool = True
    store: ArtifactStore = field(default_factory=MemoryStore)
    stats: PipelineStats = field(default_factory=PipelineStats)
    #: per-stage timeout / bounded-retry configuration
    resilience: RetryPolicy = field(default_factory=RetryPolicy)
    #: chaos hook for tests and benchmarks; None in production
    faults: FaultPlan | None = field(default=None, repr=False)

    def __post_init__(self) -> None:
        self._lib_lock = Lock()
        #: lib stage key -> content digest of its analysis
        self._lib_digests: dict[str, str] = {}

    # -- stage runner ------------------------------------------------------

    @contextmanager
    def _stage_guard(self, stage: str, context: str) -> Iterator[None]:
        """Attribute any failure in the block to *stage* -- key
        computation, input unpacking, codec encoding, and the compute
        itself all count as that stage failing for that app/lib."""
        try:
            yield
        except StageError:
            raise  # already attributed (possibly to an inner stage)
        except Exception as exc:
            raise StageError(stage, context, exc) from exc

    def _run(self, stage: str, digest: str,
             compute: Callable[[], Any], context: str = "") -> Any:
        """Look up ``(stage, digest)``; compute-and-store on a miss,
        under the resilience policy (timeout + bounded retries) and
        any armed fault plan.  Returns a defensive copy so cached
        artifacts stay pristine."""
        clone = stages.STAGE_CLONES[stage]
        started = time.perf_counter()
        artifact = self.store.get(stage, digest)
        if artifact is not MISS:
            self.stats.record(stage, hit=True,
                              seconds=time.perf_counter() - started)
            return clone(artifact)
        if self.faults is not None:
            compute = self.faults.wrap(stage, context, compute)
        try:
            artifact = self.resilience.execute(
                compute, stage=stage, context=context, digest=digest,
                ledger=self.stats,
            )
        except StageError:
            self.stats.record(stage, hit=False, failed=True,
                              seconds=time.perf_counter() - started)
            raise
        # clone before put: a malformed artifact (e.g. an injected
        # corruption) fails validation here, before it can poison the
        # shared cache entry for every app with the same digest
        try:
            out = clone(artifact)
            self.store.put(stage, digest, artifact)
        except Exception:
            self.stats.record(stage, hit=False, failed=True,
                              seconds=time.perf_counter() - started)
            raise
        self.stats.record(stage, hit=False,
                          seconds=time.perf_counter() - started)
        return out

    # -- the five stages ---------------------------------------------------

    def policy_analysis(self, bundle: "AppBundle") -> PolicyAnalysis:
        with self._stage_guard(stages.POLICY_ANALYSIS, bundle.package):
            digest = stages.policy_key(
                self.policy_analyzer.fingerprint(),
                bundle.policy, bundle.policy_is_html)
            return self._run(
                stages.POLICY_ANALYSIS, digest,
                lambda: self.policy_analyzer.analyze(
                    bundle.policy, html=bundle.policy_is_html),
                context=bundle.package,
            )

    def static_analysis(self, bundle: "AppBundle") -> StaticAnalysisResult:
        with self._stage_guard(stages.STATIC_ANALYSIS, bundle.package):
            # unpack before keying (in place, exactly what analyze_apk's
            # auto_unpack would do): the cache key must address the real
            # bytecode, not the packer stub, so a re-check of the same
            # bundle hits regardless of when the unpack happened
            was_packed = bundle.apk.packed
            if was_packed:
                from repro.android.packer import unpack

                unpack(bundle.apk)
            digest = stages.static_key(
                bundle.apk,
                use_reachability=self.use_reachability,
                use_uri_analysis=self.use_uri_analysis,
            )
            result = self._run(
                stages.STATIC_ANALYSIS, digest,
                lambda: analyze_apk(
                    bundle.apk,
                    use_reachability=self.use_reachability,
                    use_uri_analysis=self.use_uri_analysis,
                ),
                context=bundle.package,
            )
            if was_packed:
                result.was_packed = True  # mutates the clone, not the cache
            return result

    def description_permissions(self, bundle: "AppBundle") -> set[str]:
        """The raw inferred permission set (before the manifest
        intersection, which is app-specific and free)."""
        with self._stage_guard(stages.DESCRIPTION_PERMISSIONS,
                               bundle.package):
            digest = stages.description_key(self.autocog.fingerprint(),
                                            bundle.description)
            return self._run(
                stages.DESCRIPTION_PERMISSIONS, digest,
                lambda: self.autocog.infer_permissions(
                    bundle.description),
                context=bundle.package,
            )

    def lib_policy_analysis(self, lib_id: str) -> PolicyAnalysis | None:
        """The analyzed policy of one third-party lib (None when the
        lib publishes no policy), shared across apps and checkers."""
        return self._lib_policy(lib_id)[1]

    def _lib_policy(self, lib_id: str) -> tuple[str, PolicyAnalysis | None]:
        """``(stage key, analysis)`` of one lib."""
        with self._stage_guard(stages.LIB_POLICY_ANALYSIS, lib_id):
            text = self.lib_policy_source(lib_id)
            digest = stages.lib_policy_key(
                self.policy_analyzer.fingerprint(), lib_id, text)
            # serialize lib computes: the handful of shared lib policies
            # would otherwise be analyzed once per worker on a cold start
            with self._lib_lock:
                return digest, self._run(
                    stages.LIB_POLICY_ANALYSIS, digest,
                    lambda: None if text is None
                    else self.policy_analyzer.analyze(text),
                    context=lib_id,
                )

    def _lib_digest(self, key: str, analysis: PolicyAnalysis) -> str:
        """:func:`stages.analysis_digest` of a lib analysis, memoized
        on its stage key: the key hashes every input the analysis is
        computed from, so equal keys mean equal analyses."""
        digest = self._lib_digests.get(key)
        if digest is None:
            if len(self._lib_digests) >= _LIB_DIGESTS_MAX:
                self._lib_digests.clear()
            digest = self._lib_digests[key] = \
                stages.analysis_digest(analysis)
        return digest

    def detect(
        self,
        bundle: "AppBundle",
        policy: PolicyAnalysis,
        static_result: StaticAnalysisResult,
        permissions: set[str],
    ) -> AppReport:
        """The three detectors over precomputed stage artifacts."""
        with self._stage_guard(stages.DETECT, bundle.package):
            return self._detect(bundle, policy, static_result,
                                permissions)

    def _detect(
        self,
        bundle: "AppBundle",
        policy: PolicyAnalysis,
        static_result: StaticAnalysisResult,
        permissions: set[str],
    ) -> AppReport:
        lib_analyses: dict[str, PolicyAnalysis] = {}
        lib_digests: dict[str, str] = {}
        for spec in static_result.libraries:
            key, analysis = self._lib_policy(spec.lib_id)
            if analysis is not None:
                lib_analyses[spec.lib_id] = analysis
                lib_digests[spec.lib_id] = self._lib_digest(key, analysis)
        digest = stages.detect_key(
            bundle.package, policy, static_result, permissions,
            lib_digests,
            matcher_fingerprint=self.matcher.fingerprint(),
            honor_disclaimer=self.honor_disclaimer,
        )

        def compute() -> AppReport:
            report = AppReport(package=bundle.package)
            report.incomplete.extend(detect_incomplete_via_description(
                policy, permissions, self.matcher,
            ))
            report.incomplete.extend(detect_incomplete_via_code(
                policy, static_result, self.matcher,
            ))
            report.incorrect.extend(detect_incorrect_via_description(
                policy, permissions, self.matcher,
            ))
            report.incorrect.extend(detect_incorrect_via_code(
                policy, static_result, self.matcher,
            ))
            report.inconsistent.extend(detect_inconsistent(
                policy, lib_analyses, self.matcher,
                honor_disclaimer=self.honor_disclaimer,
            ))
            return report

        return self._run(stages.DETECT, digest, compute,
                         context=bundle.package)

    # -- the whole-app entry point -----------------------------------------

    def check(self, bundle: "AppBundle") -> AppReport:
        """All five stages over one app (Alg. 1-5, cached)."""
        policy = self.policy_analysis(bundle)
        static_result = self.static_analysis(bundle)
        # Alg. 1 considers only permissions the app actually requests
        permissions = (self.description_permissions(bundle)
                       & bundle.apk.manifest.permissions)
        return self.detect(bundle, policy, static_result, permissions)


__all__ = ["Pipeline"]
