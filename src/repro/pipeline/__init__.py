"""The staged, content-addressed PPChecker pipeline.

- :mod:`repro.pipeline.stages`     stage names, cache-key recipes, codecs
- :mod:`repro.pipeline.artifacts`  artifact stores (memory LRU, shared
  sqlite, tiered) and the per-stage counters
- :mod:`repro.pipeline.resilience` per-stage timeouts, bounded retries
  with deterministic backoff, :class:`StageError`,
  :class:`BatchItemError`
- :mod:`repro.pipeline.faults`     injectable fault plans (the chaos
  harness tests and benchmarks drive)
- :mod:`repro.pipeline.pipeline`   the :class:`Pipeline` orchestrator

Typical use::

    from repro.pipeline import Pipeline, build_store

    pipeline = Pipeline(lib_policy_source=store.lib_policy,
                        store=build_store(cache_dir=".ppcache"))
    reports = [pipeline.check(bundle) for bundle in bundles]
    print(pipeline.stats.to_dict())
"""

from repro.pipeline.artifacts import (
    MISS,
    ArtifactStore,
    MemoryStore,
    PipelineStats,
    SharedDiskStore,
    StageStats,
    TieredStore,
    build_store,
)
from repro.pipeline.faults import (
    CorruptArtifact,
    FaultPlan,
    FaultSpec,
    InjectedFault,
)
from repro.pipeline.pipeline import Pipeline
from repro.pipeline.resilience import (
    BatchItemError,
    Deadline,
    DeadlineExceeded,
    PipelineError,
    RetryBudget,
    RetryPolicy,
    StageError,
    StageTimeout,
    current_deadline,
    deadline_scope,
    is_deadline_error,
)
from repro.pipeline.stages import STAGES

__all__ = [
    "MISS",
    "ArtifactStore",
    "MemoryStore",
    "SharedDiskStore",
    "TieredStore",
    "build_store",
    "StageStats",
    "PipelineStats",
    "BatchItemError",
    "Pipeline",
    "STAGES",
    "PipelineError",
    "Deadline",
    "DeadlineExceeded",
    "RetryBudget",
    "RetryPolicy",
    "StageError",
    "StageTimeout",
    "current_deadline",
    "deadline_scope",
    "is_deadline_error",
    "FaultPlan",
    "FaultSpec",
    "InjectedFault",
    "CorruptArtifact",
]
