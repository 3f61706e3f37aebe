"""The 1,197-app study (Section V): run PPChecker over the corpus and
aggregate the numbers behind every table and figure.

One engine, :func:`run_study_streaming`, derives the apps from a lazy
:class:`CorpusSpec`, takes their outcomes in index order from one of
two sources -- this process (inline) or the :class:`ShardPool` of
worker processes -- and folds them into a constant-size
:class:`StudyAggregate`, the only code that computes the tables:

- Table III: permission -> count of description-incomplete apps,
- Fig. 13: distribution of missed information (code path),
- Section V-D: incorrect-policy counts,
- Table IV: inconsistency TP/FP/precision/recall/F1 per sentence row,
- Section V-F: the summary (apps with at least one problem).

:func:`run_study` is that engine plus an in-memory sink that keeps
every report, for a :class:`StudyResult` (the aggregate plus the
reports).  Ground-truth labels come from the corpus plans, so
precision and recall are exact rather than sampled.
"""

from __future__ import annotations

import contextlib
import resource
import time
from collections import Counter
from dataclasses import dataclass, field, fields
from typing import Callable, Iterable, Iterator, Protocol

from repro.core.checker import CheckerOptions, PPChecker
from repro.core.report import AppFailure, AppReport
from repro.corpus.appstore import AppStore, CorpusSpec
from repro.corpus.plans import AppPlan
from repro.pipeline.artifacts import PipelineStats
from repro.pipeline.resilience import BatchItemError
from repro.policy.verbs import VerbCategory
from repro.semantics.resources import InfoType

#: outcomes a shard process may queue ahead of the parent's fold
SHARD_QUEUE_BOUND = 32


@dataclass
class RowMetrics:
    """One Table IV row."""

    tp: int = 0
    fp: int = 0
    fn: int = 0

    @property
    def flagged(self) -> int:
        return self.tp + self.fp

    @property
    def precision(self) -> float:
        return self.tp / self.flagged if self.flagged else 0.0

    @property
    def recall(self) -> float:
        actual = self.tp + self.fn
        return self.tp / actual if actual else 0.0

    @property
    def f1(self) -> float:
        p, r = self.precision, self.recall
        return 2 * p * r / (p + r) if p + r else 0.0


#: the paper's published evaluation numbers (Section V).
PAPER_RESULTS: dict[str, int | float] = {
    "apps": 1197,
    "problem_apps": 282,
    "problem_fraction": 0.236,
    "incomplete_apps": 222,
    "incomplete_via_description": 64,
    "incomplete_via_code": 180,
    "incorrect_apps": 4,
    "incorrect_via_description": 2,
    "incorrect_via_code": 4,
    "inconsistent_apps": 75,
}


@dataclass
class StudyAggregate:
    """Every table of the study, folded one app at a time.

    Holds counters instead of the reports, so its size is independent
    of the corpus: the study folds a million-app run into the same few
    hundred bytes as the paper's 1,197.  It is the only code that
    computes the tables; ``tests/core/study_reference.py`` re-derives
    them from sets over the reports as the oracle :meth:`fold` is held
    to.
    """

    n_apps: int = 0
    checked: int = 0
    _table3: Counter[str] = field(default_factory=Counter)
    _fig13: Counter[InfoType] = field(default_factory=Counter)
    _fig13_retained: int = 0
    _code_tp: int = 0
    _code_fp: int = 0
    _rows: dict[str, RowMetrics] = field(default_factory=lambda: {
        "collect_use_retain": RowMetrics(), "disclose": RowMetrics()})
    _summary: Counter[str] = field(default_factory=Counter)
    _flagged: Counter[str] = field(default_factory=Counter)
    #: apps the pipeline could not check (degraded mode): package ->
    #: the structured failure record; never counted in the tables.
    failures: dict[str, AppFailure] = field(default_factory=dict)
    #: per-stage wall time / cache-hit counters of the run; excluded
    #: from :meth:`to_dict` so table exports stay stable across timing
    #: noise.
    stats: PipelineStats | None = field(default=None, repr=False,
                                        compare=False)
    #: run telemetry (``peak_rss_kb``, ``apps_per_sec``, ...); like
    #: ``stats`` it never enters :meth:`to_dict` or equality.
    telemetry: dict[str, float | int] | None = field(
        default=None, repr=False, compare=False)

    # -- the fold ----------------------------------------------------------

    def fold(self, plan: AppPlan,
             outcome: AppReport | AppFailure) -> None:
        """Account one finished app."""
        self.n_apps += 1
        if isinstance(outcome, AppFailure):
            self.failures[plan.package] = outcome
            return
        report = outcome
        self.checked += 1
        flagged = self._flagged

        desc_findings = report.incomplete_via("description")
        for permission in {f.permission for f in desc_findings}:
            self._table3[permission] += 1
        if desc_findings:
            flagged["incomplete_via_description"] += 1
        desc_tp = bool(desc_findings) and plan.gt_incomplete_desc

        code_findings = report.incomplete_via("code")
        code_tp = False
        if code_findings:
            if plan.gt_incomplete_code:
                code_tp = True
                self._code_tp += 1
                for finding in code_findings:
                    self._fig13[finding.info] += 1
                    if finding.retained:
                        self._fig13_retained += 1
            else:
                self._code_fp += 1

        incorrect_via_desc = bool(report.incorrect_via("description"))
        incorrect_via_code = bool(report.incorrect_via("code"))
        if report.incorrect:
            flagged["incorrect"] += 1
        if incorrect_via_desc:
            flagged["incorrect_via_description"] += 1
        if incorrect_via_code:
            flagged["incorrect_via_code"] += 1
        incorrect_tp = bool(report.incorrect) and plan.gt_incorrect

        det_cur = any(f.category is not VerbCategory.DISCLOSE
                      for f in report.inconsistent)
        det_d = any(f.category is VerbCategory.DISCLOSE
                    for f in report.inconsistent)
        for row, detected, truth in (
            ("collect_use_retain", det_cur, plan.gt_inconsistent_cur),
            ("disclose", det_d, plan.gt_inconsistent_d),
        ):
            metrics = self._rows[row]
            if detected and truth:
                metrics.tp += 1
            elif detected and not truth:
                metrics.fp += 1
            elif not detected and truth:
                metrics.fn += 1
        inconsistent_tp = (det_cur and plan.gt_inconsistent_cur) or (
            det_d and plan.gt_inconsistent_d)

        summary = self._summary
        if desc_tp:
            summary["incomplete_via_description"] += 1
        if code_tp:
            summary["incomplete_via_code"] += 1
        if desc_tp or code_tp:
            summary["incomplete_apps"] += 1
        if incorrect_tp:
            summary["incorrect_apps"] += 1
        if incorrect_via_desc and plan.gt_incorrect:
            summary["incorrect_via_description"] += 1
        if incorrect_via_code and plan.gt_incorrect:
            summary["incorrect_via_code"] += 1
        if inconsistent_tp:
            summary["inconsistent_apps"] += 1
        if desc_tp or code_tp or incorrect_tp or inconsistent_tp:
            summary["problem_apps"] += 1

    # -- the tables ----------------------------------------------------------

    def table3(self) -> dict[str, int]:
        """Table III: permission -> number of description-incomplete
        apps."""
        return dict(self._table3)

    def fig13(self) -> tuple[Counter[InfoType], int]:
        """Fig. 13: (missed-info distribution, retained records) over
        the verified code-incomplete apps."""
        return self._fig13, self._fig13_retained

    def incomplete_code_confusion(self) -> tuple[int, int]:
        """(true positives, false positives) of the code path."""
        return self._code_tp, self._code_fp

    def table4(self) -> dict[str, RowMetrics]:
        """Table IV: inconsistency TP/FP/FN per sentence row."""
        return self._rows

    def flagged(self) -> dict[str, int]:
        """Apps each detector flagged, verified or not: Table III's 64
        questionable apps, the 195 code-path apps behind Fig. 13, and
        Section V-D's incorrect apps in total and per source.  The
        verified share of each is in :meth:`summary`."""
        flagged = self._flagged
        return {
            "incomplete_via_description":
                flagged["incomplete_via_description"],
            "incomplete_via_code": self._code_tp + self._code_fp,
            "incorrect": flagged["incorrect"],
            "incorrect_via_description":
                flagged["incorrect_via_description"],
            "incorrect_via_code": flagged["incorrect_via_code"],
        }

    def summary(self) -> dict[str, int | float]:
        """Section V-F: verified problem apps, per kind and in total."""
        problems = self._summary
        return {
            "apps": self.n_apps,
            "problem_apps": problems["problem_apps"],
            "problem_fraction": problems["problem_apps"] / self.n_apps
            if self.n_apps else 0.0,
            "incomplete_apps": problems["incomplete_apps"],
            "incomplete_via_description":
                problems["incomplete_via_description"],
            "incomplete_via_code": problems["incomplete_via_code"],
            "incorrect_apps": problems["incorrect_apps"],
            "incorrect_via_description":
                problems["incorrect_via_description"],
            "incorrect_via_code": problems["incorrect_via_code"],
            "inconsistent_apps": problems["inconsistent_apps"],
            "quarantined_apps": len(self.failures),
        }

    def to_dict(self) -> dict:
        """JSON-serializable rendering of every table and figure."""
        dist, retained = self.fig13()
        return {
            "summary": self.summary(),
            "table3": self.table3(),
            "fig13": {
                info.value: count for info, count in dist.items()
            },
            "fig13_retained": retained,
            "table4": {
                name: {"tp": row.tp, "fp": row.fp, "fn": row.fn,
                       "precision": row.precision,
                       "recall": row.recall, "f1": row.f1}
                for name, row in self.table4().items()
            },
            "quarantine": [
                self.failures[pkg].to_dict()
                for pkg in sorted(self.failures)
            ],
        }

    def deviations_from_paper(self) -> dict[str, tuple]:
        """Summary metrics that differ from :data:`PAPER_RESULTS`."""
        summary = self.summary()
        out: dict[str, tuple] = {}
        for key, paper_value in PAPER_RESULTS.items():
            measured = summary.get(key)
            if measured is None:
                continue
            if isinstance(paper_value, float):
                if abs(measured - paper_value) > 0.002:
                    out[key] = (paper_value, measured)
            elif measured != paper_value:
                out[key] = (paper_value, measured)
        return out


@dataclass
class StudyResult(StudyAggregate):
    """A study's tables plus every checked app's report (what
    :func:`run_study` returns and the HTML dashboard renders)."""

    reports: dict[str, AppReport] = field(default_factory=dict)


# ---------------------------------------------------------------------------
# sinks
# ---------------------------------------------------------------------------


class ResultSink(Protocol):
    """Anything that wants every finished outcome, in index order
    (e.g. :class:`repro.core.results.ShardedResultWriter`)."""

    def emit(self, index: int, key: str,
             outcome: AppReport | AppFailure) -> None: ...


class ReportSink:
    """The in-memory sink: keeps every checked app's report, package
    -> :class:`AppReport`, in index order."""

    def __init__(self) -> None:
        self.reports: dict[str, AppReport] = {}

    def emit(self, index: int, key: str,
             outcome: AppReport | AppFailure) -> None:
        if not isinstance(outcome, AppFailure):
            self.reports[key] = outcome

    def result(self, aggregate: StudyAggregate) -> StudyResult:
        """*aggregate*'s tables with the kept reports."""
        return StudyResult(
            **{f.name: getattr(aggregate, f.name)
               for f in fields(StudyAggregate)},
            reports=self.reports)


# ---------------------------------------------------------------------------
# the engine
# ---------------------------------------------------------------------------


def _telemetry(started: float, apps: int) -> dict[str, float | int]:
    """Run telemetry: process high-water RSS plus throughput."""
    elapsed = time.perf_counter() - started
    return {
        "peak_rss_kb": resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss,
        "apps_per_sec": apps / elapsed if elapsed > 0 else 0.0,
        "elapsed_s": elapsed,
    }


def _check_one(spec: CorpusSpec, checker: PPChecker,
               index: int) -> AppReport | AppFailure:
    """The outcome of corpus app *index*; a failing check becomes its
    quarantine record, on every plane."""
    try:
        return checker.check(spec.app(index).bundle)
    except Exception as exc:
        return AppFailure.from_exception(spec.package_for(index), exc)


def _fail_fast(index: int, failure: AppFailure) -> BatchItemError:
    """``keep_going=False``'s error, the same on every plane: built
    from the failure record, which -- unlike the exception -- crosses
    the shard process boundary intact."""
    cause = RuntimeError(
        f"{failure.error} at stage {failure.stage!r} after "
        f"{failure.attempts} attempt(s): {failure.message}")
    return BatchItemError(index, failure.package, cause)


def run_study_streaming(
    spec: CorpusSpec,
    checker: PPChecker | None = None,
    limit: int | None = None,
    workers: int = 1,
    keep_going: bool = True,
    skip: dict[str, AppReport | AppFailure] | None = None,
    on_outcome: Callable[[str, AppReport | AppFailure],
                         None] | None = None,
    sinks: Iterable[ResultSink] = (),
    shards: int = 0,
    shard_options: CheckerOptions | None = None,
) -> StudyAggregate:
    """The study as a bounded-memory stream over a lazy corpus.

    Apps are derived from *spec* one index at a time, checked, and
    folded straight into a :class:`StudyAggregate` -- peak RSS is set
    by the app being checked (or the bounded shard queues), not by
    ``len(spec)``.  Outcomes come from
    one of two sources, always **in index order**:

    - this process, one app at a time;
    - with ``shards > 0``, the *process* worker plane
      (:class:`ShardPool`), the one way to use more cores.

    *workers* stays only for callers that still pass ``workers=1``
    (perfbench's ``study`` workload); any other value raises
    :class:`ValueError` (more cores come from ``shards=``).

    Each app's checker comes from *checker* or, when that is None
    (always with ``shards > 0``), from the *shard_options* recipe.
    For each outcome the loop fires ``on_outcome`` (fresh outcomes
    only), folds it, and emits it to every sink, so the aggregates
    and any sink's output (e.g. the sharded NDJSON writer) are
    byte-identical across planes and reruns.

    ``skip`` maps package -> journal-replayed outcome (folded and
    emitted to sinks, but never re-checked and never re-fired through
    ``on_outcome``), which is what makes a ``--resume`` d run
    reproduce the uninterrupted run byte-for-byte.  With
    ``keep_going`` (the default) a failing app is quarantined on
    ``failures``; ``keep_going=False`` raises
    :class:`~repro.pipeline.resilience.BatchItemError` for the first
    failing corpus index instead.
    """
    if workers != 1:
        raise ValueError(f"workers={workers!r}: the study runs inline "
                         f"or on shards=N worker processes")
    started = time.perf_counter()
    total = len(spec) if limit is None else min(limit, len(spec))
    skip = skip or {}
    sinks = tuple(sinks)
    options = shard_options or CheckerOptions()
    if shards > 0:
        if checker is not None:
            raise ValueError("shard processes build their checkers "
                             "from shard_options; pass no checker")
        pool = ShardPool(spec, shards=shards, total=total, skip=skip,
                         options=options)
        source = pool.outcomes()
    else:
        pool = None
        if checker is None:
            checker = options.build_checker(spec.lib_policy)
        source = (_check_one(spec, checker, index)
                  for index in range(total)
                  if spec.package_for(index) not in skip)
    aggregate = StudyAggregate()
    with pool or contextlib.nullcontext(), \
            contextlib.closing(source) as fresh:
        for index in range(total):
            plan = spec.plan(index)
            outcome = skip.get(plan.package)
            if outcome is None:
                outcome = next(fresh)
                if isinstance(outcome, AppFailure) and not keep_going:
                    raise _fail_fast(index, outcome)
                if on_outcome is not None:
                    on_outcome(plan.package, outcome)
            aggregate.fold(plan, outcome)
            for sink in sinks:
                sink.emit(index, plan.package, outcome)
        aggregate.stats = (pool.finish() if pool is not None
                           else checker.stats)
    aggregate.telemetry = _telemetry(started, total)
    return aggregate


def run_study(
    corpus: CorpusSpec | AppStore,
    checker: PPChecker | None = None,
    limit: int | None = None,
    keep_going: bool = True,
    skip: dict[str, AppReport | AppFailure] | None = None,
    on_outcome: Callable[[str, AppReport | AppFailure],
                         None] | None = None,
    shards: int = 0,
    shard_options: CheckerOptions | None = None,
) -> StudyResult:
    """Run PPChecker over every app of the corpus, keeping each report.

    :func:`run_study_streaming` plus a :class:`ReportSink`; every
    argument means what it means there.  An :class:`AppStore` is read
    as the ``CorpusSpec(store.seed, len(store))`` it was materialized
    from, so its apps are re-derived lazily rather than taken from
    ``store.apps``.  The pipeline's per-stage counters land on
    ``result.stats``.
    """
    spec = (corpus if isinstance(corpus, CorpusSpec)
            else CorpusSpec(seed=corpus.seed, n_apps=len(corpus)))
    sink = ReportSink()
    return sink.result(run_study_streaming(
        spec, checker=checker, limit=limit, keep_going=keep_going,
        skip=skip, on_outcome=on_outcome, sinks=[sink], shards=shards,
        shard_options=shard_options))


def merge_study_results(out_dir: str) -> StudyAggregate:
    """Reconstitute the study tables from a finalized shard
    directory (see :mod:`repro.core.results`).

    Plans are re-derived lazily from the corpus identity stamped in
    the shard headers, so the merge -- like the run that produced the
    shards -- never materializes the corpus.  The shards must hold
    exactly the run their meta names: indices ``0..N-1``, each once,
    each keyed by its corpus package; anything else raises
    :class:`~repro.core.results.ResultShardError` naming the shard.
    """
    from repro.core import results

    meta = results.read_meta(out_dir)
    if meta is None:
        raise results.ResultShardError(
            f"{out_dir}: no finalized result shards")
    spec = CorpusSpec(seed=meta["seed"], n_apps=meta["apps"])
    expected = meta.get("limit")
    expected = len(spec) if expected is None else min(expected,
                                                     len(spec))
    paths = results.shard_paths(out_dir)
    aggregate = StudyAggregate()
    for position, (index, key, outcome) in enumerate(
            results.iter_results(out_dir)):
        # a shard holds only its own indices (iter_shard checks it)
        where = paths[index % len(paths)]
        if index != position or index >= expected:
            raise results.ResultShardError(
                f"{where}: index {index} where the run meta promises "
                f"index {position} of {expected} -- duplicated, "
                f"missing, or foreign record?")
        plan = spec.plan(index)
        if key != plan.package:
            raise results.ResultShardError(
                f"{where}: index {index} is keyed {key!r}, but the "
                f"run's app {index} is {plan.package!r}")
        aggregate.fold(plan, outcome)
    if aggregate.n_apps != expected:
        raise results.ResultShardError(
            f"{out_dir}: shards hold {aggregate.n_apps} outcomes "
            f"but the run meta promises {expected} -- partial run?")
    return aggregate


# ---------------------------------------------------------------------------
# the process worker plane
# ---------------------------------------------------------------------------


def _shard_worker_main(shard: int, shards: int, seed: int, n_apps: int,
                       total: int, skip: frozenset,
                       options: CheckerOptions, out_queue) -> None:
    """Worker process: check every corpus index ``i`` with
    ``i % shards == shard``, in ascending index order, streaming
    ``("outcome", index, outcome)`` records back -- a failing check
    as its picklable :class:`AppFailure`.  Always ends with a
    ``("stats", snapshot)`` record so the parent can merge pipeline
    counters."""
    spec = CorpusSpec(seed=seed, n_apps=n_apps)
    checker = options.build_checker(spec.lib_policy)
    try:
        for index in range(shard, total, shards):
            if spec.package_for(index) in skip:
                continue
            out_queue.put(("outcome", index,
                           _check_one(spec, checker, index)))
    finally:
        out_queue.put(("stats", checker.stats.snapshot()))


class ShardPool:
    """The study's process worker plane.

    *shards* spawn processes; shard ``k`` owns the corpus indices
    ``i`` with ``i % shards == k``, the rule the ``--out`` result
    shards use too.  The parent drains outcomes in **global index
    order**:
    every index belongs to exactly one shard and each shard emits its
    indices ascending, so the head of the owner's queue is always the
    next outcome.  Per-shard queues hold at most
    :data:`SHARD_QUEUE_BOUND` outcomes, so a fast shard blocks instead
    of buffering unboundedly -- peak parent memory is a constant per
    shard, never the corpus.
    """

    def __init__(self, spec: CorpusSpec, shards: int, total: int,
                 skip: Iterable[str] = (),
                 options: CheckerOptions | None = None):
        import multiprocessing

        self.spec = spec
        self.shards = max(1, min(shards, max(total, 1)))
        self.total = total
        self.skip = frozenset(skip)
        options = options or CheckerOptions()
        ctx = multiprocessing.get_context("spawn")
        self.queues = [ctx.Queue(maxsize=SHARD_QUEUE_BOUND)
                       for _ in range(self.shards)]
        self.processes = [
            ctx.Process(
                target=_shard_worker_main,
                args=(index, self.shards, spec.seed, spec.n_apps,
                      total, self.skip, options, self.queues[index]),
                daemon=True,
            )
            for index in range(self.shards)
        ]

    def __enter__(self) -> "ShardPool":
        for process in self.processes:
            process.start()
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def _next(self, shard: int):
        """The next record from *shard*, raising instead of hanging
        forever if its process died mid-run (e.g. SIGKILL)."""
        import queue as queue_module

        while True:
            try:
                return self.queues[shard].get(timeout=1.0)
            except queue_module.Empty:
                process = self.processes[shard]
                if not process.is_alive():
                    raise RuntimeError(
                        f"study shard {shard} died (exit code "
                        f"{process.exitcode}) before finishing its "
                        f"indices; rerun with --journal/--resume to "
                        f"replay the finished apps") from None

    def outcomes(self) -> Iterator[AppReport | AppFailure]:
        """Yield the outcome of every fresh (non-skipped) index, in
        ascending index order."""
        for index in range(self.total):
            if self.spec.package_for(index) in self.skip:
                continue
            shard = index % self.shards
            record = self._next(shard)
            if record[0] != "outcome" or record[1] != index:
                raise RuntimeError(
                    f"study shard {shard} broke protocol: expected "
                    f"outcome {index}, got {record[0]!r} "
                    f"{record[1] if len(record) > 1 else None!r}")
            yield record[2]

    def finish(self) -> PipelineStats:
        """Collect each shard's trailing stats record and merge the
        per-stage counters; call after :meth:`outcomes` is drained."""
        merged = PipelineStats()
        for shard in range(self.shards):
            record = self._next(shard)
            if record[0] != "stats":
                raise RuntimeError(
                    f"study shard {shard} broke protocol: expected "
                    f"stats, got {record[0]!r}")
            for name, row in record[1].items():
                stage = merged.stage(name)
                stage.executions += row["executions"]
                stage.cache_hits += row["cache_hits"]
                stage.failures += row["failures"]
                stage.seconds += row["seconds"]
        return merged

    def close(self) -> None:
        for process in self.processes:
            if process.is_alive():
                process.terminate()
        for process in self.processes:
            process.join(timeout=10.0)
        for queue in self.queues:
            queue.close()
            queue.cancel_join_thread()


__all__ = ["RowMetrics", "StudyResult", "StudyAggregate",
           "ResultSink", "ReportSink", "ShardPool",
           "PAPER_RESULTS", "run_study", "run_study_streaming",
           "merge_study_results"]
