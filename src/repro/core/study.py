"""The 1,197-app study (Section V): run PPChecker over the corpus and
aggregate the numbers behind every table and figure.

One engine, :func:`run_study_streaming`, derives the apps from a lazy
:class:`CorpusSpec`, takes their outcomes in index order from one of
two sources -- this process (inline, or a window of threads) or the
consistent-hash :class:`ShardPool` of worker processes -- and folds
them into a constant-size :class:`StudyAggregate`.  :func:`run_study`
is that engine plus an in-memory sink that keeps every report, for a
:class:`StudyResult` exposing:

- Table III: permission -> count of description-incomplete apps,
- Fig. 13: distribution of missed information (code path),
- Section V-D: incorrect-policy counts,
- Table IV: inconsistency TP/FP/precision/recall/F1 per sentence row,
- Section V-F: the summary (apps with at least one problem).

Ground-truth labels come from the corpus plans, so precision and
recall are exact rather than sampled.
"""

from __future__ import annotations

import contextlib
import resource
import time
from collections import Counter, deque
from concurrent.futures import Future, ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Callable, Iterable, Iterator, Protocol

from repro.core.checker import CheckerOptions, PPChecker
from repro.core.report import AppFailure, AppReport
from repro.corpus.appstore import AppStore, CorpusSpec
from repro.corpus.plans import AppPlan
from repro.pipeline.artifacts import PipelineStats
from repro.pipeline.executor import BatchItemError
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


class _StudyTables:
    """Export and paper comparison over the table accessors
    (``summary``/``table3``/``fig13``/``table4``/``failures``) that
    :class:`StudyResult` and :class:`StudyAggregate` both provide."""

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
class StudyResult(_StudyTables):
    """Everything the benches and EXPERIMENTS.md report.

    Its set-based tables are computed straight from the kept reports,
    independently of :meth:`StudyAggregate.fold` -- the oracle the
    equivalence suites hold the fold to.
    """

    n_apps: int
    reports: dict[str, AppReport] = field(default_factory=dict)
    plans: dict[str, AppPlan] = field(default_factory=dict)
    #: apps the pipeline could not check (degraded mode): package ->
    #: the structured failure record; never counted in the tables.
    failures: dict[str, AppFailure] = field(default_factory=dict)
    #: per-stage wall time / cache-hit counters of the run (None for
    #: hand-assembled results); excluded from :meth:`to_dict` so table
    #: exports stay stable across timing noise.
    stats: PipelineStats | None = field(default=None, repr=False,
                                        compare=False)
    #: run telemetry (``peak_rss_kb``, ``apps_per_sec``, ...); like
    #: ``stats`` it is timing noise, so it never enters
    #: :meth:`to_dict` or equality.
    telemetry: dict[str, float | int] | None = field(
        default=None, repr=False, compare=False)

    # -- incomplete via description (Table III) ---------------------------

    def incomplete_desc_apps(self) -> set[str]:
        return {
            pkg for pkg, r in self.reports.items()
            if r.incomplete_via("description")
        }

    def table3(self) -> dict[str, int]:
        """permission -> number of flagged apps."""
        counts: Counter[str] = Counter()
        for report in self.reports.values():
            for permission in {
                f.permission for f in report.incomplete_via("description")
            }:
                counts[permission] += 1
        return dict(counts)

    # -- incomplete via code (Fig. 13) --------------------------------------

    def incomplete_code_apps(self) -> set[str]:
        return {
            pkg for pkg, r in self.reports.items()
            if r.incomplete_via("code")
        }

    def incomplete_code_confusion(self) -> tuple[int, int]:
        """(true positives, false positives) against ground truth."""
        tp = fp = 0
        for pkg in self.incomplete_code_apps():
            if self.plans[pkg].gt_incomplete_code:
                tp += 1
            else:
                fp += 1
        return tp, fp

    def fig13(self) -> tuple[Counter[InfoType], int]:
        """(missed-info distribution, retained records), TP apps only."""
        counts: Counter[InfoType] = Counter()
        retained = 0
        for pkg in self.incomplete_code_apps():
            if not self.plans[pkg].gt_incomplete_code:
                continue
            for finding in self.reports[pkg].incomplete_via("code"):
                counts[finding.info] += 1
                if finding.retained:
                    retained += 1
        return counts, retained

    # -- incorrect (Section V-D) -----------------------------------------------

    def incorrect_apps(self, source: str | None = None) -> set[str]:
        return {
            pkg for pkg, r in self.reports.items()
            if (r.incorrect if source is None else r.incorrect_via(source))
        }

    def incorrect_confusion(self) -> tuple[int, int]:
        tp = fp = 0
        for pkg in self.incorrect_apps():
            if self.plans[pkg].gt_incorrect:
                tp += 1
            else:
                fp += 1
        return tp, fp

    # -- inconsistent (Table IV) --------------------------------------------------

    def _row_membership(self, report: AppReport) -> tuple[bool, bool]:
        cur = any(
            f.category is not VerbCategory.DISCLOSE
            for f in report.inconsistent
        )
        disclose = any(
            f.category is VerbCategory.DISCLOSE
            for f in report.inconsistent
        )
        return cur, disclose

    def table4(self) -> dict[str, RowMetrics]:
        rows = {"collect_use_retain": RowMetrics(),
                "disclose": RowMetrics()}
        for pkg, report in self.reports.items():
            plan = self.plans[pkg]
            det_cur, det_d = self._row_membership(report)
            for row, detected, truth in (
                ("collect_use_retain", det_cur, plan.gt_inconsistent_cur),
                ("disclose", det_d, plan.gt_inconsistent_d),
            ):
                metrics = rows[row]
                if detected and truth:
                    metrics.tp += 1
                elif detected and not truth:
                    metrics.fp += 1
                elif not detected and truth:
                    metrics.fn += 1
        return rows

    def inconsistent_true_apps(self) -> set[str]:
        """Detected AND manually-verified inconsistent apps (the 75)."""
        out = set()
        for pkg, report in self.reports.items():
            if not report.inconsistent:
                continue
            plan = self.plans[pkg]
            det_cur, det_d = self._row_membership(report)
            if (det_cur and plan.gt_inconsistent_cur) or (
                det_d and plan.gt_inconsistent_d
            ):
                out.add(pkg)
        return out

    # -- summary (Section V-F) ---------------------------------------------------

    def summary(self) -> dict[str, int | float]:
        incomplete_tp = {
            pkg for pkg in self.incomplete_desc_apps()
            if self.plans[pkg].gt_incomplete_desc
        } | {
            pkg for pkg in self.incomplete_code_apps()
            if self.plans[pkg].gt_incomplete_code
        }
        incorrect_tp = {
            pkg for pkg in self.incorrect_apps()
            if self.plans[pkg].gt_incorrect
        }
        inconsistent_tp = self.inconsistent_true_apps()
        problem_apps = incomplete_tp | incorrect_tp | inconsistent_tp
        desc_tp = {
            pkg for pkg in self.incomplete_desc_apps()
            if self.plans[pkg].gt_incomplete_desc
        }
        code_tp = {
            pkg for pkg in self.incomplete_code_apps()
            if self.plans[pkg].gt_incomplete_code
        }
        return {
            "apps": self.n_apps,
            "problem_apps": len(problem_apps),
            "problem_fraction": len(problem_apps) / self.n_apps
            if self.n_apps else 0.0,
            "incomplete_apps": len(incomplete_tp),
            "incomplete_via_description": len(desc_tp),
            "incomplete_via_code": len(code_tp),
            "incorrect_apps": len(incorrect_tp),
            "incorrect_via_description": len(
                {p for p in self.incorrect_apps("description")
                 if self.plans[p].gt_incorrect}
            ),
            "incorrect_via_code": len(
                {p for p in self.incorrect_apps("code")
                 if self.plans[p].gt_incorrect}
            ),
            "inconsistent_apps": len(inconsistent_tp),
            "quarantined_apps": len(self.failures),
        }


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
class StudyAggregate(_StudyTables):
    """:class:`StudyResult`'s tables, folded one app at a time.

    Holds counters instead of the reports dict, so its size is
    independent of the corpus: the study folds a million-app run into
    the same few hundred bytes as the paper's 1,197.  ``to_dict()`` is
    pinned byte-identical to ``StudyResult.to_dict()`` -- every table
    in the materialized result decomposes into per-app increments, and
    :meth:`fold` applies exactly those increments.
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
    failures: dict[str, AppFailure] = field(default_factory=dict)
    stats: PipelineStats | None = field(default=None, repr=False,
                                        compare=False)
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

        desc_findings = report.incomplete_via("description")
        for permission in {f.permission for f in desc_findings}:
            self._table3[permission] += 1
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
        if report.incorrect_via("description") and plan.gt_incorrect:
            summary["incorrect_via_description"] += 1
        if report.incorrect_via("code") and plan.gt_incorrect:
            summary["incorrect_via_code"] += 1
        if inconsistent_tp:
            summary["inconsistent_apps"] += 1
        if desc_tp or code_tp or incorrect_tp or inconsistent_tp:
            summary["problem_apps"] += 1

    # -- StudyResult-compatible views --------------------------------------

    def table3(self) -> dict[str, int]:
        return dict(self._table3)

    def fig13(self) -> tuple[Counter[InfoType], int]:
        return self._fig13, self._fig13_retained

    def incomplete_code_confusion(self) -> tuple[int, int]:
        return self._code_tp, self._code_fp

    def table4(self) -> dict[str, RowMetrics]:
        return self._rows

    def summary(self) -> dict[str, int | float]:
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


# ---------------------------------------------------------------------------
# sinks
# ---------------------------------------------------------------------------


class ResultSink(Protocol):
    """Anything that wants every finished outcome, in index order
    (e.g. :class:`repro.core.results.ShardedResultWriter`)."""

    def emit(self, index: int, key: str,
             outcome: AppReport | AppFailure) -> None: ...


class ReportSink:
    """The in-memory sink: keeps every outcome and its plan on
    :attr:`result`, a :class:`StudyResult` (what :func:`run_study`
    returns and the HTML dashboard renders)."""

    def __init__(self, spec: CorpusSpec) -> None:
        self.spec = spec
        self.result = StudyResult(n_apps=0)

    def emit(self, index: int, key: str,
             outcome: AppReport | AppFailure) -> None:
        result = self.result
        result.n_apps += 1
        result.plans[key] = self.spec.plan(index)
        if isinstance(outcome, AppFailure):
            result.failures[key] = outcome
        else:
            result.reports[key] = outcome


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


def _local_outcomes(spec: CorpusSpec, checker: PPChecker, total: int,
                    skip: dict, workers: int,
                    ) -> Iterator[AppReport | AppFailure]:
    """Fresh outcomes checked in this process, in index order: inline
    for one worker, else from at most ``4 * workers`` in-flight
    checks on a thread pool."""
    todo = (index for index in range(total)
            if spec.package_for(index) not in skip)
    if workers <= 1:
        for index in todo:
            yield _check_one(spec, checker, index)
        return
    pending: deque[Future] = deque()
    with ThreadPoolExecutor(max_workers=workers) as pool:
        try:
            for index in todo:
                pending.append(pool.submit(_check_one, spec, checker,
                                           index))
                if len(pending) >= 4 * workers:
                    yield pending.popleft().result()
            while pending:
                yield pending.popleft().result()
        finally:
            for future in pending:
                future.cancel()


def _fail_fast(index: int, failure: AppFailure) -> BatchItemError:
    """``keep_going=False``'s error, the same on every plane: built
    from the failure record, which -- unlike the exception -- crosses
    the shard process boundary intact."""
    cause = RuntimeError(
        f"{failure.error} at stage {failure.stage!r} after "
        f"{failure.attempts} attempt(s): {failure.message}")
    error = BatchItemError(index, failure.package, cause)
    error.__cause__ = cause
    return error


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
    by the apps in flight, not by ``len(spec)``.  Outcomes come from
    one of two sources, always **in index order**:

    - this process: inline for ``workers=1``, else a thread pool with
      at most ``4 * workers`` apps in flight;
    - with ``shards > 0``, the consistent-hash *process* worker plane
      (:class:`ShardPool`); *workers* is ignored there.

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
    :class:`~repro.pipeline.executor.BatchItemError` for the first
    failing corpus index instead.
    """
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
        source = _local_outcomes(spec, checker, total, skip, workers)
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
    workers: int = 1,
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
    sink = ReportSink(spec)
    aggregate = run_study_streaming(
        spec, checker=checker, limit=limit, workers=workers,
        keep_going=keep_going, skip=skip, on_outcome=on_outcome,
        sinks=[sink], shards=shards, shard_options=shard_options)
    result = sink.result
    result.stats = aggregate.stats
    result.telemetry = aggregate.telemetry
    return result


def merge_study_results(out_dir: str) -> StudyAggregate:
    """Reconstitute the study tables from a finalized shard
    directory (see :mod:`repro.core.results`).

    Plans are re-derived lazily from the corpus identity stamped in
    the shard headers, so the merge -- like the run that produced the
    shards -- never materializes the corpus.
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
    aggregate = StudyAggregate()
    for index, _key, outcome in results.iter_results(out_dir):
        aggregate.fold(spec.plan(index), outcome)
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
    """Worker process: check every corpus index whose package the hash
    ring assigns to shard *shard*, in ascending index order, streaming
    ``("outcome", index, outcome)`` records back -- a failing check
    as its picklable :class:`AppFailure`.  Always ends with a
    ``("stats", snapshot)`` record so the parent can merge pipeline
    counters."""
    from repro.service.hashring import ring_for, shard_name

    spec = CorpusSpec(seed=seed, n_apps=n_apps)
    ring = ring_for(shards)
    mine = shard_name(shard)
    checker = options.build_checker(spec.lib_policy)
    try:
        for index in range(total):
            package = spec.package_for(index)
            if package in skip or ring.place(package) != mine:
                continue
            out_queue.put(("outcome", index,
                           _check_one(spec, checker, index)))
    finally:
        out_queue.put(("stats", checker.stats.snapshot()))


class ShardPool:
    """The study's process worker plane -- the same consistent-hash
    assignment as ``serve --shards N``, driven directly.

    *shards* spawn processes each own the corpus indices whose
    package name the service hash ring
    (:func:`repro.service.hashring.ring_for`) places on their shard
    name.  The parent drains outcomes in **global index order**:
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

        from repro.service.hashring import ring_for, shard_name

        self.spec = spec
        self.shards = max(1, min(shards, max(total, 1)))
        self.total = total
        self.skip = frozenset(skip)
        self.ring = ring_for(self.shards)
        self._owner_index = {shard_name(i): i
                             for i in range(self.shards)}
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
            package = self.spec.package_for(index)
            if package in self.skip:
                continue
            shard = self._owner_index[self.ring.place(package)]
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
