"""A minimal Prometheus-style metrics registry (stdlib only).

The check service exposes its operational state on ``GET /metrics`` in
the Prometheus text exposition format.  Three instrument kinds cover
everything the service needs:

- :class:`Counter`   -- monotonically increasing, optionally labelled
  (request counts by endpoint/status, jobs by outcome, ...).
- :class:`Gauge`     -- a settable value, or a live callback sampled at
  render time (queue depth, workers alive).
- :class:`Histogram` -- cumulative buckets + sum + count (per-stage
  latency).

:class:`ServiceMetrics` bundles the instruments the service registers
and is the bridge from :class:`repro.pipeline.artifacts.PipelineStats`
(via its listener hook) into the registry.  Everything is thread-safe;
rendering is deterministic (registration order, sorted label values).
"""

from __future__ import annotations

import threading
from typing import Any, Callable, Iterable

#: default latency buckets (seconds) -- pipeline stages run from
#: sub-millisecond (cache hits) to multi-second (cold static analysis)
DEFAULT_BUCKETS: tuple[float, ...] = (
    0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1,
    0.25, 0.5, 1.0, 2.5, 5.0, 10.0,
)


def _escape_label_value(value: str) -> str:
    return (value.replace("\\", r"\\")
                 .replace("\n", r"\n")
                 .replace('"', r'\"'))


def _format_value(value: float) -> str:
    if value == float("inf"):
        return "+Inf"
    if float(value).is_integer():
        return str(int(value))
    return repr(float(value))


def _format_labels(labelnames: tuple[str, ...],
                   labelvalues: tuple[str, ...],
                   extra: tuple[tuple[str, str], ...] = ()) -> str:
    pairs = list(zip(labelnames, labelvalues)) + list(extra)
    if not pairs:
        return ""
    body = ",".join(
        f'{name}="{_escape_label_value(str(value))}"'
        for name, value in pairs
    )
    return "{" + body + "}"


class _Metric:
    """Shared name/help/label plumbing."""

    kind = "untyped"

    def __init__(self, name: str, help: str,
                 labelnames: Iterable[str] = ()) -> None:
        self.name = name
        self.help = help
        self.labelnames = tuple(labelnames)
        self._lock = threading.Lock()

    def _key(self, labels: dict[str, str]) -> tuple[str, ...]:
        if set(labels) != set(self.labelnames):
            raise ValueError(
                f"{self.name}: expected labels {self.labelnames}, "
                f"got {tuple(sorted(labels))}"
            )
        return tuple(str(labels[name]) for name in self.labelnames)

    def header(self) -> list[str]:
        return [f"# HELP {self.name} {self.help}",
                f"# TYPE {self.name} {self.kind}"]

    def render(self) -> list[str]:  # pragma: no cover - overridden
        raise NotImplementedError


class Counter(_Metric):
    """A monotonically increasing value, per label combination."""

    kind = "counter"

    def __init__(self, name: str, help: str,
                 labelnames: Iterable[str] = ()) -> None:
        super().__init__(name, help, labelnames)
        self._values: dict[tuple[str, ...], float] = {}

    def inc(self, amount: float = 1.0, **labels: str) -> None:
        if amount < 0:
            raise ValueError("counters only go up")
        key = self._key(labels)
        with self._lock:
            self._values[key] = self._values.get(key, 0.0) + amount

    def value(self, **labels: str) -> float:
        key = self._key(labels)
        with self._lock:
            return self._values.get(key, 0.0)

    def total(self) -> float:
        """Sum over every label combination."""
        with self._lock:
            return sum(self._values.values())

    def render(self) -> list[str]:
        lines = self.header()
        with self._lock:
            items = sorted(self._values.items())
        if not items and not self.labelnames:
            items = [((), 0.0)]
        for key, value in items:
            lines.append(
                f"{self.name}"
                f"{_format_labels(self.labelnames, key)} "
                f"{_format_value(value)}"
            )
        return lines


class Gauge(_Metric):
    """A settable value; pass ``callback`` for a live sample."""

    kind = "gauge"

    def __init__(self, name: str, help: str,
                 callback: Callable[[], float] | None = None) -> None:
        super().__init__(name, help, ())
        self._value = 0.0
        self._callback = callback

    def set(self, value: float) -> None:
        with self._lock:
            self._value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        with self._lock:
            self._value += amount

    def dec(self, amount: float = 1.0) -> None:
        self.inc(-amount)

    def value(self) -> float:
        if self._callback is not None:
            return float(self._callback())
        with self._lock:
            return self._value

    def render(self) -> list[str]:
        return self.header() + [
            f"{self.name} {_format_value(self.value())}"
        ]


class Histogram(_Metric):
    """Cumulative-bucket histogram, per label combination."""

    kind = "histogram"

    def __init__(self, name: str, help: str,
                 labelnames: Iterable[str] = (),
                 buckets: Iterable[float] = DEFAULT_BUCKETS) -> None:
        super().__init__(name, help, labelnames)
        self.buckets = tuple(sorted(buckets))
        if not self.buckets:
            raise ValueError("need at least one bucket")
        #: label key -> [per-bucket counts..., +Inf count]
        self._counts: dict[tuple[str, ...], list[int]] = {}
        self._sums: dict[tuple[str, ...], float] = {}

    def observe(self, value: float, **labels: str) -> None:
        key = self._key(labels)
        with self._lock:
            counts = self._counts.setdefault(
                key, [0] * (len(self.buckets) + 1))
            for i, bound in enumerate(self.buckets):
                if value <= bound:
                    counts[i] += 1
                    break
            else:
                counts[-1] += 1
            self._sums[key] = self._sums.get(key, 0.0) + value

    def count(self, **labels: str) -> int:
        key = self._key(labels)
        with self._lock:
            return sum(self._counts.get(key, ()))

    def render(self) -> list[str]:
        lines = self.header()
        with self._lock:
            items = sorted(
                (key, list(counts), self._sums[key])
                for key, counts in self._counts.items()
            )
        for key, counts, total in items:
            cumulative = 0
            for bound, count in zip(
                    list(self.buckets) + [float("inf")], counts):
                cumulative += count
                le = (("le", _format_value(bound)),)
                lines.append(
                    f"{self.name}_bucket"
                    f"{_format_labels(self.labelnames, key, le)} "
                    f"{cumulative}"
                )
            lines.append(
                f"{self.name}_sum"
                f"{_format_labels(self.labelnames, key)} "
                f"{_format_value(total)}"
            )
            lines.append(
                f"{self.name}_count"
                f"{_format_labels(self.labelnames, key)} "
                f"{cumulative}"
            )
        return lines


class CallbackGaugeFamily(_Metric):
    """A labelled gauge family sampled at render time.

    ``callback`` returns ``{label value: number}``; every render emits
    one sample per entry, sorted by label value.  Used to surface the
    process-wide NLP memo-cache counters (:mod:`repro.memo`) without
    the service having to observe every cache lookup.
    """

    kind = "gauge"

    def __init__(self, name: str, help: str, labelname: str,
                 callback: Callable[[], dict[str, float]]) -> None:
        super().__init__(name, help, (labelname,))
        self._callback = callback

    def render(self) -> list[str]:
        lines = self.header()
        for value_label, value in sorted(self._callback().items()):
            lines.append(
                f"{self.name}"
                f"{_format_labels(self.labelnames, (value_label,))} "
                f"{_format_value(float(value))}"
            )
        return lines


class MetricsRegistry:
    """Holds instruments; renders the exposition document."""

    def __init__(self) -> None:
        self._metrics: list[_Metric] = []
        self._lock = threading.Lock()

    def register(self, metric: _Metric) -> Any:
        with self._lock:
            if any(m.name == metric.name for m in self._metrics):
                raise ValueError(f"duplicate metric {metric.name!r}")
            self._metrics.append(metric)
        return metric

    def counter(self, name: str, help: str,
                labelnames: Iterable[str] = ()) -> Counter:
        return self.register(Counter(name, help, labelnames))

    def gauge(self, name: str, help: str,
              callback: Callable[[], float] | None = None) -> Gauge:
        return self.register(Gauge(name, help, callback=callback))

    def histogram(self, name: str, help: str,
                  labelnames: Iterable[str] = (),
                  buckets: Iterable[float] = DEFAULT_BUCKETS,
                  ) -> Histogram:
        return self.register(Histogram(name, help, labelnames, buckets))

    def render(self) -> str:
        with self._lock:
            metrics = list(self._metrics)
        lines: list[str] = []
        for metric in metrics:
            lines.extend(metric.render())
        return "\n".join(lines) + "\n"


class ServiceMetrics:
    """The check service's instrument set over one registry.

    ``observe_stage`` has the
    :meth:`repro.pipeline.artifacts.PipelineStats.add_listener`
    signature, so a service wires its shared pipeline's counters
    straight into ``/metrics`` without touching stage behaviour.
    """

    def __init__(self,
                 registry: MetricsRegistry | None = None) -> None:
        self.registry = registry if registry is not None \
            else MetricsRegistry()
        r = self.registry
        self.requests = r.counter(
            "ppchecker_requests_total",
            "HTTP requests served, by endpoint and status code.",
            ("endpoint", "status"),
        )
        self.jobs = r.counter(
            "ppchecker_jobs_total",
            "Check jobs finished, by outcome "
            "(completed | quarantined).",
            ("status",),
        )
        self.coalesced = r.counter(
            "ppchecker_jobs_coalesced_total",
            "Submissions served by an existing in-flight or "
            "completed job with the same content hash.",
        )
        self.quarantined = r.counter(
            "ppchecker_quarantine_total",
            "Jobs whose check failed and was quarantined as a "
            "structured error payload.",
        )
        self.rejected = r.counter(
            "ppchecker_rejected_total",
            "Submissions rejected, by reason "
            "(queue_full | draining).",
            ("reason",),
        )
        self.evicted = r.counter(
            "ppchecker_jobs_evicted_total",
            "Completed jobs aged out of the LRU (their ids now "
            "answer 410 Gone).",
        )
        self.journal_records = r.counter(
            "ppchecker_journal_records_total",
            "Records appended to the write-ahead job journal, "
            "by record type.",
            ("type",),
        )
        self.journal_replayed = r.counter(
            "ppchecker_journal_replayed_total",
            "Journal records replayed during startup recovery.",
        )
        self.jobs_recovered = r.counter(
            "ppchecker_jobs_recovered_total",
            "Unfinished journaled jobs re-queued by startup recovery.",
        )
        self.jobs_deadlettered = r.counter(
            "ppchecker_jobs_deadlettered_total",
            "Jobs parked as poison pills after exhausting their "
            "redelivery budget.",
        )
        self.deadline_shed = r.counter(
            "ppchecker_deadline_shed_total",
            "Jobs shed because their request deadline expired "
            "before the work finished (at submit, at dequeue, or "
            "mid-check).",
        )
        self.stage_requests = r.counter(
            "ppchecker_stage_requests_total",
            "Pipeline stage lookups, by stage and outcome "
            "(execution | cache_hit | failure).",
            ("stage", "outcome"),
        )
        self.stage_latency = r.histogram(
            "ppchecker_stage_latency_seconds",
            "Pipeline stage wall time (cache hits included).",
            ("stage",),
        )

        def _cache_field(field_name: str) -> Callable[[], dict[str, float]]:
            def sample() -> dict[str, float]:
                from repro.memo import cache_stats

                return {name: float(row[field_name])
                        for name, row in cache_stats().items()}
            return sample

        self.nlp_cache_hits = r.register(CallbackGaugeFamily(
            "ppchecker_nlp_cache_hits",
            "NLP/ESA memo-cache hits since process start, by cache.",
            "cache", _cache_field("hits"),
        ))
        self.nlp_cache_misses = r.register(CallbackGaugeFamily(
            "ppchecker_nlp_cache_misses",
            "NLP/ESA memo-cache misses since process start, by cache.",
            "cache", _cache_field("misses"),
        ))
        self.nlp_cache_entries = r.register(CallbackGaugeFamily(
            "ppchecker_nlp_cache_entries",
            "Live entries in each NLP/ESA memo cache.",
            "cache", _cache_field("entries"),
        ))

    # -- late-bound gauges -------------------------------------------------

    def register_retry_budget(self, budget) -> None:
        """Expose a :class:`repro.pipeline.resilience.RetryBudget`'s
        live token count (only registered when a budget is
        configured, so an unlimited service renders no misleading
        gauge)."""
        self.registry.gauge(
            "ppchecker_retry_budget_remaining",
            "Tokens left in the shared retry budget; retries are "
            "denied when it reaches zero.",
            callback=lambda: budget.remaining,
        )

    def register_thread_ledger(self, stats) -> None:
        """Expose a :class:`repro.pipeline.artifacts.PipelineStats`'s
        abandoned stage-thread counters."""
        self.registry.gauge(
            "ppchecker_abandoned_threads",
            "Timed-out stage threads still running (cancellation "
            "asks them to unwind; bounded in a healthy process).",
            callback=lambda: stats.abandoned_threads,
        )
        self.registry.gauge(
            "ppchecker_abandoned_threads_total",
            "Stage threads ever abandoned by a timeout.",
            callback=lambda: stats.abandoned_threads_total,
        )

    # -- PipelineStats listener -------------------------------------------

    def observe_stage(self, stage: str, *, hit: bool, failed: bool,
                      seconds: float) -> None:
        outcome = ("failure" if failed
                   else "cache_hit" if hit else "execution")
        self.stage_requests.inc(stage=stage, outcome=outcome)
        self.stage_latency.observe(seconds, stage=stage)

    def render(self) -> str:
        return self.registry.render()


__all__ = [
    "DEFAULT_BUCKETS",
    "CallbackGaugeFamily",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "ServiceMetrics",
]
