"""Order statistics and the open-loop step rules.

Every rule the benchmark reports a number by lives here, so the
benchmark's own tests can pin them: the percentile rule, timing from
the due time, lag growth, the ``max_rps`` step rule, and the
capacity rule behind the serving workloads' ``apps_per_s``.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass

#: the percentiles the tail rule may pick from, highest first
TAIL_CANDIDATES = (99.9, 99.5, 99.0, 95.0, 90.0, 75.0, 50.0)
#: a tail percentile is reported only with this many samples beyond it
MIN_BEYOND = 10
#: ``max_rps`` admits a ladder step only when its p99 is within this
LATENCY_LIMIT_MS = 250.0
#: lag "grows" over a step when the last third of its requests start
#: this much later (median) than the first third did
LAG_GROWTH_MS = 25.0

#: metric names: dotted lowercase words, digits and ``_``, at most 64
NAME_RE = re.compile(r"^[a-z0-9][a-z0-9_]*(\.[a-z0-9][a-z0-9_]*)*$")


def valid_metric_name(name: str) -> bool:
    return len(name) <= 64 and NAME_RE.match(name) is not None


def _rank(n: int, q: float) -> int:
    """1-based nearest rank of percentile *q* among *n* samples
    (rounded first, so 99.9% of 10,000 is rank 9,990, not 9,991)."""
    return min(n, max(1, math.ceil(round(q / 100.0 * n, 9))))


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile *q* (0-100] of *values*."""
    if not values:
        raise ValueError("percentile of no samples")
    return sorted(values)[_rank(len(values), q) - 1]


def beyond(n: int, q: float) -> int:
    """How many of *n* samples lie above the nearest-rank *q*."""
    return n - _rank(n, q)


def tail_percentile(n: int) -> float | None:
    """The highest candidate percentile with at least
    :data:`MIN_BEYOND` of *n* samples beyond it (None: too few)."""
    for q in TAIL_CANDIDATES:
        if beyond(n, q) >= MIN_BEYOND:
            return q
    return None


def median(values: list[float]) -> float:
    ordered = sorted(values)
    mid = len(ordered) // 2
    if len(ordered) % 2:
        return ordered[mid]
    return (ordered[mid - 1] + ordered[mid]) / 2.0


@dataclass
class Sample:
    """One open-loop request: when it was due, sent and answered."""

    due: float
    sent: float
    done: float
    ok: bool

    @property
    def latency(self) -> float:
        """Seconds from the due time -- a stall that delays later
        sends is charged to every request it delays."""
        return self.done - self.due

    @property
    def lag(self) -> float:
        """Seconds the generator sent behind its schedule."""
        return self.sent - self.due


def lag_grows(samples: list[Sample]) -> bool:
    """True when the generator fell further behind over the step."""
    ordered = sorted(samples, key=lambda s: s.due)
    third = len(ordered) // 3
    if third == 0:
        return False
    first = median([s.lag for s in ordered[:third]])
    last = median([s.lag for s in ordered[-third:]])
    return (last - first) * 1000.0 > LAG_GROWTH_MS


@dataclass
class StepResult:
    rate: float
    requests: int
    failed: int
    p99_ms: float
    lag_growing: bool
    achieved_rps: float

    @property
    def passed(self) -> bool:
        return (self.failed == 0 and not self.lag_growing
                and self.p99_ms <= LATENCY_LIMIT_MS)


def step_result(rate: float, segments: list[list[Sample]]) -> StepResult:
    """Score one ladder step, sent in one or more segments; failed
    requests count against the latency limit (a refusal misses it by
    definition), and the achieved rate counts only the time inside
    the segments."""
    samples = [s for segment in segments for s in segment]
    failed = sum(1 for s in samples if not s.ok)
    lat = [math.inf if not s.ok else s.latency * 1000.0
           for s in samples]
    span = sum(max(s.done for s in segment) - min(s.due for s in segment)
               for segment in segments if segment)
    ok = len(samples) - failed
    return StepResult(
        rate=rate, requests=len(samples), failed=failed,
        p99_ms=percentile(lat, 99.0), lag_growing=lag_grows(samples),
        achieved_rps=ok / span if span > 0 else 0.0)


def max_rps(steps: list[StepResult]) -> float:
    """The rate the service sustained at the highest ladder step that
    passed -- completions per second over that step, so the figure is
    measured rather than the step's nominal rate (0.0 when no step
    passed).  A pass above a failed step still counts: the rule names
    the highest passing step."""
    passing = [step for step in steps if step.passed]
    if not passing:
        return 0.0
    return max(passing, key=lambda step: step.rate).achieved_rps


def window_rates(samples: list[Sample], windows: int) -> list[float]:
    """Completions per second in *windows* consecutive windows of one
    closed-loop burst, each holding an equal share of the answered
    requests in the order they were answered.  A window runs from the
    previous window's last answer (the burst's first send for the
    first window) to its own last answer."""
    done = sorted(s.done for s in samples if s.ok)
    if not done:
        return [0.0]
    windows = max(1, min(windows, len(done)))
    edge = min(s.sent for s in samples)
    rates = []
    for k in range(windows):
        group = done[k * len(done) // windows:
                     (k + 1) * len(done) // windows]
        span = group[-1] - edge
        rates.append(len(group) / span if span > 0 else 0.0)
        edge = group[-1]
    return rates


def capacity_rps(bursts: list[list[Sample]], windows: int) -> float:
    """The median window rate over every closed-loop burst, *windows*
    windows to a burst: a stretch of slow host CPU slows some windows
    and leaves the median alone."""
    return median([rate for burst in bursts
                   for rate in window_rates(burst, windows)])


def self_time(span: tuple[float, float],
              children: list[tuple[float, float]]) -> float:
    """*span*'s duration minus the part of it its children cover.
    Children may overlap each other (threads, hedges) and may stick
    out of the parent; only the covered part of the parent counts."""
    start, end = span
    clipped = sorted((max(start, a), min(end, b))
                     for a, b in children if b > start and a < end)
    covered = 0.0
    cur_a = cur_b = None
    for a, b in clipped:
        if cur_b is None or a > cur_b:
            if cur_b is not None:
                covered += cur_b - cur_a
            cur_a, cur_b = a, b
        else:
            cur_b = max(cur_b, b)
    if cur_b is not None:
        covered += cur_b - cur_a
    return (end - start) - covered


def overlap(a: tuple[float, float], b: tuple[float, float]) -> float:
    return max(0.0, min(a[1], b[1]) - max(a[0], b[0]))
