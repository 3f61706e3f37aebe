"""Per-stage resilience: bounded retries, timeouts, deadlines, and
retry budgets.

Large compliance batches (the ROADMAP's longitudinal re-checking
workload) run over inputs where broken policies, truncated APKs, and
wedged analyses are the norm, so a stage execution must be allowed to
fail *bounded* -- retried a configurable number of times with
deterministic exponential backoff, cut off by a wall-clock timeout --
and then fail *loud but contained*: every terminal stage failure is a
:class:`StageError` carrying the stage name, the app/lib context, the
attempt count, and the original exception, which the batch layer turns
into a quarantine record instead of aborting the run.

Backoff jitter is seeded from the stage/digest/attempt triple, so two
runs of the same batch (serial or parallel) sleep the same schedule --
determinism is a repo-wide invariant the fault-injection suite checks.

Two brownout primitives ride on top of the per-stage policy:

- :class:`Deadline` -- a request-level wall-clock budget.  Callers
  open a :func:`deadline_scope` around a check; every stage attempt
  inside it clamps its timeout to the *remaining* budget, backoff
  sleeps never overshoot it, and an exhausted budget fails fast with
  :class:`DeadlineExceeded` instead of burning pipeline work.
- :class:`RetryBudget` -- a token bucket shared across a whole
  service or cluster front.  Each retry (or reroute) must win a
  token; when the bucket is dry, retries stop immediately so a
  brownout does not amplify into a retry storm.

Timed-out stage threads cannot be killed (Python), but they are no
longer silently leaked either: :func:`call_with_timeout` arms a
per-thread cancellation event that cooperative stages (and injected
``hang``/``slow`` faults) poll via :func:`cancel_requested`, and an
optional ledger (:class:`repro.pipeline.artifacts.PipelineStats`)
counts threads that are currently abandoned vs. reclaimed.
"""

from __future__ import annotations

import contextlib
import random
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Iterator, Protocol

from repro.hashing import fingerprint


class PipelineError(Exception):
    """Base class for pipeline execution failures."""


class StageTimeout(PipelineError):
    """A stage execution exceeded its wall-clock budget."""

    def __init__(self, stage: str, context: str,
                 timeout: float) -> None:
        self.stage = stage
        self.context = context
        self.timeout = timeout
        super().__init__(
            f"{context or '<no context>'}: stage {stage!r} exceeded "
            f"its {timeout:g}s timeout"
        )


class StageCancelled(PipelineError):
    """Raised inside an abandoned stage thread when it observes the
    cancellation event -- the thread unwinds instead of running its
    doomed work to completion."""


class DeadlineExceeded(PipelineError):
    """A request-level deadline ran out before the work finished."""

    def __init__(self, stage: str = "", context: str = "") -> None:
        self.stage = stage
        self.context = context
        where = f" at stage {stage!r}" if stage else ""
        super().__init__(
            f"{context or '<no context>'}: deadline exhausted{where}"
        )


class StageError(PipelineError):
    """Terminal failure of one stage for one app/lib.

    ``stage`` is the pipeline stage name, ``context`` the package or
    lib id being processed, ``attempts`` how many executions were
    tried; the original exception rides along as ``__cause__``.
    """

    def __init__(self, stage: str, context: str,
                 cause: BaseException, attempts: int = 1) -> None:
        self.stage = stage
        self.context = context
        self.attempts = attempts
        super().__init__(
            f"{context or '<no context>'}: stage {stage!r} failed "
            f"after {attempts} attempt(s): {cause!r}"
        )
        self.__cause__ = cause


def is_deadline_error(exc: BaseException | None) -> bool:
    """Whether *exc* (or anything on its cause chain) is a
    :class:`DeadlineExceeded` -- the service uses this to shed a job
    instead of quarantining it."""
    seen: set[int] = set()
    while exc is not None and id(exc) not in seen:
        if isinstance(exc, DeadlineExceeded):
            return True
        seen.add(id(exc))
        exc = exc.__cause__ or exc.__context__
    return False


# -- deadlines -------------------------------------------------------------


class Deadline:
    """An absolute wall-clock budget (monotonic under the hood).

    Built once at the request edge (HTTP header, CLI flag) and carried
    by reference through ``Job`` -> ``PipelineRunner`` ->
    :class:`RetryPolicy`, so every layer derives its own timeout from
    the single *remaining* budget instead of stacking fixed ones.
    """

    __slots__ = ("expires_at", "budget", "clock")

    def __init__(self, expires_at: float, *, budget: float | None = None,
                 clock: Callable[[], float] = time.monotonic) -> None:
        self.expires_at = expires_at
        #: the original relative budget in seconds, when known
        #: (surfaced in shed payloads)
        self.budget = budget
        self.clock = clock

    @classmethod
    def after(cls, seconds: float, *,
              clock: Callable[[], float] = time.monotonic,
              ) -> "Deadline":
        return cls(clock() + seconds, budget=seconds, clock=clock)

    def remaining(self) -> float:
        """Seconds left; negative once expired."""
        return self.expires_at - self.clock()

    @property
    def expired(self) -> bool:
        return self.remaining() <= 0.0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Deadline(remaining={self.remaining():.3f}s)"


_deadline_local = threading.local()


def current_deadline() -> Deadline | None:
    """The ambient deadline of the calling thread, if any."""
    return getattr(_deadline_local, "deadline", None)


@contextlib.contextmanager
def deadline_scope(deadline: Deadline | None) -> Iterator[None]:
    """Make *deadline* ambient for the calling thread.  ``None`` is a
    no-op scope, so call sites need no conditional."""
    if deadline is None:
        yield
        return
    previous = current_deadline()
    _deadline_local.deadline = deadline
    try:
        yield
    finally:
        _deadline_local.deadline = previous


# -- cancellation ----------------------------------------------------------

_cancel_local = threading.local()


def cancel_requested() -> bool:
    """Whether the calling stage thread has been abandoned by its
    timeout guard.  Cooperative stages poll this at loop/fault
    boundaries and raise :class:`StageCancelled` to unwind."""
    event = getattr(_cancel_local, "event", None)
    return event is not None and event.is_set()


def sleep_cancellable(seconds: float, *,
                      interval: float = 0.02) -> None:
    """``time.sleep(seconds)`` that polls the cancellation event every
    *interval* seconds and raises :class:`StageCancelled` when the
    owning :func:`call_with_timeout` has given up on this thread.
    The fault kinds (``hang``/``slow``) sleep through this, which is
    what lets abandoned stage threads be reclaimed."""
    event = getattr(_cancel_local, "event", None)
    if event is None:
        time.sleep(seconds)
        return
    end = time.monotonic() + seconds
    while True:
        if event.is_set():
            raise StageCancelled("stage thread cancelled mid-sleep")
        left = end - time.monotonic()
        if left <= 0:
            return
        event.wait(min(interval, left))
    # unreachable


class ThreadLedger(Protocol):
    """Anything that counts abandoned stage threads
    (:class:`repro.pipeline.artifacts.PipelineStats` implements it)."""

    def thread_abandoned(self) -> None: ...

    def thread_reclaimed(self) -> None: ...


def call_with_timeout(
    fn: Callable[[], Any],
    timeout: float | None,
    *,
    stage: str = "",
    context: str = "",
    ledger: ThreadLedger | None = None,
) -> Any:
    """``fn()``, bounded by *timeout* seconds (``None`` = unbounded).

    The callable runs on a daemon thread; on timeout the thread is
    abandoned (Python cannot kill it) and :class:`StageTimeout` is
    raised.  The abandoned thread is armed with a cancellation event
    (:func:`cancel_requested`) so cooperative code inside it can
    unwind at its next poll point, and *ledger* -- when given --
    counts the abandon/reclaim pair, keeping the live leak observable
    and testable.  A non-positive timeout fails immediately without
    spawning a thread (an exhausted deadline must not burn work).
    """
    if timeout is None:
        return fn()
    if timeout <= 0:
        raise StageTimeout(stage, context, timeout)
    box: dict[str, Any] = {}
    cancel = threading.Event()
    state = {"abandoned": False, "done": False}
    state_lock = threading.Lock()

    def runner() -> None:
        _cancel_local.event = cancel
        try:
            box["value"] = fn()
        except BaseException as exc:  # noqa: BLE001 - re-raised below
            box["error"] = exc
        finally:
            _cancel_local.event = None
            with state_lock:
                state["done"] = True
                if state["abandoned"] and ledger is not None:
                    ledger.thread_reclaimed()

    thread = threading.Thread(
        target=runner, daemon=True,
        name=f"stage-{stage or 'anon'}",
    )
    thread.start()
    thread.join(timeout)
    if thread.is_alive():
        cancel.set()
        with state_lock:
            if not state["done"]:
                state["abandoned"] = True
                if ledger is not None:
                    ledger.thread_abandoned()
        raise StageTimeout(stage, context, timeout)
    if "error" in box:
        raise box["error"]
    return box["value"]


# -- retry budget ----------------------------------------------------------


class RetryBudget:
    """A thread-safe token bucket bounding how many retries a whole
    process may issue.

    Every retry (and, at the cluster front, every reroute) must
    :meth:`try_acquire` a token first; a dry bucket denies the retry
    outright, so a browned-out dependency sees load *shrink* instead
    of multiplying.  Refill is continuous at ``refill_rate`` tokens
    per second up to ``capacity``.  The clock is injectable so the
    property suite can drive it deterministically.
    """

    def __init__(self, capacity: float = 10.0,
                 refill_rate: float = 1.0, *,
                 clock: Callable[[], float] = time.monotonic) -> None:
        if capacity <= 0:
            raise ValueError("capacity must be > 0")
        if refill_rate < 0:
            raise ValueError("refill_rate must be >= 0")
        self.capacity = float(capacity)
        self.refill_rate = float(refill_rate)
        self.clock = clock
        self._tokens = float(capacity)
        self._updated = clock()
        self._lock = threading.Lock()
        self._denied = 0

    def _refill_locked(self) -> None:
        now = self.clock()
        elapsed = now - self._updated
        if elapsed > 0:
            self._tokens = min(self.capacity,
                               self._tokens + elapsed * self.refill_rate)
        self._updated = now

    def try_acquire(self, tokens: float = 1.0) -> bool:
        """Take *tokens* if available; ``False`` (and no side effect
        beyond the denial counter) otherwise."""
        with self._lock:
            self._refill_locked()
            if self._tokens >= tokens:
                self._tokens -= tokens
                return True
            self._denied += 1
            return False

    @property
    def remaining(self) -> float:
        """Tokens currently in the bucket (refreshes refill first)."""
        with self._lock:
            self._refill_locked()
            return self._tokens

    @property
    def denied(self) -> int:
        """Retries refused since construction."""
        with self._lock:
            return self._denied

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"RetryBudget(remaining={self.remaining:.2f}/"
                f"{self.capacity:g})")


@dataclass
class RetryPolicy:
    """How hard one stage execution tries before giving up.

    ``max_retries`` extra attempts follow a failed first one; between
    attempts the policy sleeps an exponential backoff with jitter
    seeded from ``(seed, stage, digest, attempt)`` -- fully
    deterministic, so retrying batches stay reproducible.
    ``stage_timeout`` bounds every attempt's wall clock (None =
    unbounded, the default).

    When an ambient :class:`Deadline` is in scope (or passed
    explicitly), each attempt's timeout is clamped to the remaining
    budget, backoff never sleeps past it, and an exhausted budget
    raises :class:`StageError` wrapping :class:`DeadlineExceeded`.
    When a :class:`RetryBudget` is attached, each retry must win a
    token; a dry bucket ends the attempt loop immediately.
    """

    max_retries: int = 0
    stage_timeout: float | None = None
    backoff_base: float = 0.05
    backoff_multiplier: float = 2.0
    jitter: float = 0.1
    seed: int = 0
    #: injectable for tests; real runs sleep for real
    sleep: Callable[[float], None] = field(default=time.sleep,
                                           repr=False, compare=False)
    #: optional process-wide token bucket consulted before each retry
    budget: RetryBudget | None = field(default=None, repr=False,
                                       compare=False)

    def delay_for(self, stage: str, digest: str,
                  attempt: int) -> float:
        """The backoff before retrying *attempt* (1-based) -- a pure
        function of the policy and the stage/digest/attempt triple."""
        if self.backoff_base <= 0:
            return 0.0
        base = self.backoff_base * self.backoff_multiplier ** (attempt - 1)
        rng = random.Random(
            fingerprint([self.seed, stage, digest, attempt])
        )
        return base * (1.0 + self.jitter * rng.random())

    def backoff_for(self, stage: str, digest: str, attempt: int,
                    remaining: float | None = None) -> float:
        """The backoff actually slept: :meth:`delay_for` clamped to
        *remaining* deadline seconds (never negative) -- sleeping past
        the request's budget would be pure waste."""
        delay = self.delay_for(stage, digest, attempt)
        if remaining is not None:
            delay = min(delay, max(0.0, remaining))
        return delay

    def _attempt_timeout(self, deadline: Deadline | None,
                         ) -> float | None:
        if deadline is None:
            return self.stage_timeout
        remaining = deadline.remaining()
        if self.stage_timeout is None:
            return remaining
        return min(self.stage_timeout, remaining)

    def execute(
        self,
        fn: Callable[[], Any],
        *,
        stage: str,
        context: str = "",
        digest: str = "",
        deadline: Deadline | None = None,
        ledger: ThreadLedger | None = None,
    ) -> Any:
        """Run *fn* under the policy; terminal failure raises
        :class:`StageError` wrapping the last exception.  *deadline*
        defaults to the ambient :func:`current_deadline`."""
        if deadline is None:
            deadline = current_deadline()
        attempts = self.max_retries + 1
        last: BaseException | None = None
        for attempt in range(1, attempts + 1):
            if deadline is not None and deadline.expired:
                raise StageError(
                    stage, context, DeadlineExceeded(stage, context),
                    attempts=attempt - 1 or 1)
            try:
                return call_with_timeout(
                    fn, self._attempt_timeout(deadline),
                    stage=stage, context=context, ledger=ledger,
                )
            except Exception as exc:  # noqa: BLE001 - policy boundary
                last = exc
                if attempt < attempts:
                    if self.budget is not None \
                            and not self.budget.try_acquire():
                        # retry storm guard: the shared budget is
                        # dry, so this failure is terminal now
                        raise StageError(stage, context, last,
                                         attempts=attempt)
                    remaining = (deadline.remaining()
                                 if deadline is not None else None)
                    self.sleep(self.backoff_for(
                        stage, digest, attempt, remaining))
        assert last is not None
        raise StageError(stage, context, last, attempts=attempts)


__all__ = [
    "PipelineError",
    "StageTimeout",
    "StageCancelled",
    "StageError",
    "Deadline",
    "DeadlineExceeded",
    "RetryBudget",
    "call_with_timeout",
    "cancel_requested",
    "current_deadline",
    "deadline_scope",
    "is_deadline_error",
    "sleep_cancellable",
    "RetryPolicy",
]
