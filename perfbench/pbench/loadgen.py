"""Open-loop load generator over :class:`repro.service.ServiceClient`.

At most :data:`THREADS` threads, each holding at most one connection,
send the requests of a phase.  Request ``i`` is due at
``start + i / rate``; a thread that is free sleeps until the due time,
and a thread that is late sends at once.  Latency is timed from the
due time, so a stall is charged to every request it delays, and the
lag (send time minus due time) shows how far the generator fell
behind.  ``rate=None`` sends back to back (warm-up and prefill).
"""

from __future__ import annotations

import gc
import itertools
import threading
import time
from http.client import HTTPException
from typing import Any, Callable

from pbench.stats import Sample

THREADS = 2


def run_phase(send: Callable[[Any], Any], requests: list[Any],
              rate: float | None, threads: int = THREADS,
              ) -> tuple[list[Sample], list[Any]]:
    """Send every request; ``(samples, results)`` in request order.
    A result is the decoded answer, or the exception that failed it."""
    from repro.service import ServiceError

    n = len(requests)
    samples: list[Sample | None] = [None] * n
    results: list[Any] = [None] * n
    counter = itertools.count()
    start = 0.0  # set once the threads are ready to go

    def worker() -> None:
        while True:
            i = next(counter)
            if i >= n:
                return
            if rate is None:
                due = time.monotonic()
            else:
                due = start + i / rate
                delay = due - time.monotonic()
                if delay > 0:
                    time.sleep(delay)
            sent = time.monotonic()
            try:
                results[i] = send(requests[i])
                ok = True
            except (ServiceError, OSError, HTTPException,
                    ValueError) as exc:
                results[i] = exc
                ok = False
            samples[i] = Sample(due=due, sent=sent,
                                done=time.monotonic(), ok=ok)

    pool = [threading.Thread(target=worker, name=f"loadgen-{k}")
            for k in range(threads)]
    # the generator's own collector must not stall sends: the bundles
    # and references it holds make its full collections slow
    gc.collect()
    gc.disable()
    try:
        start = time.monotonic() + 0.01
        for thread in pool:
            thread.start()
        for thread in pool:
            thread.join()
    finally:
        gc.enable()
    return samples, results  # type: ignore[return-value]
