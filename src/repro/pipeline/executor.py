"""Batch fan-out with deterministic result ordering.

``BatchExecutor.map`` is the primitive behind
:meth:`repro.core.checker.PPChecker.check_batch` (and so
``repro.cli batch-check``): apply a function to every item, return
results in *input* order regardless of completion order, run serially
when ``workers <= 1`` so the default path is byte-identical to the
pre-pipeline behaviour.

A worker exception surfaces as :class:`BatchItemError` naming the
failing item's index (and a truncated repr of the item); the original
exception rides along as ``__cause__``.  The study raises the same
error for its first failing corpus index under ``keep_going=False``.

Workers are threads: checker objects (closures over lib-policy
sources, shared artifact stores) do not need to pickle, and the
artifact store plus stats counters are shared and lock-protected.
"""

from __future__ import annotations

import concurrent.futures
import reprlib
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence, TypeVar

T = TypeVar("T")
R = TypeVar("R")


class BatchItemError(RuntimeError):
    """``fn(items[index])`` raised; the cause is ``__cause__``."""

    def __init__(self, index: int, item: object,
                 cause: BaseException) -> None:
        self.index = index
        self.item = item
        super().__init__(
            f"batch item {index} ({reprlib.repr(item)}) failed: "
            f"{cause!r}"
        )


@dataclass
class BatchExecutor:
    """Maps a function over items with bounded parallelism."""

    workers: int = 1

    def map(self, fn: Callable[[T], R],
            items: Iterable[T]) -> list[R]:
        """``[fn(item) for item in items]``, possibly in parallel;
        result order always matches input order.  The first failing
        item (by input order) raises :class:`BatchItemError`."""
        todo: Sequence[T] = list(items)
        workers = max(1, min(self.workers, len(todo) or 1))
        if workers == 1:
            results = []
            for index, item in enumerate(todo):
                try:
                    results.append(fn(item))
                except Exception as exc:
                    raise BatchItemError(index, item, exc) from exc
            return results
        # submit per item (not pool.map) so a failure still knows its
        # index; futures are drained in input order.
        with concurrent.futures.ThreadPoolExecutor(
                max_workers=workers) as pool:
            futures = [pool.submit(fn, item) for item in todo]
            results = []
            for index, future in enumerate(futures):
                try:
                    results.append(future.result())
                except Exception as exc:
                    raise BatchItemError(index, todo[index],
                                         exc) from exc
            return results


__all__ = ["BatchExecutor", "BatchItemError"]
