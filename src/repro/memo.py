"""Process-wide memoization for the NLP/ESA hot paths.

The matching algorithms (Algs. 1-5) call ``EsaModel.similarity`` once
per (information surface, policy phrase) pair and re-parse every
policy sentence once per stage.  At study scale the same phrases and
sentences recur across thousands of apps, so both computations are
overwhelmingly redundant.  This module provides the shared cache
primitive those hot paths memoize through:

- :class:`MemoCache` -- a bounded, thread-safe LRU with hit/miss
  counters, registered in a process-wide registry so
  :meth:`repro.pipeline.artifacts.PipelineStats.nlp_caches` and the
  service ``/metrics`` endpoint can surface cache effectiveness.
- :func:`clear_caches` -- empty every live cache (test isolation and
  cold benchmark phases).

The caches are exact: a hit returns the very value a miss would have
computed.  The test suite checks this by running the pipeline with
:meth:`MemoCache.get` forced to miss (the ``no_memo`` fixture in
``tests/conftest.py``) and byte-comparing the output.

Caches hold values that callers treat as immutable (interpretation
vectors, inverted-index views, parsed dependency trees); nothing in the
pipeline mutates a cached object after construction.
"""

from __future__ import annotations

import threading
import weakref
from collections import OrderedDict
from typing import Any, Hashable

#: sentinel distinguishing "never cached" from a cached ``None``
MISS = object()

_registry: list["weakref.ref[MemoCache]"] = []
_registry_lock = threading.Lock()


class MemoCache:
    """A bounded, thread-safe LRU with hit/miss counters.

    ``get`` returns :data:`MISS` when the key is absent.  Caches
    register themselves by name; :func:`cache_stats` aggregates live
    caches per name.
    """

    def __init__(self, name: str, max_entries: int = 65536) -> None:
        self.name = name
        self.max_entries = max_entries
        self.hits = 0
        self.misses = 0
        self._entries: OrderedDict[Hashable, Any] = OrderedDict()
        self._lock = threading.Lock()
        with _registry_lock:
            _registry.append(weakref.ref(self))

    def get(self, key: Hashable) -> Any:
        with self._lock:
            if key not in self._entries:
                self.misses += 1
                return MISS
            self.hits += 1
            self._entries.move_to_end(key)
            return self._entries[key]

    def put(self, key: Hashable, value: Any) -> None:
        with self._lock:
            self._entries[key] = value
            self._entries.move_to_end(key)
            while len(self._entries) > self.max_entries:
                self._entries.popitem(last=False)

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def clear(self) -> None:
        """Drop all entries and reset the counters."""
        with self._lock:
            self._entries.clear()
            self.hits = 0
            self.misses = 0

    def stats(self) -> dict[str, int]:
        with self._lock:
            return {
                "hits": self.hits,
                "misses": self.misses,
                "entries": len(self._entries),
                "max_entries": self.max_entries,
            }


def _live_caches() -> list[MemoCache]:
    with _registry_lock:
        alive: list[MemoCache] = []
        dead: list[weakref.ref[MemoCache]] = []
        for ref in _registry:
            cache = ref()
            if cache is None:
                dead.append(ref)
            else:
                alive.append(cache)
        for ref in dead:
            _registry.remove(ref)
    return alive


def cache_stats() -> dict[str, dict[str, int]]:
    """Aggregated counters per cache name, over all live caches.

    Multiple caches may share a name (every :class:`EsaModel` instance
    owns its own interpretation cache); their counters sum.  Cache
    subclasses may report extra counters (e.g. the compiled-KB
    artifact loader's ``warnings``); any numeric key beyond
    ``max_entries`` sums like the standard ones.
    """
    out: dict[str, dict[str, int]] = {}
    for cache in _live_caches():
        row = out.setdefault(cache.name, {
            "hits": 0, "misses": 0, "entries": 0, "max_entries": 0,
        })
        stats = cache.stats()
        for key, value in stats.items():
            if key == "max_entries":
                row[key] = max(row[key], value)
            else:
                row[key] = row.get(key, 0) + value
    return {name: out[name] for name in sorted(out)}


def clear_caches() -> None:
    """Empty every live cache and reset its counters (test isolation
    and the cold-phase of the benchmark harness)."""
    for cache in _live_caches():
        cache.clear()


__all__ = [
    "MISS",
    "MemoCache",
    "cache_stats",
    "clear_caches",
]
