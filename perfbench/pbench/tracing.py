"""In-memory spans around the public functions of each layer.

:func:`install` wraps the functions listed in :data:`PATCHES` (and
registers a :mod:`gc` callback) in the current process; nothing under
``src/`` changes.  Every wrapped call records one span -- id, parent
id, name, start, end and a small tag (job id, package, cache hit) --
into a list kept in memory; :meth:`Tracer.dump` writes it out once,
when the process ends.  Times are ``time.monotonic()``, one clock
shared by every process on the host, so spans from the server and the
load generator can be linked per request.
"""

from __future__ import annotations

import gc
import importlib
import itertools
import json
import os
import threading
import time
from typing import Any, Callable

from repro.memo import cache_stats
from repro.pipeline.artifacts import MISS

# tag functions: (args, result) -> JSON-able tag, or DROP to skip the
# span (a queue poll that timed out carries no job)
DROP = object()


def _job_tag(args: tuple, result: Any) -> Any:
    job, coalesced = result
    return [job.id, job.package, bool(coalesced)]


def _put_tag(args: tuple, result: Any) -> Any:
    return args[1].id


def _get_tag(args: tuple, result: Any) -> Any:
    return DROP if result is None else result.id


def _run_tag(args: tuple, result: Any) -> Any:
    return [args[1].id, args[1].package]


def _package_tag(args: tuple, result: Any) -> Any:
    return args[1].package


def _store_get_tag(args: tuple, result: Any) -> Any:
    return [args[1], result is not MISS]


def _stage_tag(args: tuple, result: Any) -> Any:
    return args[1]


def _proxy_tag(args: tuple, result: Any) -> Any:
    doc = args[4] if len(args) > 4 else None
    return doc.get("package") if isinstance(doc, dict) else None


def _materialize(fn: Callable) -> Callable:
    """``select_sentences`` is a generator: run it to completion
    inside its span so the span covers the selection work."""
    def eager(*args: Any, **kwargs: Any) -> Any:
        return iter(list(fn(*args, **kwargs)))
    return eager


#: (module, attribute path, span name, tag function, adapter)
PATCHES: tuple[tuple[str, str, str, Callable | None,
                     Callable | None], ...] = (
    ("repro.corpus.appstore", "CorpusSpec.app", "corpus.app",
     None, None),
    ("repro.core.checker", "PPChecker.check", "pipeline.check",
     _package_tag, None),
    ("repro.policy.analyzer", "PolicyAnalyzer.analyze",
     "policy.analyze", None, None),
    ("repro.policy.analyzer", "html_to_text", "nlp.html_to_text",
     None, None),
    ("repro.policy.analyzer", "split_sentences", "nlp.split_sentences",
     None, None),
    ("repro.policy.analyzer", "select_sentences",
     "policy.select_sentences", None, _materialize),
    ("repro.policy.selection", "parse", "nlp.parse", None, None),
    ("repro.pipeline.pipeline", "analyze_apk", "android.analyze_apk",
     None, None),
    ("repro.description.autocog", "AutoCog.infer_permissions",
     "description.infer", None, None),
    ("repro.pipeline.pipeline", "detect_incomplete_via_description",
     "core.detect", None, None),
    ("repro.pipeline.pipeline", "detect_incomplete_via_code",
     "core.detect", None, None),
    ("repro.pipeline.pipeline", "detect_incorrect_via_description",
     "core.detect", None, None),
    ("repro.pipeline.pipeline", "detect_incorrect_via_code",
     "core.detect", None, None),
    ("repro.pipeline.pipeline", "detect_inconsistent", "core.detect",
     None, None),
    ("repro.pipeline.stages", "fingerprint", "pipeline.fingerprint",
     None, None),
    ("repro.pipeline.artifacts", "MemoryStore.get",
     "pipeline.store_get", _store_get_tag, None),
    ("repro.pipeline.artifacts", "MemoryStore.put",
     "pipeline.store_put", _stage_tag, None),
    ("repro.service.server", "CheckService.submit", "service.submit",
     _job_tag, None),
    ("repro.service.jobs", "JobQueue.put", "service.queue_put",
     _put_tag, None),
    ("repro.service.jobs", "JobQueue.get", "service.queue_get",
     _get_tag, None),
    ("repro.service.runner", "PipelineRunner.run", "service.run",
     _run_tag, None),
    ("repro.service.cluster", "ClusterFront.proxy", "front.proxy",
     _proxy_tag, None),
)


class Tracer:
    """Span recorder for one process."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self.gc_pauses: list[tuple[float, float, int]] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._gc_started = 0.0

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name: str, fn: Callable,
             tag: Callable | None = None) -> Callable:
        spans = self.spans
        ids = self._ids
        stack_of = self._stack
        clock = time.monotonic

        def traced(*args: Any, **kwargs: Any) -> Any:
            stack = stack_of()
            span_id = next(ids)
            parent = stack[-1] if stack else 0
            stack.append(span_id)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
            label = None if tag is None else tag(args, result)
            if label is not DROP:
                spans.append((span_id, parent, name, start, end, label))
            return result

        traced.__wrapped__ = fn
        return traced

    def _on_gc(self, phase: str, info: dict) -> None:
        if phase == "start":
            self._gc_started = time.monotonic()
        else:
            self.gc_pauses.append((self._gc_started, time.monotonic(),
                                   info["generation"]))

    def install(self) -> None:
        """Wrap every entry of :data:`PATCHES` and watch the GC."""
        for module_name, path, name, tag, adapter in PATCHES:
            owner: Any = importlib.import_module(module_name)
            *parents, attr = path.split(".")
            for part in parents:
                owner = getattr(owner, part)
            fn = getattr(owner, attr)
            if adapter is not None:
                fn = adapter(fn)
            setattr(owner, attr, self.wrap(name, fn, tag))
        gc.callbacks.append(self._on_gc)

    def dump(self, path: str, extra: dict | None = None) -> None:
        """Write the spans out (once, at the end of the process)."""
        doc = {"pid": os.getpid(), "spans": self.spans,
               "gc": self.gc_pauses, "memo": cache_stats(),
               "extra": extra or {}}
        tmp = path + ".tmp"
        with open(tmp, "w", encoding="utf-8") as handle:
            json.dump(doc, handle, separators=(",", ":"))
        os.replace(tmp, path)


def load(path: str) -> dict:
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)
