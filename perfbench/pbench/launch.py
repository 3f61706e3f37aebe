"""Entry point of every process under test.

``python -m pbench.launch [--trace-out PATH] MODE ...``:

- ``serve ARGS...`` runs ``ppchecker serve ARGS...`` through the CLI
  entry point (:func:`repro.cli.main`);
- ``study --seed S --apps N --result PATH`` runs the in-process
  streaming study over apps ``0..N-1`` with a fresh checker and empty
  memo caches, and writes its figures to PATH;
- ``first-check --seed S`` imports the package, checks one app and
  prints ``ready`` (the study's set-up probe);
- ``reference --docs IN --result OUT`` writes the in-process
  ``PPChecker.check`` report of every bundle document in IN.

With ``--trace-out`` the layer wrappers of :mod:`pbench.tracing` are
installed before the mode starts and the spans are written to PATH
when it ends.
"""

from __future__ import annotations

import argparse
import json
import sys
import time


def vm_hwm_kb(pid: int | str = "self") -> int:
    """Peak resident set size of *pid* in KiB (Linux ``VmHWM``)."""
    with open(f"/proc/{pid}/status", encoding="utf-8") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError(f"no VmHWM for pid {pid}")


def first_check(seed: int) -> None:
    from repro.core.checker import PPChecker
    from repro.corpus.appstore import CorpusSpec

    spec = CorpusSpec(seed=seed)
    PPChecker(lib_policy_source=spec.lib_policy).check(
        spec.app(0).bundle)
    print("ready", flush=True)


def reference(docs_path: str, result_path: str) -> None:
    """``PPChecker.check`` over bundle documents, reports in order."""
    from repro.android.serialization import bundle_from_dict
    from repro.core.checker import PPChecker
    from repro.corpus.appstore import CorpusSpec

    with open(docs_path, encoding="utf-8") as handle:
        docs = json.load(handle)
    checker = PPChecker(lib_policy_source=CorpusSpec().lib_policy)
    reports = [checker.check(bundle_from_dict(doc)).to_dict()
               for doc in docs]
    with open(result_path, "w", encoding="utf-8") as handle:
        json.dump(reports, handle)


def study(seed: int, apps: int, result_path: str, tracer) -> dict:
    from repro.core.checker import PPChecker
    from repro.core.study import run_study_streaming
    from repro.corpus.appstore import CorpusSpec
    from repro.hashing import fingerprint

    spec = CorpusSpec(seed=seed, n_apps=apps)
    checker = PPChecker(lib_policy_source=spec.lib_policy)
    stamps: list[float] = []

    def stamp(package: str, outcome: object) -> None:
        stamps.append(time.monotonic())

    run = run_study_streaming
    if tracer is not None:
        run = tracer.wrap("study", run_study_streaming)
    started = time.monotonic()
    aggregate = run(spec, checker=checker, workers=1,
                    on_outcome=stamp)
    ended = time.monotonic()
    edges = [started] + stamps
    doc = {
        "apps": apps,
        "started": started,
        "ended": ended,
        "elapsed_s": ended - started,
        "per_app_ms": [(b - a) * 1000.0
                       for a, b in zip(edges, edges[1:])],
        "summary": aggregate.summary(),
        "digest": fingerprint(aggregate.to_dict()),
        "peak_rss_kb": vm_hwm_kb(),
        "stage_stats": checker.stats.snapshot(),
    }
    with open(result_path, "w", encoding="utf-8") as handle:
        json.dump(doc, handle)
    return doc


def main(argv: list[str]) -> int:
    trace_out = None
    if argv[:1] == ["--trace-out"]:
        trace_out, argv = argv[1], argv[2:]
    mode, rest = argv[0], argv[1:]
    if mode not in ("serve", "study", "first-check", "reference"):
        raise SystemExit(f"pbench.launch: unknown mode {mode!r}")
    tracer = None
    if trace_out is not None:
        from pbench.tracing import Tracer

        tracer = Tracer()
        tracer.install()
    try:
        if mode == "serve":
            from repro.cli import main as cli_main

            return cli_main(["serve", *rest])
        sub = argparse.ArgumentParser(prog=f"pbench.launch {mode}")
        sub.add_argument("--seed", type=int, default=0)
        sub.add_argument("--apps", type=int, default=0)
        sub.add_argument("--docs", default=None)
        sub.add_argument("--result", default=None)
        opts = sub.parse_args(rest)
        if mode == "first-check":
            first_check(opts.seed)
        elif mode == "reference":
            reference(opts.docs, opts.result)
        else:
            study(opts.seed, opts.apps, opts.result, tracer)
        return 0
    finally:
        if tracer is not None:
            tracer.dump(trace_out)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
