"""Benchmark-regression gate.

Compares the freshly-emitted ``BENCH_*.json`` files against the
committed baselines in ``benchmarks/baselines/`` and fails when a
gated metric regresses beyond the tolerance band.

Speedup ratios (warm vs. cold, serial vs. parallel) are
machine-portable and gate the run; absolute throughput rows are
printed for context but never fail it.  CI runs this as a
non-blocking step (``continue-on-error``) so a slow runner produces a
visible delta table instead of a red build; the hard floor
(``vectorized_cold_speedup >= 5`` in ``test_nlp_hotpath``) lives in
the benchmark itself.

Usage::

    python benchmarks/compare.py [--baseline DIR] [--current DIR]
                                 [--tolerance 0.25]
"""

from __future__ import annotations

import argparse
import json
import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(
    os.path.dirname(os.path.abspath(__file__))), "src"))

from repro.core.schema import validate_versioned  # noqa: E402

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BASELINE_DIR = os.path.join(REPO_ROOT, "benchmarks", "baselines")

#: (file, dotted metric path, gated?).  All metrics are
#: higher-is-better; gated ones fail the run when the current value
#: drops more than ``--tolerance`` below the baseline.
METRICS: list[tuple[str, str, bool]] = [
    ("BENCH_nlp.json", "vectorized_cold_speedup", True),
    ("BENCH_nlp.json", "vectorized_cold.pairs_per_second", False),
    ("BENCH_pipeline.json", "warm_speedup", True),
    ("BENCH_pipeline.json", "parallel_speedup", False),
    ("BENCH_service.json", "warm_speedup", True),
    ("BENCH_service.json", "warm.throughput_rps", False),
    ("BENCH_cluster.json", "shard_speedup", True),
    ("BENCH_cluster.json", "cluster.warm.throughput_rps", False),
    ("BENCH_resilience.json", "brownout_goodput_ratio", True),
    ("BENCH_resilience.json", "healthy.goodput_rps", False),
    ("BENCH_resilience.json", "browned.goodput_rps", False),
    ("BENCH_scale.json", "at_10k.apps_per_sec", False),
    ("BENCH_scale.json", "at_100k.apps_per_sec", False),
]


def load(path: str) -> dict | None:
    if not os.path.exists(path):
        return None
    with open(path, encoding="utf-8") as handle:
        payload = json.load(handle)
    validate_versioned(payload, source=path)
    return payload


def lookup(payload: dict, dotted: str) -> float | None:
    node = payload
    for part in dotted.split("."):
        if not isinstance(node, dict) or part not in node:
            return None
        node = node[part]
    return float(node) if isinstance(node, (int, float)) else None


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--baseline", default=BASELINE_DIR,
                        help="directory holding baseline BENCH files")
    parser.add_argument("--current", default=REPO_ROOT,
                        help="directory holding current BENCH files")
    parser.add_argument("--tolerance", type=float, default=0.25,
                        help="allowed fractional drop below baseline "
                             "for gated metrics (default 0.25)")
    args = parser.parse_args(argv)

    rows = []
    regressions = []
    for filename, metric, gated in METRICS:
        baseline = load(os.path.join(args.baseline, filename))
        current = load(os.path.join(args.current, filename))
        base_value = lookup(baseline, metric) if baseline else None
        cur_value = lookup(current, metric) if current else None
        if base_value is None or cur_value is None:
            status = "skipped (missing)"
            delta = None
        else:
            delta = (cur_value - base_value) / base_value \
                if base_value else 0.0
            floor = base_value * (1.0 - args.tolerance)
            if gated and cur_value < floor:
                status = "REGRESSION"
                regressions.append((filename, metric, base_value,
                                    cur_value))
            else:
                status = "ok" if gated else "info"
        rows.append((filename, metric, base_value, cur_value, delta,
                     status))

    name_width = max(len(f"{f}:{m}") for f, m, _ in METRICS)
    print(f"Benchmark deltas (tolerance {args.tolerance:.0%}, "
          f"baseline {args.baseline})")
    print(f"  {'metric':<{name_width}}  {'baseline':>10}  "
          f"{'current':>10}  {'delta':>8}  status")
    for filename, metric, base_value, cur_value, delta, status in rows:
        name = f"{filename}:{metric}"
        base_s = f"{base_value:.2f}" if base_value is not None else "-"
        cur_s = f"{cur_value:.2f}" if cur_value is not None else "-"
        delta_s = f"{delta:+.1%}" if delta is not None else "-"
        print(f"  {name:<{name_width}}  {base_s:>10}  {cur_s:>10}  "
              f"{delta_s:>8}  {status}")

    if regressions:
        print(f"\n{len(regressions)} gated metric(s) regressed beyond "
              f"the {args.tolerance:.0%} tolerance band:")
        for filename, metric, base_value, cur_value in regressions:
            print(f"  {filename}:{metric}: {base_value:.2f} -> "
                  f"{cur_value:.2f}")
        return 1
    print("\nno gated regressions")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
