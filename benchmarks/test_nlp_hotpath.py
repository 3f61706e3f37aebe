"""ESA/NLP matching hot-path benchmark.

Drives the study-scale phrase-matching workload -- every information
surface scored against every policy resource phrase, across hundreds
of simulated apps that repeat phrases the way a real corpus does --
twice:

- **no-memo** -- the test oracle
  (``tests/semantics/esa_reference.py``): the dict cosine and the
  compute-every-pair loops, with no caches;
- **vectorized-cold** -- the production model (merge-join vectors,
  per-tuple group views, memo caches on but empty): what a cold study
  run pays.

Emits ``BENCH_nlp.json`` (schema-versioned) with per-phase wall
time, pair throughput, and cache counters, and asserts the speedup
floor (>= 5x vectorized-cold vs. no-memo) plus result equality
between the phases -- the fast path must be exact, not approximate.

``benchmarks/compare.py`` gates later PRs against the committed
baseline copy of this file.
"""

from __future__ import annotations

import gc
import json
import os
import time

from repro.core.matching import InfoMatcher
from repro.corpus.mutations import ALIAS_SWAPS
from repro.description.permission_map import INFO_SURFACE
from repro.memo import cache_stats, clear_caches
from tests.semantics.esa_reference import ReferenceEsa

BENCH_PATH = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "BENCH_nlp.json")

#: how many policy-holding apps the workload simulates; phrase pools
#: cycle over a real corpus slice, so phrases repeat across apps the
#: way the 1,197-app study repeats them
N_SIM_APPS = 240
POOL_APPS = slice(64, 104)


def build_workload(store, checker) -> tuple[list[str], list[list[str]]]:
    """(surfaces, per-app phrase pools) for the matching sweep.

    Surfaces are every alias the matcher scores
    (:data:`INFO_SURFACE`); pools are the policy resource phrases of a
    real corpus slice, cycled over ``N_SIM_APPS`` simulated apps with
    every third app speaking in :data:`ALIAS_SWAPS` paraphrases.
    """
    surfaces = sorted({
        surface
        for aliases in INFO_SURFACE.values()
        for surface in aliases
    } | set(ALIAS_SWAPS.values()))

    base_pools = []
    for app in store.apps[POOL_APPS]:
        analysis = checker.analyze_policy(app.bundle)
        pool = sorted(analysis.all_positive() | analysis.all_negative())
        if pool:
            base_pools.append(pool)

    def swapped(pool: list[str]) -> list[str]:
        return [ALIAS_SWAPS.get(phrase, phrase) for phrase in pool]

    pools = []
    for index in range(N_SIM_APPS):
        pool = base_pools[index % len(base_pools)]
        pools.append(swapped(pool) if index % 3 == 2 else pool)
    return surfaces, pools


def sweep(esa, threshold: float,
          surfaces: list[str],
          pools: list[list[str]]) -> tuple[float, list]:
    """One full matching pass; (seconds, all match decisions).

    Pending garbage is drained first so a generation-2 collection
    pause (the session heap holds the whole synthetic corpus) does
    not land inside one phase's timing window.
    """
    hits = []
    gc.collect()
    started = time.perf_counter()
    for pool in pools:
        hits.append(esa.match_sets(surfaces, pool, threshold))
    return time.perf_counter() - started, hits


def test_nlp_hotpath(benchmark, store, checker):
    matcher = InfoMatcher()
    surfaces, pools = build_workload(store, checker)
    n_pairs = sum(len(surfaces) * len(pool) for pool in pools)

    oracle = ReferenceEsa(matcher.esa.kb, matcher.threshold)

    def profile() -> dict:
        # the oracle: dict cosine, every pair scored, no caches
        nomemo_s, nomemo_hits = sweep(oracle, matcher.threshold,
                                      surfaces, pools)

        # the production model from empty caches: what a cold study
        # run pays
        clear_caches()
        veccold_s, veccold_hits = sweep(matcher.esa, matcher.threshold,
                                        surfaces, pools)
        caches = cache_stats()

        # the fast path is exact: both phases agree pair-for-pair
        assert veccold_hits == nomemo_hits

        def phase(seconds: float) -> dict:
            return {
                "seconds": seconds,
                "pairs_per_second": n_pairs / seconds if seconds
                else 0.0,
            }

        return {
            "n_apps": len(pools),
            "n_surfaces": len(surfaces),
            "n_pairs": n_pairs,
            "n_matches": sum(len(h) for h in nomemo_hits),
            "no_memo": phase(nomemo_s),
            "vectorized_cold": phase(veccold_s),
            "vectorized_cold_speedup":
                nomemo_s / veccold_s if veccold_s else 0.0,
            "caches": {
                name: {"hits": row["hits"], "misses": row["misses"]}
                for name, row in caches.items()
            },
        }

    result = benchmark.pedantic(profile, rounds=3, iterations=1)
    assert oracle.calls > 0

    from repro.core.schema import versioned

    with open(BENCH_PATH, "w", encoding="utf-8") as handle:
        json.dump(versioned(result), handle, indent=2, sort_keys=True)

    print(f"\nNLP hot path over {result['n_apps']} simulated apps "
          f"({result['n_pairs']} pairs, "
          f"{result['n_matches']} matches)")
    for phase_name in ("no_memo", "vectorized_cold"):
        row = result[phase_name]
        print(f"  {phase_name:<16} {row['seconds'] * 1000:>8.1f} ms  "
              f"{row['pairs_per_second']:>10.0f} pairs/s")
    print(f"  vectorized cold speedup "
          f"{result['vectorized_cold_speedup']:.1f}x")
    print(f"  wrote {BENCH_PATH}")

    # the compiled matcher from empty caches beats the
    # compute-everything oracle by at least 5x on the study workload
    assert result["vectorized_cold_speedup"] >= 5.0
