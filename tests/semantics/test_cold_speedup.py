"""The compiled ESA plane from empty caches beats the oracle by >= 5x.

The workload is the study-scale phrase-matching sweep: every
information surface the matcher scores, against the policy resource
phrases of a real corpus slice, cycled over 240 simulated apps with
every third app speaking in :data:`ALIAS_SWAPS` paraphrases, so
phrases repeat across apps the way the 1,197-app study repeats them.

The oracle (``tests/semantics/esa_reference.py``) is the dict cosine
with compute-every-pair loops and no caches; the production model
runs with its memo caches cleared first, which is what a cold study
pays. Both must return the same decisions, pair for pair. The floor
is a ratio of two timings on the same host, so it holds on any
hardware; it read about 30x on a 2-vCPU VM.
"""

from __future__ import annotations

import gc
import time

import pytest

from repro.core.matching import InfoMatcher
from repro.corpus.mutations import ALIAS_SWAPS
from repro.description.permission_map import INFO_SURFACE
from repro.memo import clear_caches
from tests.semantics.esa_reference import ReferenceEsa

N_SIM_APPS = 240
POOL_APPS = slice(64, 104)
ROUNDS = 3
SPEEDUP_FLOOR = 5.0


def build_workload(store, checker) -> tuple[list[str], list[list[str]]]:
    """(surfaces, per-app phrase pools) for the matching sweep."""
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
    pools = []
    for index in range(N_SIM_APPS):
        pool = base_pools[index % len(base_pools)]
        if index % 3 == 2:
            pool = [ALIAS_SWAPS.get(phrase, phrase) for phrase in pool]
        pools.append(pool)
    return surfaces, pools


def sweep(esa, threshold: float, surfaces: list[str],
          pools: list[list[str]]) -> tuple[float, list]:
    """One full matching pass: (seconds, every match decision).

    Pending garbage is collected first so a generation-2 pause over
    the session heap does not land inside the timed window.
    """
    gc.collect()
    started = time.perf_counter()
    hits = [esa.match_sets(surfaces, pool, threshold) for pool in pools]
    return time.perf_counter() - started, hits


@pytest.mark.slow
def test_compiled_plane_cold_beats_oracle(full_store, checker):
    matcher = InfoMatcher()
    surfaces, pools = build_workload(full_store, checker)
    oracle = ReferenceEsa(matcher.esa.kb, matcher.threshold)

    oracle_s, cold_s = [], []
    for _ in range(ROUNDS):
        seconds, oracle_hits = sweep(oracle, matcher.threshold,
                                     surfaces, pools)
        oracle_s.append(seconds)
        clear_caches()
        seconds, cold_hits = sweep(matcher.esa, matcher.threshold,
                                   surfaces, pools)
        cold_s.append(seconds)
        assert cold_hits == oracle_hits
    assert oracle.calls > 0
    assert sum(len(hits) for hits in oracle_hits) > 0

    speedup = min(oracle_s) / min(cold_s)
    assert speedup >= SPEEDUP_FLOOR, (
        f"compiled plane cold only {speedup:.1f}x the oracle "
        f"(floor {SPEEDUP_FLOOR:g}x)")
