"""Table IV -- performance of inconsistent-privacy-policy detection.

Paper:
  Sents_{collect,use,retain}: TP 41, FP 5, precision 89.1%,
      recall 91.7%, F1 90.4%
  Sents_disclose:             TP 39, FP 4, precision 90.7%,
      recall 92.3%, F1 91.4%
  75 questionable apps in total after manual verification.

The paper's point estimates also sit inside 95% bootstrap confidence
intervals around the reproduced rows.
"""

from __future__ import annotations

import pytest

from repro.core.inconsistent import detect_inconsistent
from repro.core.matching import InfoMatcher
from repro.core.metrics import bootstrap_interval, wilson_interval

PAPER = {
    "collect_use_retain": dict(tp=41, fp=5, precision=0.891,
                               recall=0.917, f1=0.904),
    "disclose": dict(tp=39, fp=4, precision=0.907, recall=0.923,
                     f1=0.914),
}


def test_table4(benchmark, store, checker, study):
    matcher = InfoMatcher()
    sample = store.apps[243:299]  # the planted inconsistency group

    def run_inconsistency_detector():
        hits = 0
        for app in sample:
            policy = checker.analyze_policy(app.bundle)
            static = checker.analyze_code(app.bundle)
            libs = {
                spec.lib_id: checker._lib_policy(spec.lib_id)
                for spec in static.libraries
            }
            libs = {k: v for k, v in libs.items() if v is not None}
            if detect_inconsistent(policy, libs, matcher):
                hits += 1
        return hits

    benchmark(run_inconsistency_detector)

    rows = study.table4()
    print("\nTable IV -- inconsistency detection performance")
    print(f"{'row':<22} {'':>4} {'TP':>4} {'FP':>4} {'P':>7} "
          f"{'R':>7} {'F1':>7}")
    for name, row in rows.items():
        paper = PAPER[name]
        print(f"{name:<22} {'paper':>5} {paper['tp']:>4} "
              f"{paper['fp']:>4} {paper['precision']:>7.3f} "
              f"{paper['recall']:>7.3f} {paper['f1']:>7.3f}")
        print(f"{'':<22} {'meas.':>5} {row.tp:>4} {row.fp:>4} "
              f"{row.precision:>7.3f} {row.recall:>7.3f} "
              f"{row.f1:>7.3f}")
    print(f"questionable apps: paper 75, measured "
          f"{len(study.inconsistent_true_apps())}")

    cur = rows["collect_use_retain"]
    assert (cur.tp, cur.fp) == (41, 5)
    assert cur.precision == pytest.approx(0.891, abs=0.001)
    assert cur.recall == pytest.approx(0.917, abs=0.02)
    disclose = rows["disclose"]
    assert (disclose.tp, disclose.fp) == (39, 4)
    assert disclose.precision == pytest.approx(0.907, abs=0.001)
    assert disclose.recall == pytest.approx(0.923, abs=0.02)
    assert len(study.inconsistent_true_apps()) == 75


def test_confidence_intervals(benchmark, study):
    """Bootstrap CIs around Table IV; paper values must fall inside."""
    rows = study.table4()
    sample_outcomes = [(True, True)] * 41 + [(True, False)] * 5
    benchmark(lambda: bootstrap_interval(sample_outcomes,
                                         metric="precision"))

    print("\nTable IV with 95% bootstrap confidence intervals")
    for name, row in rows.items():
        outcomes = (
            [(True, True)] * row.tp + [(True, False)] * row.fp
            + [(False, True)] * row.fn
        )
        for metric in ("precision", "recall"):
            interval = bootstrap_interval(outcomes, metric=metric)
            inside = interval.contains(PAPER[name][metric])
            print(f"  {name:<20} {metric:<10} {interval}   "
                  f"paper {PAPER[name][metric]:.3f} "
                  f"{'inside' if inside else 'OUTSIDE'}")
            assert inside, (name, metric)

    fraction = wilson_interval(
        study.summary()["problem_apps"], study.summary()["apps"]
    )
    print(f"  problem fraction {fraction} (paper 0.236)")
    assert fraction.contains(0.236)
