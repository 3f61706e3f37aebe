"""Fig. 13 -- distribution of information missed by incomplete
privacy policies (code path, Alg. 2).

Paper: 195 apps flagged through bytecode analysis; manual checking
confirms 180 (15 false positives).  Within the 180 true positives
there are 234 missed-information records, 32 of them retention
records; location is the most commonly missed information.
"""

from __future__ import annotations

from repro.core.incomplete import detect_incomplete_via_code
from repro.core.matching import InfoMatcher


def test_fig13(benchmark, store, checker, study):
    matcher = InfoMatcher()
    sample = store.apps[64:128]  # code-incomplete group slice

    def run_code_detector():
        flagged = 0
        for app in sample:
            policy = checker.analyze_policy(app.bundle)
            static = checker.analyze_code(app.bundle)
            if detect_incomplete_via_code(policy, static, matcher):
                flagged += 1
        return flagged

    benchmark(run_code_detector)

    tp, fp = study.incomplete_code_confusion()
    dist, retained = study.fig13()

    print("\nFig. 13 -- missed information distribution (true positives)")
    print(f"{'information':<18} {'records':>8}")
    for info, count in dist.most_common():
        print(f"{info.value:<18} {count:>8}")
    print(f"{'total':<18} {sum(dist.values()):>8}   (paper: 234)")
    print(f"{'retained':<18} {retained:>8}   (paper: 32)")
    print(f"flagged {study.flagged()['incomplete_via_code']} apps "
          f"(paper 195), verified {tp} (paper 180), "
          f"false positives {fp} (paper 15)")

    assert study.flagged()["incomplete_via_code"] == 195
    assert (tp, fp) == (180, 15)
    assert sum(dist.values()) == 234
    assert retained == 32
    assert dist.most_common(1)[0][0].value == "location"
