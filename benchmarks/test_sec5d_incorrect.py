"""Section V-D -- discovering incorrect privacy policies.

Paper: 2 apps found via descriptions (com.marcow.birthdaylist,
com.herman.ringtone), the same 2 via code (NotCollect vs Collect_code)
plus another 2 via retention (NotRetain vs Retain_code:
com.easyxapp.secret, hko.MyObservatory), and 2 context false
positives (the com.zoho.mail case).
"""

from __future__ import annotations

from repro.core.incorrect import detect_incorrect_via_code
from repro.core.matching import InfoMatcher
from repro.corpus.plans import INCORRECT_FP, INCORRECT_TP


def test_sec5d_incorrect(benchmark, store, checker, study):
    matcher = InfoMatcher()
    sample = [store.apps[i] for i in
              list(INCORRECT_TP) + list(INCORRECT_FP)]

    def run_incorrect_detector():
        hits = 0
        for app in sample:
            policy = checker.analyze_policy(app.bundle)
            static = checker.analyze_code(app.bundle)
            if detect_incorrect_via_code(policy, static, matcher):
                hits += 1
        return hits

    benchmark(run_incorrect_detector)

    flagged = study.flagged()
    tp = study.summary()["incorrect_apps"]
    fp = flagged["incorrect"] - tp
    via_desc = flagged["incorrect_via_description"]
    via_code = flagged["incorrect_via_code"]

    print("\nSection V-D -- incorrect privacy policies")
    print(f"{'metric':<28} {'paper':>6} {'measured':>9}")
    print(f"{'verified incorrect apps':<28} {4:>6} {tp:>9}")
    print(f"{'via description':<28} {2:>6} "
          f"{study.summary()['incorrect_via_description']:>9}")
    print(f"{'via code':<28} {4:>6} "
          f"{study.summary()['incorrect_via_code']:>9}")
    print(f"{'context false positives':<28} {2:>6} {fp:>9}")

    assert tp == 4
    assert fp == 2
    assert study.summary()["incorrect_via_description"] == 2
    assert study.summary()["incorrect_via_code"] == 4
    assert via_desc >= 2 and via_code >= 4
