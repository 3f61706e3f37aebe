"""Table III -- permissions leading to incomplete privacy policies
(description path, Alg. 1) and the number of affected apps.

Paper:  ACCESS_FINE_LOCATION 19, ACCESS_COARSE_LOCATION 14,
READ_CONTACTS 12, GET_ACCOUNTS 11, CAMERA 6, READ_CALENDAR 2,
WRITE_CONTACTS 1 -- 64 questionable apps in total, location-related
permissions dominating.
"""

from __future__ import annotations

from repro.core.incomplete import detect_incomplete_via_description
from repro.core.matching import InfoMatcher

PAPER_TABLE3 = {
    "android.permission.ACCESS_FINE_LOCATION": 19,
    "android.permission.ACCESS_COARSE_LOCATION": 14,
    "android.permission.READ_CONTACTS": 12,
    "android.permission.GET_ACCOUNTS": 11,
    "android.permission.CAMERA": 6,
    "android.permission.READ_CALENDAR": 2,
    "android.permission.WRITE_CONTACTS": 1,
}


def test_table3(benchmark, store, checker, study):
    matcher = InfoMatcher()
    sample = store.apps[:64]

    def run_description_detector():
        flagged = 0
        for app in sample:
            policy = checker.analyze_policy(app.bundle)
            permissions = checker.autocog.infer_permissions(
                app.bundle.description
            ) & app.bundle.apk.manifest.permissions
            if detect_incomplete_via_description(policy, permissions,
                                                 matcher):
                flagged += 1
        return flagged

    benchmark(run_description_detector)

    table = study.table3()
    print("\nTable III -- permissions leading to incomplete policies")
    print(f"{'permission':<50} {'paper':>6} {'measured':>9}")
    for permission, paper_count in PAPER_TABLE3.items():
        print(f"{permission:<50} {paper_count:>6} "
              f"{table.get(permission, 0):>9}")
    total = study.flagged()["incomplete_via_description"]
    print(f"{'total questionable apps':<50} {64:>6} {total:>9}")

    assert table == PAPER_TABLE3
    assert total == 64
