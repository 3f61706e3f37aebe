"""The headline reproduction: the full 1,197-app study (Section V).

These tests assert the paper's published numbers exactly where our
calibrated corpus reproduces them, and in tight bands where the
emergent behaviour may drift by an app or two.
"""

import pytest

from repro.core.study import run_study

# corpus scale: CI's fast lane deselects this module (-m "not slow")
# and a dedicated step runs it (-m slow)
pytestmark = pytest.mark.slow


@pytest.fixture(scope="module")
def result(full_store, checker):
    return run_study(full_store, checker=checker)


class TestSectionVF:
    def test_282_problem_apps(self, result):
        assert result.summary()["problem_apps"] == 282

    def test_236_percent(self, result):
        assert result.summary()["problem_fraction"] == pytest.approx(
            0.236, abs=0.002
        )

    def test_incomplete_breakdown(self, result):
        summary = result.summary()
        assert summary["incomplete_apps"] == 222
        assert summary["incomplete_via_description"] == 64
        assert summary["incomplete_via_code"] == 180

    def test_incorrect_breakdown(self, result):
        summary = result.summary()
        assert summary["incorrect_apps"] == 4
        assert summary["incorrect_via_description"] == 2
        assert summary["incorrect_via_code"] == 4

    def test_75_inconsistent(self, result):
        assert result.summary()["inconsistent_apps"] == 75


class TestTableIII:
    def test_permission_counts(self, result):
        table = result.table3()
        assert table["android.permission.ACCESS_FINE_LOCATION"] == 19
        assert table["android.permission.ACCESS_COARSE_LOCATION"] == 14
        assert table["android.permission.READ_CONTACTS"] == 12
        assert table["android.permission.GET_ACCOUNTS"] == 11
        assert table["android.permission.CAMERA"] == 6
        assert table["android.permission.READ_CALENDAR"] == 2
        assert table["android.permission.WRITE_CONTACTS"] == 1

    def test_location_permissions_dominate(self, result):
        table = result.table3()
        location = (table["android.permission.ACCESS_FINE_LOCATION"]
                    + table["android.permission.ACCESS_COARSE_LOCATION"])
        assert location > max(
            v for k, v in table.items() if "LOCATION" not in k
        )


class TestFig13:
    def test_flagged_and_confusion(self, result):
        tp, fp = result.incomplete_code_confusion()
        assert tp == 180
        assert fp == 15
        assert result.flagged()["incomplete_via_code"] == 195

    def test_234_records_32_retained(self, result):
        dist, retained = result.fig13()
        assert sum(dist.values()) == 234
        assert retained == 32

    def test_location_most_common(self, result):
        dist, _ = result.fig13()
        top_info, _count = dist.most_common(1)[0]
        assert top_info.value == "location"


class TestTableIV:
    def test_collect_use_retain_row(self, result):
        row = result.table4()["collect_use_retain"]
        assert row.tp == 41
        assert row.fp == 5
        assert row.precision == pytest.approx(0.891, abs=0.001)
        assert row.recall == pytest.approx(0.917, abs=0.02)
        assert row.f1 == pytest.approx(0.904, abs=0.02)

    def test_disclose_row(self, result):
        row = result.table4()["disclose"]
        assert row.tp == 39
        assert row.fp == 4
        assert row.precision == pytest.approx(0.907, abs=0.001)
        assert row.recall == pytest.approx(0.923, abs=0.02)
        assert row.f1 == pytest.approx(0.914, abs=0.02)

    def test_75_distinct_true_apps(self, result):
        assert result.summary()["inconsistent_apps"] == 75


class TestIncorrectDetail:
    def test_confusion(self, result):
        tp = result.summary()["incorrect_apps"]
        fp = result.flagged()["incorrect"] - tp
        assert tp == 4
        assert fp == 2
