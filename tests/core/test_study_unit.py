"""Study-aggregation unit tests + the sharded process runner."""

import pytest

from repro.core.study import (
    RowMetrics,
    StudyResult,
    run_study,
)
from repro.corpus.appstore import CorpusSpec, generate_app_store


class TestRowMetrics:
    def test_precision_recall_f1(self):
        row = RowMetrics(tp=41, fp=5, fn=4)
        assert row.flagged == 46
        assert row.precision == pytest.approx(41 / 46)
        assert row.recall == pytest.approx(41 / 45)
        assert 0.0 < row.f1 < 1.0

    def test_zero_division_safe(self):
        row = RowMetrics()
        assert row.precision == row.recall == row.f1 == 0.0


class TestStudyResult:
    def test_limit_parameter(self, full_store, checker):
        result = run_study(full_store, checker=checker, limit=10)
        assert result.n_apps == 10
        assert len(result.reports) == 10

    def test_empty_summary(self):
        result = StudyResult(n_apps=0)
        summary = result.summary()
        assert summary["problem_apps"] == 0
        assert summary["problem_fraction"] == 0.0


class TestExport:
    def test_to_dict_json_serializable(self, full_store, checker):
        import json
        result = run_study(full_store, checker=checker, limit=80)
        payload = json.loads(json.dumps(result.to_dict()))
        assert "summary" in payload
        assert "table4" in payload

    def test_full_study_has_no_deviations(self, full_store, checker):
        result = run_study(full_store, checker=checker)
        assert result.deviations_from_paper() == {}

    def test_partial_study_reports_deviations(self, full_store,
                                              checker):
        result = run_study(full_store, checker=checker, limit=100)
        deviations = result.deviations_from_paper()
        assert "apps" in deviations


class TestParallelStudy:
    def test_parallel_matches_serial(self):
        serial = run_study(generate_app_store(n_apps=80))
        parallel = run_study(CorpusSpec(n_apps=80), shards=2)
        assert parallel.n_apps == serial.n_apps
        assert set(parallel.reports) == set(serial.reports)
        for package in serial.reports:
            assert parallel.reports[package].to_dict() == \
                serial.reports[package].to_dict()

    def test_single_job(self):
        result = run_study(CorpusSpec(n_apps=20), shards=1)
        assert result.n_apps == 20
