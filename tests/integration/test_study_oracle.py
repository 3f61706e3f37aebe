"""The study fold against its oracle.

``StudyAggregate.fold`` is the only code that computes the paper's
tables.  ``tests/core/study_reference.py`` derives them again from sets
over the run's own reports and the corpus plans; every table and every
count accessor must agree:

- the full 1,197-app corpus, inline and on ``shards=2`` (slow lane),
- a degraded run whose fault plan quarantines apps across every
  planted problem group.
"""

import json

import pytest

from repro.core.checker import CheckerOptions
from repro.core.study import run_study
from repro.corpus.appstore import CorpusSpec
from repro.pipeline import stages
from tests.core.study_reference import reference_study


def canonical(doc):
    return json.dumps(doc, indent=2, sort_keys=True).encode()


def assert_matches_oracle(spec, result):
    oracle = reference_study(spec, result)
    assert canonical(result.to_dict()) == canonical(oracle.to_dict())
    assert result.flagged() == oracle.flagged()
    assert result.incomplete_code_confusion() \
        == oracle.incomplete_code_confusion()
    assert result.n_apps == oracle.n_apps
    assert result.checked == len(result.reports)


@pytest.mark.slow
@pytest.mark.parametrize("shards", [0, 2], ids=["inline", "shards2"])
def test_full_corpus_matches_the_oracle(shards):
    spec = CorpusSpec()
    result = run_study(spec, shards=shards)
    assert_matches_oracle(spec, result)
    assert result.summary()["problem_apps"] == 282


def test_degraded_run_matches_the_oracle(tmp_path):
    spec = CorpusSpec(n_apps=320)  # every planted problem group
    quarantined = range(0, spec.n_apps, 9)
    plan = tmp_path / "faults.json"
    plan.write_text(json.dumps({"faults": [
        {"stage": stages.POLICY_ANALYSIS,
         "match": f".app{index:04d}", "message": "injected"}
        for index in quarantined]}))
    result = run_study(spec, shard_options=CheckerOptions(
        fault_plan=str(plan)))
    assert set(result.failures) == {spec.package_for(index)
                                    for index in quarantined}
    assert result.summary()["quarantined_apps"] == len(quarantined)
    assert_matches_oracle(spec, result)
