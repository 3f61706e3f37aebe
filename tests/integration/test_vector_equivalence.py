"""Differential suite: the compiled ESA matcher never changes output.

The production ESA model (:mod:`repro.semantics.compiled` packed
arrays plus the merge-join/batched matchers in
:mod:`repro.semantics.esa`) promises bitwise exactness.  These tests
prove it the strong way over the real pipeline: the JSON the user sees
is byte-identical when every ESA decision is made instead by
:class:`~tests.semantics.esa_reference.ReferenceEsa` -- the dict
cosine and compute-every-pair loops, with no caches -- and when the
memo caches are switched off as well (the ``no_memo`` fixture).

Covered surfaces, all in-process:

- ``run_study`` over the seeded 64-app slice: default, oracle,
  ``no_memo``, and oracle + ``no_memo`` (the oracle injected through
  ``InfoMatcher(esa=...)`` / ``AutoCog(esa=...)``);
- ``run_study`` over the complete 1,197-app corpus, default vs.
  oracle vs. oracle + ``no_memo`` (the ``slow`` lane);
- ``repro.cli.main(["check", BUNDLE, "--json"])`` over bundles
  exhibiting each problem type, with the oracle installed as the
  process default model.

Every oracle-side run asserts ``ReferenceEsa.calls`` moved, so a
wiring mistake cannot pass vacuously.
"""

from __future__ import annotations

import json

import pytest

from repro.memo import cache_stats
from tests.integration.test_hotpath_equivalence import (
    check_json,
    problem_bundle_paths,
    study_json,
)
from tests.semantics.esa_reference import ReferenceEsa


@pytest.fixture(scope="module")
def default_check(mid_store, tmp_path_factory):
    """bundle path -> ``check --json`` text on the default model."""
    paths = problem_bundle_paths(mid_store,
                                 tmp_path_factory.mktemp("bundles"))
    assert len(paths) == 4
    return {path: check_json(path) for path in paths}


def oracle_study_json(store, oracle: ReferenceEsa) -> str:
    """``study_json`` with *oracle* making every ESA decision."""
    before = oracle.calls
    out = study_json(store, esa=oracle)
    assert oracle.calls > before
    # the production model was never consulted
    stats = cache_stats()
    assert stats["esa_interpret"]["hits"] + \
        stats["esa_interpret"]["misses"] == 0
    return out


class TestStudyEquivalence:
    @pytest.fixture(scope="class")
    def vectorized(self, small_store):
        return study_json(small_store)

    def test_all_four_planes_byte_identical(self, small_store, vectorized,
                                            request):
        oracle = ReferenceEsa()
        assert oracle_study_json(small_store, oracle) == vectorized
        request.getfixturevalue("no_memo")
        assert study_json(small_store) == vectorized
        assert oracle_study_json(small_store, oracle) == vectorized

    @pytest.mark.slow
    def test_full_study_byte_identical(self, full_store, request):
        oracle = ReferenceEsa()
        vectorized = study_json(full_store)
        scalar = oracle_study_json(full_store, oracle)
        request.getfixturevalue("no_memo")
        plain = oracle_study_json(full_store, oracle)
        assert vectorized == scalar
        assert vectorized == plain


class TestCliCheckEquivalence:
    def test_check_json_byte_identical(self, default_check,
                                       reference_esa):
        for path, vectorized in default_check.items():
            before = reference_esa.calls
            scalar = check_json(path)
            assert reference_esa.calls > before, path
            assert vectorized == scalar, path
            assert json.loads(vectorized)["schema_version"] == 1

    def test_both_escape_hatches_compose(self, default_check,
                                         reference_esa, no_memo):
        """The oracle with every memo cache off equals the default
        configuration byte-for-byte."""
        path = next(iter(default_check))
        before = reference_esa.calls
        assert check_json(path) == default_check[path]
        assert reference_esa.calls > before
