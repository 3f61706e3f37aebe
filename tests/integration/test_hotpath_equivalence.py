"""Differential suite: the hot-path caches never change the output.

The ESA/NLP memoization layer (:mod:`repro.memo`) promises that every
cache -- interpretation and group-view LRUs, the parse cache, the
selection gate -- is *exact*.  These tests prove it the strong way:
the text the user sees is byte-identical on the default configuration
and under the ``no_memo`` fixture, which forces every
:class:`~repro.memo.MemoCache` lookup to miss.

Covered surfaces, all in-process:

- ``run_study`` over the seeded 64-app corpus slice;
- ``repro.cli.main(["check", BUNDLE, "--json"])`` over corpus bundles
  exhibiting each problem type;
- the ``quickstart.py`` example's stdout.

The default-configuration outputs are computed once per module,
before any test switches the caches off.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import runpy

import pytest

from repro.android.serialization import save_bundle
from repro.cli import main as cli_main
from repro.core.checker import PPChecker
from repro.core.matching import InfoMatcher
from repro.core.schema import versioned
from repro.core.study import run_study
from repro.description.autocog import AutoCog
from repro.memo import cache_stats, clear_caches

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))


def study_json(store, esa=None) -> str:
    """Canonical JSON of a fresh-checker study over *store*; a given
    *esa* model replaces the default one in the checker's matchers."""
    clear_caches()
    seams = {} if esa is None else {"autocog": AutoCog(esa=esa),
                                    "matcher": InfoMatcher(esa=esa)}
    checker = PPChecker(lib_policy_source=store.lib_policy, **seams)
    result = run_study(store, checker=checker)
    return json.dumps(versioned(result.to_dict()), sort_keys=True)


def check_json(bundle_path: str) -> str:
    """What ``check BUNDLE --json`` prints, run in-process."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli_main(["check", bundle_path, "--json"]) == 0
    return out.getvalue()


def quickstart_out() -> str:
    """What ``python examples/quickstart.py`` prints, run in-process."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        runpy.run_path(os.path.join(REPO_ROOT, "examples",
                                    "quickstart.py"),
                       run_name="__main__")
    return out.getvalue()


def memo_hits() -> int:
    """Hits over the ESA, parse and selection-gate memo caches since
    the last :func:`clear_caches`."""
    stats = cache_stats()
    return sum(stats[name]["hits"] for name in
               ("esa_interpret", "esa_group_index", "nlp_parse",
                "policy_gate"))


def problem_bundle_paths(store, directory) -> list[str]:
    """One serialized bundle per planted problem type, plus a clean
    app, from the seeded corpus."""
    picks: dict[str, object] = {}
    for app in store.apps:
        plan = app.plan
        if "incomplete" not in picks and (plan.gt_incomplete_desc
                                          or plan.gt_incomplete_code):
            picks["incomplete"] = app
        elif "incorrect" not in picks and plan.gt_incorrect:
            picks["incorrect"] = app
        elif "inconsistent" not in picks and plan.inconsistencies:
            picks["inconsistent"] = app
        elif "clean" not in picks and not (
                plan.gt_incomplete_desc or plan.gt_incomplete_code
                or plan.gt_incorrect or plan.inconsistencies):
            picks["clean"] = app
        if len(picks) == 4:
            break
    paths = []
    for label, app in sorted(picks.items()):
        path = str(directory / f"{label}.json")
        save_bundle(app.bundle, path)
        paths.append(path)
    return paths


@pytest.fixture(scope="module")
def default_check(mid_store, tmp_path_factory):
    """bundle path -> ``check --json`` text on the default config."""
    paths = problem_bundle_paths(mid_store,
                                 tmp_path_factory.mktemp("bundles"))
    assert len(paths) == 4
    return {path: check_json(path) for path in paths}


class TestStudyEquivalence:
    @pytest.fixture(scope="class")
    def memoized(self, small_store):
        return study_json(small_store)

    def test_study_byte_identical(self, small_store, memoized, no_memo):
        plain = study_json(small_store)
        assert memo_hits() == 0  # every lookup really missed
        assert memoized == plain


class TestCliCheckEquivalence:
    def test_check_json_byte_identical(self, default_check, no_memo):
        for path, memoized in default_check.items():
            plain = check_json(path)
            assert memoized == plain, path
            payload = json.loads(memoized)
            assert payload["schema_version"] == 1


class TestExampleEquivalence:
    @pytest.fixture(scope="class")
    def memoized(self):
        return quickstart_out()

    def test_quickstart_byte_identical(self, memoized, no_memo):
        assert memoized == quickstart_out()
