"""Golden snapshots of the ``check --json`` payload.

Pins the exact schema-version-1 report JSON for one seeded corpus app
per problem family (incomplete / incorrect / inconsistent).  Any
change to the payload -- a renamed key, a reordered list, a float
that moved -- shows up as a readable diff against the committed
snapshot instead of slipping into downstream consumers.

Legitimate payload changes: run ``pytest
tests/integration/test_golden_check.py --update-goldens`` to rewrite
the snapshots, review the diff, and bump ``SCHEMA_VERSION`` if a key
was renamed, removed, or changed meaning (see
``src/repro/core/schema.py``).
"""

from __future__ import annotations

import json
import os

import pytest

from repro.core.checker import PPChecker
from repro.core.matching import InfoMatcher
from repro.core.schema import versioned
from repro.description.autocog import AutoCog
from tests.semantics.esa_reference import ReferenceEsa

GOLDEN_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                          "goldens")
CASES = ("incomplete", "incorrect", "inconsistent")


def pick_case_apps(store) -> dict[str, object]:
    """The first seeded app exhibiting each planted problem family."""
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
        if len(picks) == len(CASES):
            break
    return picks


@pytest.fixture(scope="module")
def rendered(mid_store):
    """label -> the exact text ``check --json`` would print."""
    picks = pick_case_apps(mid_store)
    assert sorted(picks) == sorted(CASES)
    checker = PPChecker(lib_policy_source=mid_store.lib_policy)
    out = {}
    for label, app in picks.items():
        report = checker.check(app.bundle)
        assert getattr(report, label), (label, app.package)
        out[label] = json.dumps(versioned(report.to_dict()),
                                indent=2, sort_keys=True) + "\n"
    return out


@pytest.mark.parametrize("label", CASES)
def test_golden_payload(label, rendered, request):
    path = os.path.join(GOLDEN_DIR, f"{label}.json")
    if request.config.getoption("--update-goldens"):
        os.makedirs(GOLDEN_DIR, exist_ok=True)
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(rendered[label])
        return
    assert os.path.exists(path), (
        f"missing golden {path}; run pytest with --update-goldens"
    )
    with open(path, encoding="utf-8") as handle:
        assert handle.read() == rendered[label], (
            f"{label} payload drifted from its golden snapshot; if "
            f"intentional, rerun with --update-goldens and review "
            f"the diff"
        )


@pytest.mark.parametrize("label", CASES)
def test_golden_holds_on_scalar_plane(label, rendered, mid_store,
                                      request):
    """The goldens pin the compiled (default) ESA model; the
    dict-cosine oracle must print the same bytes."""
    if request.config.getoption("--update-goldens"):
        pytest.skip("goldens being rewritten")
    picks = pick_case_apps(mid_store)
    oracle = ReferenceEsa()
    checker = PPChecker(lib_policy_source=mid_store.lib_policy,
                        autocog=AutoCog(esa=oracle),
                        matcher=InfoMatcher(esa=oracle))
    report = checker.check(picks[label].bundle)
    assert oracle.calls > 0
    scalar = json.dumps(versioned(report.to_dict()),
                        indent=2, sort_keys=True) + "\n"
    assert scalar == rendered[label]
    path = os.path.join(GOLDEN_DIR, f"{label}.json")
    with open(path, encoding="utf-8") as handle:
        assert handle.read() == scalar


@pytest.mark.parametrize("label", CASES)
def test_golden_is_versioned(label):
    path = os.path.join(GOLDEN_DIR, f"{label}.json")
    with open(path, encoding="utf-8") as handle:
        payload = json.load(handle)
    assert payload["schema_version"] == 1
    assert payload["has_problem"] is True
