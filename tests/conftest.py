"""Shared fixtures: analyzers, matchers, a small app-store slice, and
the ESA/memo test oracles."""

from __future__ import annotations

import pytest


def pytest_addoption(parser):
    parser.addoption(
        "--update-goldens", action="store_true", default=False,
        help="rewrite the golden JSON snapshots under "
             "tests/integration/goldens/ instead of comparing "
             "against them",
    )

import repro.semantics.esa
from repro.core.checker import PPChecker
from repro.core.matching import InfoMatcher
from repro.corpus.appstore import generate_app_store
from repro.policy.analyzer import PolicyAnalyzer
from repro.semantics.esa import default_model
from tests.semantics.esa_reference import ReferenceEsa, disable_memo


@pytest.fixture(scope="session")
def esa():
    return default_model()


@pytest.fixture(scope="session")
def matcher():
    return InfoMatcher()


@pytest.fixture(scope="session")
def analyzer():
    return PolicyAnalyzer()


@pytest.fixture(scope="session")
def small_store():
    """The first 64 apps: the description-incomplete groups."""
    return generate_app_store(n_apps=64)


@pytest.fixture(scope="session")
def mid_store():
    """The first 320 apps: covers every planted problem group."""
    return generate_app_store(n_apps=320)


@pytest.fixture(scope="session")
def full_store():
    """The complete 1,197-app corpus."""
    return generate_app_store()


@pytest.fixture(scope="session")
def checker(full_store):
    return PPChecker(lib_policy_source=full_store.lib_policy)


@pytest.fixture
def no_memo(monkeypatch):
    """Every memo cache misses and stores nothing, so the ESA
    interpretations, group views and sentence parses are recomputed
    on every call -- the reference the caches must agree with."""
    disable_memo(monkeypatch)


@pytest.fixture
def reference_esa(monkeypatch):
    """A fresh :class:`ReferenceEsa` installed as the process-wide
    default model: every ``InfoMatcher``/``AutoCog`` built afterwards
    (a fresh ``PPChecker``, an in-process CLI run) scores through the
    oracle.  Check ``calls`` to prove it ran."""
    oracle = ReferenceEsa()
    monkeypatch.setattr(repro.semantics.esa, "_DEFAULT", oracle)
    return oracle
