"""Shared fixtures: analyzers, matchers, a small app-store slice, the
ESA/memo test oracles, and the temp-dir leak check every test runs
under."""

from __future__ import annotations

import contextlib
import os
import tempfile

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


#: what the program names its temporary files and directories
LEAK_PREFIX = "ppchecker-"


@contextlib.contextmanager
def _temp_root(owner: str, path):
    """Point :mod:`tempfile` and ``TMPDIR`` (so CLI and shard children
    too) at *path*, a directory of this test run's own, then fail
    naming *owner* if anything called ``ppchecker-*`` is left in it."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(tempfile, "tempdir", str(path))
        patch.setenv("TMPDIR", str(path))
        yield
    leaked = sorted(name for name in os.listdir(path)
                    if name.startswith(LEAK_PREFIX))
    if leaked:
        pytest.fail(f"{owner} left {len(leaked)} temp entries behind: "
                    f"{', '.join(leaked)}", pytrace=False)


@pytest.fixture(scope="module", autouse=True)
def no_leaks_from_module_fixtures(request, tmp_path_factory):
    """Module- and class-scoped fixtures (a shared cluster, say) make
    their temp entries here; a leak fails the module's last test."""
    with _temp_root(request.node.nodeid,
                    tmp_path_factory.mktemp("module-tmp")):
        yield


@pytest.fixture(autouse=True)
def no_leaks(request, tmp_path_factory):
    """Each test's temp entries go to a directory of its own, and a
    ``ppchecker-*`` entry left there fails the test."""
    with _temp_root(request.node.nodeid,
                    tmp_path_factory.mktemp("tmp")):
        yield


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
