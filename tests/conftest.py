"""Shared fixtures: analyzers, matchers, a small app-store slice, the
ESA/memo test oracles, and the leak check (temp entries, live child
processes) every test runs under."""

from __future__ import annotations

import contextlib
import os
import tempfile
import time
from multiprocessing import resource_tracker

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

#: how long a child that is on its way out may take to exit
CHILD_EXIT_GRACE_S = 5.0


def _live_children() -> dict[int, str]:
    """This process's live children, pid -> command line, found by
    reading ``/proc/*/stat``; zombies (exited, not yet reaped) are not
    live.  The :mod:`multiprocessing` resource tracker stays alive by
    design once a process plane has run, so it is not counted."""
    me = os.getpid()
    tracker = resource_tracker._resource_tracker._pid
    children: dict[int, str] = {}
    for entry in os.listdir("/proc"):
        if not entry.isdigit() or int(entry) == tracker:
            continue
        try:
            with open(f"/proc/{entry}/stat", encoding="utf-8",
                      errors="replace") as handle:
                stat = handle.read()
            # "pid (comm) state ppid ...": comm may hold spaces
            state, ppid = stat[stat.rindex(")") + 2:].split()[:2]
            if int(ppid) != me or state == "Z":
                continue
            with open(f"/proc/{entry}/cmdline", "rb") as handle:
                cmdline = handle.read().replace(b"\0", b" ")
        except (OSError, ValueError):
            continue  # exited while we looked
        children[int(entry)] = cmdline.decode(errors="replace").strip()
    return children


def _children_left(before: dict[int, str]) -> dict[int, str]:
    """The children started since *before* when, after the grace
    period, more children are alive than were then; else nothing.

    Counting, not only comparing pids, is what lets a long-lived
    fixture's supervisor replace a child that a test killed on
    purpose (the cluster respawning a SIGKILLed shard): the
    replacement is new, but the test leaves no more children alive
    than it found."""
    deadline = time.monotonic() + CHILD_EXIT_GRACE_S
    while True:
        live = _live_children()
        if len(live) <= len(before):
            return {}
        if time.monotonic() > deadline:
            return {pid: cmd for pid, cmd in live.items()
                    if pid not in before}
        time.sleep(0.05)


@contextlib.contextmanager
def _leak_check(owner: str, path):
    """Point :mod:`tempfile` and ``TMPDIR`` (so CLI and shard children
    too) at *path*, a directory of this test run's own, then fail
    naming *owner* if anything called ``ppchecker-*`` is left in it,
    or a child process it started is still alive."""
    before = _live_children()
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(tempfile, "tempdir", str(path))
        patch.setenv("TMPDIR", str(path))
        yield
    problems = []
    leaked = sorted(name for name in os.listdir(path)
                    if name.startswith(LEAK_PREFIX))
    if leaked:
        problems.append(f"{len(leaked)} temp entries behind: "
                        f"{', '.join(leaked)}")
    children = _children_left(before)
    if children:
        problems.append(
            f"{len(children)} live child processes behind: "
            + ", ".join(f"{pid} ({cmd})"
                        for pid, cmd in sorted(children.items())))
    if problems:
        pytest.fail(f"{owner} left {'; and '.join(problems)}",
                    pytrace=False)


@pytest.fixture(scope="module", autouse=True)
def no_leaks_from_module_fixtures(request, tmp_path_factory):
    """Module- and class-scoped fixtures (a shared cluster, say) make
    their temp entries and child processes here; a leak fails the
    module's last test."""
    with _leak_check(request.node.nodeid,
                     tmp_path_factory.mktemp("module-tmp")):
        yield


@pytest.fixture(autouse=True)
def no_leaks(request, tmp_path_factory):
    """Each test's temp entries go to a directory of its own; a
    ``ppchecker-*`` entry left there, or a child process the test
    started and left alive, fails the test."""
    with _leak_check(request.node.nodeid,
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
