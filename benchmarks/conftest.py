"""Shared benchmark fixtures.

The full 1,197-app study is computed once per session; individual
benchmarks measure their own pipeline stage and assert the reproduced
numbers against the paper's.
"""

from __future__ import annotations

import pytest

from repro.core.checker import PPChecker
from repro.core.study import run_study
from repro.corpus.appstore import generate_app_store


@pytest.fixture(scope="session")
def store():
    return generate_app_store()


@pytest.fixture(scope="session")
def checker(store):
    return PPChecker(lib_policy_source=store.lib_policy)


@pytest.fixture(scope="session")
def study(store, checker):
    return run_study(store, checker=checker)
