"""Shared benchmark fixtures.

The full 1,197-app study is computed once per session; individual
benchmarks measure their own pipeline stage and assert the reproduced
numbers against the paper's.
"""

from __future__ import annotations

import os
import sys

import pytest

# the NLP hot-path benchmark times the ESA test oracle
# (tests/semantics/esa_reference.py), so the repo root must be
# importable however pytest was launched
sys.path.insert(0, os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))

from repro.core.checker import PPChecker  # noqa: E402
from repro.core.study import run_study  # noqa: E402
from repro.corpus.appstore import generate_app_store  # noqa: E402


@pytest.fixture(scope="session")
def store():
    return generate_app_store()


@pytest.fixture(scope="session")
def checker(store):
    return PPChecker(lib_policy_source=store.lib_policy)


@pytest.fixture(scope="session")
def study(store, checker):
    return run_study(store, checker=checker)
