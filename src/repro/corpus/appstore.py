"""The synthetic app store: assembled bundles + ground truth.

Two entry points share one deterministic layout:

- :class:`CorpusSpec` is the lazy corpus.  It precomputes only the
  *bounded* random layout (the planted problem groups below index
  335, the background rolls of the 1,197-app window, and the lib
  fill, all independent of ``n_apps``) and derives any
  :class:`AppPlan`/:class:`SyntheticApp` directly from its index --
  ``spec.app(i)`` never builds apps ``0..i-1``, and
  ``spec.iter_apps()`` streams a million-app corpus in constant
  memory.
- ``generate_app_store()`` is the historical eager entry point, now a
  thin materializing wrapper over :class:`CorpusSpec`; generation
  stays deterministic and cached per (seed, n_apps).
"""

from __future__ import annotations

import random
import threading
from dataclasses import dataclass
from typing import Iterator

from repro.core.checker import AppBundle
from repro.corpus.codegen import build_apk
from repro.corpus.descgen import render_description
from repro.corpus.libpolicies import corpus_lib_policy
from repro.corpus.plans import (
    BACKGROUND,
    DEFAULT_SEED,
    N_APPS,
    PLANT_STOP,
    TOTAL_APPS_WITH_LIBS,
    AppPlan,
    _background_libs,
    _finalize_plan,
    _package_for,
    _planted_prefix,
)
from repro.corpus.policygen import render_app_policy


@dataclass
class SyntheticApp:
    """One generated app: the PPChecker input plus its ground truth."""

    plan: AppPlan
    bundle: AppBundle

    @property
    def package(self) -> str:
        return self.plan.package


@dataclass
class AppStore:
    """The full corpus, materialized (a thin eager view over
    :class:`CorpusSpec` -- all historical call sites keep working)."""

    seed: int
    apps: list[SyntheticApp]

    def __len__(self) -> int:
        return len(self.apps)

    #: lib-policy source for :class:`repro.core.checker.PPChecker`
    lib_policy = staticmethod(corpus_lib_policy)

    def app(self, package: str) -> SyntheticApp | None:
        for app in self.apps:
            if app.package == package:
                return app
        return None


def _build_app(plan: AppPlan) -> SyntheticApp:
    from repro.corpus.htmlgen import policy_to_html

    policy_text = render_app_policy(plan)
    bundle = AppBundle(
        package=plan.package,
        apk=build_apk(plan),
        policy=policy_to_html(
            policy_text,
            title=f"Privacy Policy - {plan.package}",
            variant=plan.index,
        ),
        description=render_description(plan),
        policy_is_html=True,
    )
    return SyntheticApp(plan=plan, bundle=bundle)


class CorpusSpec:
    """A deterministic corpus addressed by ``(seed, n_apps)``.

    The expensive parts of corpus generation -- rendering policies,
    descriptions, and APKs -- happen per app, on demand.  The random
    layout behind the plans is bounded: every planted problem group
    lives below index :data:`~repro.corpus.plans.PLANT_STOP`, the
    background rolls cover only the 1,197-app paper window (indices
    beyond it are clean apps), and the lib fill stops at 879 lib-
    carrying apps.  ``plan(i)`` / ``app(i)`` are therefore O(1) after
    a one-time constant-size layout computation, for any ``n_apps``.

    The layout replays the exact draw sequence of
    :func:`repro.corpus.plans.build_plans`, so the lazy corpus is
    plan-for-plan equal to the eager one (pinned by the test suite).
    """

    def __init__(self, seed: int = DEFAULT_SEED,
                 n_apps: int = N_APPS) -> None:
        self.seed = seed
        self.n_apps = n_apps
        self._lock = threading.Lock()
        self._prefix: list[AppPlan] | None = None
        self._rolls: list[float] = []
        self._libs: dict[int, tuple[str, ...]] = {}

    def __len__(self) -> int:
        return self.n_apps

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"CorpusSpec(seed={self.seed}, n_apps={self.n_apps})"

    # -- layout ------------------------------------------------------------

    def _layout(self) -> list[AppPlan]:
        """The bounded random layout, computed once per spec."""
        with self._lock:
            if self._prefix is not None:
                return self._prefix
            rng = random.Random(self.seed)
            prefix = _planted_prefix(rng, self.n_apps)
            # the background-roll stream: one draw per index of the
            # BACKGROUND range present in this corpus, in index order
            # (identical to build_plans' finalize pass)
            bg_stop = min(self.n_apps, BACKGROUND.stop)
            self._rolls = [rng.random()
                           for _ in range(max(0, bg_stop - PLANT_STOP))]
            for plan in prefix:
                _finalize_plan(plan, None)
            # the lib fill examines plans in index order until 879
            # carry a lib; planted plans keep theirs, background
            # plans draw from the same stream
            libful = sum(1 for p in prefix if p.lib_ids)
            for index in range(self.n_apps):
                if libful >= TOTAL_APPS_WITH_LIBS:
                    break
                if index < len(prefix):
                    if prefix[index].lib_ids:
                        continue
                    picks = _background_libs(rng, index)
                    if picks:
                        prefix[index].lib_ids = picks
                        libful += 1
                    continue
                picks = _background_libs(rng, index)
                if picks:
                    self._libs[index] = picks
                    libful += 1
            self._prefix = prefix
            return prefix

    # -- per-index derivation ---------------------------------------------

    def plan(self, index: int) -> AppPlan:
        """The :class:`AppPlan` at *index*, derived without building
        any other plan's app."""
        if not 0 <= index < self.n_apps:
            raise IndexError(
                f"corpus index {index} out of range "
                f"(0..{self.n_apps - 1})")
        prefix = self._layout()
        if index < len(prefix):
            return prefix[index]
        package, category = _package_for(index)
        plan = AppPlan(index=index, package=package,
                       app_category=category)
        offset = index - PLANT_STOP
        roll = (self._rolls[offset]
                if 0 <= offset < len(self._rolls) else None)
        _finalize_plan(plan, roll)
        if index in self._libs:
            plan.lib_ids = self._libs[index]
        return plan

    def app(self, index: int) -> SyntheticApp:
        """Build the app at *index* (plan + bundle), on demand."""
        return _build_app(self.plan(index))

    def package_for(self, index: int) -> str:
        """The package name at *index* (no plan derivation needed)."""
        if not 0 <= index < self.n_apps:
            raise IndexError(
                f"corpus index {index} out of range "
                f"(0..{self.n_apps - 1})")
        return _package_for(index)[0]

    def iter_plans(self, start: int = 0,
                   stop: int | None = None) -> Iterator[AppPlan]:
        stop = self.n_apps if stop is None else min(stop, self.n_apps)
        for index in range(start, stop):
            yield self.plan(index)

    def iter_apps(self, start: int = 0,
                  stop: int | None = None) -> Iterator[SyntheticApp]:
        """Stream apps ``start..stop`` one at a time; peak memory is
        one app regardless of the range."""
        for plan in self.iter_plans(start, stop):
            yield _build_app(plan)

    # -- interop ----------------------------------------------------------

    #: lib-policy source for :class:`repro.core.checker.PPChecker`
    lib_policy = staticmethod(corpus_lib_policy)

    def materialize(self) -> AppStore:
        """Build every app eagerly (the historical representation)."""
        return AppStore(seed=self.seed, apps=list(self.iter_apps()))


_CACHE: dict[tuple[int, int], AppStore] = {}


def generate_app_store(seed: int = DEFAULT_SEED,
                       n_apps: int = N_APPS) -> AppStore:
    """Generate (or fetch the cached) synthetic app store."""
    key = (seed, n_apps)
    if key not in _CACHE:
        _CACHE[key] = CorpusSpec(seed=seed, n_apps=n_apps).materialize()
    return _CACHE[key]


__all__ = ["SyntheticApp", "AppStore", "CorpusSpec",
           "generate_app_store"]
