"""Privacy policies of the 81 third-party libraries (Section V-A).

Each library's behaviour set (what its policy asserts it collects,
uses, retains, or discloses) is deterministic: index-based rules per
category plus explicit entries for the libraries named in the
inconsistency plants.  :func:`lib_policy_text` renders the behaviours
into policy prose with :mod:`repro.corpus.policygen` templates.
"""

from __future__ import annotations

from functools import lru_cache

from repro.android.libs import libs_by_category
from repro.policy.verbs import VerbCategory

_C = VerbCategory.COLLECT
_U = VerbCategory.USE
_R = VerbCategory.RETAIN
_D = VerbCategory.DISCLOSE

#: explicit behaviours for libs referenced by name in the plants.
_EXPLICIT: dict[str, frozenset[tuple[VerbCategory, str]]] = {
    "admob": frozenset({
        (_C, "device identifiers"), (_C, "location"),
        (_D, "device identifiers"), (_D, "personal information"),
        (_U, "personal information"),
    }),
    "flurry": frozenset({
        (_C, "device identifiers"), (_C, "location"),
        (_D, "device identifiers"), (_D, "personal information"),
        (_U, "personal information"),
    }),
    "inmobi": frozenset({
        (_C, "device identifiers"), (_C, "location"),
        (_D, "personal information"), (_U, "personal information"),
    }),
    "mopub": frozenset({
        (_C, "device identifiers"), (_C, "location"),
        (_D, "device identifiers"), (_U, "personal information"),
    }),
    "chartboost": frozenset({
        (_C, "device identifiers"), (_D, "device identifiers"),
        (_U, "personal information"),
    }),
    "vungle": frozenset({
        (_C, "device identifiers"), (_D, "personal information"),
    }),
    "unity3d": frozenset({
        (_C, "device identifiers"), (_C, "location"),
        (_U, "usage data"),
    }),
}


@lru_cache(maxsize=None)
def lib_behaviors(lib_id: str) -> frozenset[tuple[VerbCategory, str]]:
    """The (category, resource) assertions of one lib's policy.

    Index-rule behaviours unioned with the explicit per-lib entries --
    the inconsistency plants rely on both layers being present.
    """
    explicit = _EXPLICIT.get(lib_id, frozenset())
    for category_name, rules in (
        ("ad", _ad_rules), ("social", _social_rules),
        ("devtool", _devtool_rules),
    ):
        libs = libs_by_category(category_name)
        for index, spec in enumerate(libs):
            if spec.lib_id == lib_id:
                return frozenset(rules(index)) | explicit
    raise KeyError(f"unknown lib id: {lib_id!r}")


def _ad_rules(index: int) -> set[tuple[VerbCategory, str]]:
    behaviors = {(_C, "device identifiers"), (_U, "usage data")}
    if index % 2 == 0:
        behaviors.add((_C, "location"))
    if index % 2 == 1:
        behaviors.add((_D, "device identifiers"))
    if index % 3 == 0:
        behaviors.add((_D, "personal information"))
    if index % 5 == 0:
        behaviors.add((_D, "location"))
    if index % 7 == 0:
        behaviors.add((_U, "personal information"))
    return behaviors


def _social_rules(index: int) -> set[tuple[VerbCategory, str]]:
    behaviors = {
        (_C, "contacts"), (_C, "name"), (_C, "email address"),
        (_D, "personal information"),
    }
    if index % 2 == 0:
        behaviors.add((_C, "profile information"))
    return behaviors


def _devtool_rules(index: int) -> set[tuple[VerbCategory, str]]:
    behaviors = {
        (_C, "device identifiers"), (_C, "ip address"),
        (_U, "crash data"),
    }
    if index % 4 == 0:
        behaviors.add((_R, "usage data"))
    return behaviors


@lru_cache(maxsize=None)
def lib_policy_text(lib_id: str) -> str:
    """Render the lib's policy document."""
    from repro.corpus.policygen import render_lib_policy
    behaviors = sorted(lib_behaviors(lib_id),
                       key=lambda b: (b[0].value, b[1]))
    return render_lib_policy(lib_id, behaviors)


def corpus_lib_policy(lib_id: str) -> str | None:
    """Lib-policy source for :class:`repro.core.checker.PPChecker`:
    the lib's policy document, or None for a lib the corpus does not
    know."""
    try:
        return lib_policy_text(lib_id)
    except KeyError:
        return None


__all__ = ["corpus_lib_policy", "lib_behaviors", "lib_policy_text"]
