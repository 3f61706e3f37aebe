"""Stage definitions: names, cache-key recipes, and disk codecs.

The pipeline decomposes one PPChecker run into five independently
cacheable stages.  Each stage is keyed by a content hash of exactly
the inputs that determine its output:

===========================  ===========================================
stage                        cache key = SHA-256 of
===========================  ===========================================
``policy_analysis``          analyzer fingerprint + html flag
                             + policy-text digest
``static_analysis``          APK digest + analysis flags
``description_permissions``  AutoCog fingerprint + description digest
``lib_policy_analysis``      analyzer fingerprint + lib id
                             + lib-policy-text digest (or null)
``detect``                   package + policy-analysis digest
                             + static and description keys
                             + per-lib keys + matcher fingerprint
                             + honor_disclaimer flag
===========================  ===========================================

The part digests are :class:`repro.core.checker.AppBundle`'s own.
``detect`` reuses the upstream stage keys (``static_key`` and
``description_key`` are memoized for it) but hashes the policy
analysis by *content*: a subclass may transform it between its stage
and ``detect`` (:class:`repro.core.extended.ExtendedPPChecker`).

``STAGE_CODECS`` maps each stage to the ``(encode, decode)`` pair the
:class:`repro.pipeline.artifacts.SharedDiskStore` uses; live artifacts keep
their types, documents are plain JSON (same idiom as
:mod:`repro.android.serialization`).
"""

from __future__ import annotations

from functools import lru_cache
from typing import Any, Callable

from repro.android.static_analysis import StaticAnalysisResult
from repro.core.report import AppReport
from repro.hashing import fingerprint, fingerprint_text
from repro.policy.model import PolicyAnalysis

POLICY_ANALYSIS = "policy_analysis"
STATIC_ANALYSIS = "static_analysis"
DESCRIPTION_PERMISSIONS = "description_permissions"
LIB_POLICY_ANALYSIS = "lib_policy_analysis"
DETECT = "detect"

STAGES = (
    POLICY_ANALYSIS,
    STATIC_ANALYSIS,
    DESCRIPTION_PERMISSIONS,
    LIB_POLICY_ANALYSIS,
    DETECT,
)


# -- cache keys ----------------------------------------------------------


def policy_key(analyzer_fingerprint: str, policy_digest: str,
               html: bool) -> str:
    return fingerprint([POLICY_ANALYSIS, analyzer_fingerprint,
                        bool(html), policy_digest])


@lru_cache(maxsize=1024)
def static_key(apk_digest: str, *, use_reachability: bool,
               use_uri_analysis: bool) -> str:
    return fingerprint([STATIC_ANALYSIS, apk_digest,
                        bool(use_reachability), bool(use_uri_analysis)])


@lru_cache(maxsize=1024)
def description_key(autocog_fingerprint: str,
                    description_digest: str) -> str:
    return fingerprint([DESCRIPTION_PERMISSIONS, autocog_fingerprint,
                        description_digest])


@lru_cache(maxsize=1024)
def lib_policy_key(analyzer_fingerprint: str, lib_id: str,
                   text: str | None) -> str:
    # memoized: every app embedding a lib asks for the same key
    return fingerprint([LIB_POLICY_ANALYSIS, analyzer_fingerprint,
                        lib_id,
                        None if text is None else fingerprint_text(text)])


def analysis_digest(analysis: PolicyAnalysis) -> str:
    """Content digest of one policy analysis, as ``detect`` keys hash
    it."""
    return fingerprint(analysis.to_dict())


def detect_key(
    package: str,
    policy: PolicyAnalysis,
    static_key: str,
    description_key: str,
    lib_keys: dict[str, str],
    *,
    matcher_fingerprint: str,
    honor_disclaimer: bool,
) -> str:
    """*lib_keys* maps each lib id to its stage key."""
    return fingerprint([
        DETECT,
        package,
        analysis_digest(policy),
        static_key,
        description_key,
        lib_keys,
        matcher_fingerprint,
        bool(honor_disclaimer),
    ])


# -- disk codecs ---------------------------------------------------------


def _encode_optional_policy(analysis: PolicyAnalysis | None) -> Any:
    return None if analysis is None else analysis.to_dict()


def _decode_optional_policy(doc: Any) -> PolicyAnalysis | None:
    return None if doc is None else PolicyAnalysis.from_dict(doc)


#: stage -> (encode to JSON document, decode back to a live artifact)
STAGE_CODECS: dict[str, tuple[Callable[[Any], Any],
                              Callable[[Any], Any]]] = {
    POLICY_ANALYSIS: (PolicyAnalysis.to_dict, PolicyAnalysis.from_dict),
    STATIC_ANALYSIS: (StaticAnalysisResult.to_dict,
                      StaticAnalysisResult.from_dict),
    DESCRIPTION_PERMISSIONS: (sorted, set),
    LIB_POLICY_ANALYSIS: (_encode_optional_policy,
                          _decode_optional_policy),
    DETECT: (AppReport.to_dict, AppReport.from_dict),
}


# -- defensive copies ----------------------------------------------------

def _clone_optional_policy(
    analysis: PolicyAnalysis | None,
) -> PolicyAnalysis | None:
    return None if analysis is None else analysis.clone()


#: stage -> copy handed to callers, so cached artifacts can never be
#: mutated through a returned reference.
STAGE_CLONES: dict[str, Callable[[Any], Any]] = {
    POLICY_ANALYSIS: PolicyAnalysis.clone,
    STATIC_ANALYSIS: StaticAnalysisResult.clone,
    DESCRIPTION_PERMISSIONS: set,
    LIB_POLICY_ANALYSIS: _clone_optional_policy,
    DETECT: AppReport.clone,
}


__all__ = [
    "POLICY_ANALYSIS",
    "STATIC_ANALYSIS",
    "DESCRIPTION_PERMISSIONS",
    "LIB_POLICY_ANALYSIS",
    "DETECT",
    "STAGES",
    "policy_key",
    "static_key",
    "description_key",
    "lib_policy_key",
    "analysis_digest",
    "detect_key",
    "STAGE_CODECS",
    "STAGE_CLONES",
]
