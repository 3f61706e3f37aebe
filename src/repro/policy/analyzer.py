"""The privacy-policy analyzer: orchestrates the six pipeline steps.

Input: a policy as plain text or HTML.  Output: a
:class:`repro.policy.model.PolicyAnalysis` with useful sentences,
per-category resource sets (Collect_pp ... NotDisclose_pp), and the
third-party disclaimer flag used by the inconsistency detector.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from repro.hashing import fingerprint
from repro.nlp.sentences import split_sentences
from repro.policy.extraction import extract_statement
from repro.policy.html_text import html_to_text
from repro.policy.model import PolicyAnalysis
from repro.policy.patterns import Pattern, SEED_PATTERNS
from repro.policy.selection import select_sentences
from repro.policy.verbs import ALL_CATEGORY_VERBS

#: Phrases announcing a disclaimer of responsibility for third parties.
_DISCLAIMER_CUES = (
    "not responsible for the privacy practices",
    "not responsible for the practices",
    "not responsible for the content or privacy",
    "no responsibility for the privacy practices",
    "review the privacy practices of these third parties",
    "review the privacy policies of these third parties",
    "review the privacy policy of any third party",
)


def detect_disclaimer(sentences: list[str]) -> bool:
    """True if the policy disclaims responsibility for third parties."""
    for sentence in sentences:
        low = sentence.lower()
        if any(cue in low for cue in _DISCLAIMER_CUES):
            return True
        if "not responsible" in low and (
            "third" in low or "other sites" in low or "those sites" in low
        ):
            return True
    return False


@dataclass
class PolicyAnalyzer:
    """Analyzes privacy policies with a configurable pattern list.

    The default configuration corresponds to the paper's converged
    bootstrap (Table II shapes over the full verb-category sets).
    Custom pattern lists -- e.g. the top-n output of
    :mod:`repro.policy.bootstrap` -- plug in unchanged.
    """

    patterns: tuple[Pattern, ...] = SEED_PATTERNS
    verbs: frozenset[str] = ALL_CATEGORY_VERBS

    def fingerprint(self) -> str:
        """Content hash of the analyzer configuration.

        Part of every ``policy_analysis`` / ``lib_policy_analysis``
        cache key: two analyzers with the same patterns and verb sets
        share artifacts; a custom pattern list (e.g. a bootstrap
        top-n) gets its own key space.
        """
        return _config_fingerprint(tuple(self.patterns),
                                   frozenset(self.verbs))

    def analyze(self, policy: str, html: bool = False) -> PolicyAnalysis:
        """Run the six-step pipeline over one policy document.

        Not memoized here: the pipeline's artifact store is the one
        (bounded) cache of policy analyses."""
        text = html_to_text(policy) if html else policy
        sentences = split_sentences(text)

        analysis = PolicyAnalysis(sentences=sentences)
        analysis.has_third_party_disclaimer = detect_disclaimer(sentences)

        for selected in select_sentences(sentences, self.patterns,
                                         self.verbs):
            for match in selected.matches:
                statement = extract_statement(selected.tree, match,
                                              selected.text)
                if statement is not None:
                    analysis.statements.append(statement)
        return analysis


@lru_cache(maxsize=64)
def _config_fingerprint(patterns: tuple[Pattern, ...],
                        verbs: frozenset[str]) -> str:
    """:meth:`PolicyAnalyzer.fingerprint`, computed once per distinct
    configuration."""
    return fingerprint({
        "patterns": [
            {
                "name": p.name,
                "chain": list(p.chain),
                "voice": p.voice,
                "require_advcl": p.require_advcl,
                "category": p.category.value if p.category else None,
            }
            for p in patterns
        ],
        "verbs": sorted(verbs),
    })


_DEFAULT_ANALYZER: PolicyAnalyzer | None = None


def analyze_policy(policy: str, html: bool = False) -> PolicyAnalysis:
    """Analyze with the process-wide default :class:`PolicyAnalyzer`."""
    global _DEFAULT_ANALYZER
    if _DEFAULT_ANALYZER is None:
        _DEFAULT_ANALYZER = PolicyAnalyzer()
    return _DEFAULT_ANALYZER.analyze(policy, html=html)


__all__ = ["PolicyAnalyzer", "analyze_policy", "detect_disclaimer"]
