"""Sentence selection (Step 4).

Applies the ranked pattern list to each parsed sentence; matched
sentences are *useful* and continue into negation analysis and element
extraction, others are discarded.

Only sentences that hold a *candidate lemma* reach the dependency
parser.  A pattern matches at the tree root, and the root is one of the
sentence's tokens, whose lemma the tokenizer alone assigns.  So a
sentence none of whose lemmas is a category verb (what a ``*`` chain
head matches) or a literal chain head (``allow`` in P3) cannot match,
and skipping its tag and parse changes no output.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from repro.memo import MISS, MemoCache
from repro.nlp.deptree import DependencyTree
from repro.nlp.parser import parse
from repro.nlp.tokenizer import tokenize
from repro.policy.patterns import (
    WILDCARD,
    Pattern,
    PatternMatch,
    SEED_PATTERNS,
    match_all_verbs,
)
from repro.policy.verbs import ALL_CATEGORY_VERBS

#: (sentence, candidate lemmas) -> does the sentence hold one?  Policy
#: templates recur across thousands of apps, so a recurring sentence
#: costs one lookup instead of a tokenization; keying by the lemma set
#: gives each custom pattern list its own verdicts.
_GATE_CACHE = MemoCache("policy_gate")


@dataclass
class SelectedSentence:
    """A useful sentence with its parse and pattern matches."""

    text: str
    tree: DependencyTree
    matches: list[PatternMatch]


@lru_cache(maxsize=64)
def _candidate_lemmas(patterns: tuple[Pattern, ...],
                      verbs: frozenset[str]) -> frozenset[str]:
    """Every lemma some pattern's chain head can match.  Cached so the
    gate keys of one configuration share a single set object."""
    return verbs | {p.chain[0] for p in patterns if p.chain[0] != WILDCARD}


def _may_match(text: str, candidates: frozenset[str]) -> bool:
    key = (text, candidates)
    verdict = _GATE_CACHE.get(key)
    if verdict is MISS:
        verdict = any(tok.lemma in candidates for tok in tokenize(text))
        _GATE_CACHE.put(key, verdict)
    return verdict


def select_sentences(
    sentences: list[str],
    patterns: tuple[Pattern, ...] | list[Pattern] = SEED_PATTERNS,
    verbs: frozenset[str] = ALL_CATEGORY_VERBS,
) -> list[SelectedSentence]:
    """Parse each candidate sentence and keep those matched by any
    pattern."""
    candidates = _candidate_lemmas(tuple(patterns), verbs)
    selected: list[SelectedSentence] = []
    for text in sentences:
        if not _may_match(text, candidates):
            continue
        tree = parse(text)
        matches = match_all_verbs(tree, patterns, verbs)
        if matches:
            selected.append(SelectedSentence(text, tree, matches))
    return selected


def is_useful(
    sentence: str,
    patterns: tuple[Pattern, ...] | list[Pattern] = SEED_PATTERNS,
    verbs: frozenset[str] = ALL_CATEGORY_VERBS,
) -> bool:
    """Convenience predicate used by the Fig. 12 experiment."""
    return bool(select_sentences([sentence], patterns, verbs))


__all__ = ["SelectedSentence", "select_sentences", "is_useful"]
