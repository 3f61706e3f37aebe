"""Test oracle for sentence selection.

:func:`reference_select` is the parse-everything loop the candidate-
lemma gate in :func:`repro.policy.selection.select_sentences` must
agree with: every sentence is tokenized, tagged and dependency-parsed
fresh (bypassing the ``nlp_parse`` cache), then matched.  No gate, no
memo.
"""

from __future__ import annotations

from repro.nlp.parser import parse
from repro.nlp.tokenizer import tokenize
from repro.policy.patterns import Pattern, SEED_PATTERNS, match_all_verbs
from repro.policy.selection import SelectedSentence
from repro.policy.verbs import ALL_CATEGORY_VERBS


def reference_select(
    sentences: list[str],
    patterns: tuple[Pattern, ...] | list[Pattern] = SEED_PATTERNS,
    verbs: frozenset[str] = ALL_CATEGORY_VERBS,
) -> list[SelectedSentence]:
    """Parse every sentence and keep those matched by any pattern."""
    selected: list[SelectedSentence] = []
    for text in sentences:
        tree = parse(tokenize(text))
        matches = match_all_verbs(tree, patterns, verbs)
        if matches:
            selected.append(SelectedSentence(text, tree, matches))
    return selected
