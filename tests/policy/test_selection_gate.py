"""The candidate-lemma gate in front of the parser is exact.

``select_sentences`` parses only sentences holding a lemma some pattern
can match at the root.  These tests compare it with
:func:`tests.policy.selection_reference.reference_select`, which parses
every sentence, on the whole 1,197-app paper window and on generated
sentences, and pin how many parses the window costs.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.policy.analyzer
from repro.core.checker import PPChecker
from repro.core.study import run_study
from repro.memo import cache_stats, clear_caches
from repro.nlp import lexicon
from repro.nlp.tokenizer import tokenize
from repro.policy.patterns import WILDCARD, Pattern, SEED_PATTERNS
from repro.policy.selection import select_sentences
from repro.policy.verbs import ALL_CATEGORY_VERBS, VerbCategory
from tests.policy.selection_reference import reference_select

#: Patterns whose chain heads are literal lemmas outside the verb set.
#: "display" and "update" roots occur in the corpus in sentences that
#: hold no category verb, so a gate that only admits category verbs
#: drops sentences these patterns select.
LITERAL_HEADS = (
    Pattern("permit>*", ("permit", WILDCARD)),
    Pattern("allow>access", ("allow", "access")),
    Pattern("display", ("display",), category=VerbCategory.DISCLOSE),
    Pattern("update", ("update",), category=VerbCategory.USE),
) + SEED_PATTERNS

PATTERN_LISTS = {"seed": SEED_PATTERNS, "literal_heads": LITERAL_HEADS}


def holds_category_verb(sentence: str) -> bool:
    return any(tok.lemma in ALL_CATEGORY_VERBS for tok in tokenize(sentence))


@pytest.fixture(scope="module")
def window(full_store):
    """``(distinct sentences that reached selection, nlp_parse
    misses)`` for one study of the paper window from empty caches."""
    inputs: dict[str, None] = {}

    def recording(sentences, *args, **kwargs):
        inputs.update(dict.fromkeys(sentences))
        return select_sentences(sentences, *args, **kwargs)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(repro.policy.analyzer, "select_sentences", recording)
        clear_caches()
        run_study(full_store,
                  checker=PPChecker(lib_policy_source=full_store.lib_policy))
        misses = cache_stats()["nlp_parse"]["misses"]
    return list(inputs), misses


@pytest.mark.slow
class TestPaperWindow:
    @pytest.mark.parametrize("name", sorted(PATTERN_LISTS))
    def test_matches_reference(self, window, name):
        sentences, _ = window
        patterns = PATTERN_LISTS[name]
        selected = select_sentences(sentences, patterns)
        assert selected == reference_select(sentences, patterns)
        if name == "literal_heads":
            # the variant really exercises the literal heads
            assert any(not holds_category_verb(s.text) for s in selected)

    def test_parses_only_candidate_sentences(self, window):
        sentences, misses = window
        heads = ALL_CATEGORY_VERBS | {"allow", "able"}
        candidates = [s for s in sentences
                      if any(tok.lemma in heads for tok in tokenize(s))]
        assert len(sentences) == 2654
        assert misses == len(candidates) == 279


_SUFFIXES = st.sampled_from(["", "s", "ed", "ing"])
_VERB_FORMS = st.tuples(st.sampled_from(sorted(lexicon.VERBS)),
                        _SUFFIXES).map("".join)
_HEAD_FORMS = st.tuples(st.sampled_from(["allow", "permit", "display",
                                         "update"]),
                        _SUFFIXES).map("".join)

_WORDS = st.one_of(
    st.sampled_from(sorted(
        set(lexicon.DETERMINERS) | set(lexicon.PRONOUNS)
        | set(lexicon.MODALS) | set(lexicon.AUXILIARIES)
        | set(lexicon.PREPOSITIONS) | set(lexicon.CONJUNCTIONS)
        | lexicon.NOUNS | lexicon.ADJECTIVES | {"able", "to", "not"})),
    _VERB_FORMS,
)

_SENTENCES = st.one_of(
    st.lists(_WORDS, min_size=1, max_size=12),
    st.tuples(
        st.sampled_from(["we", "you", "they", "your data"]),
        st.sampled_from(["", "may", "will not", "are allowed to",
                         "are able to", "will be"]),
        st.one_of(_VERB_FORMS, _HEAD_FORMS),
        st.lists(_WORDS, max_size=6),
    ).map(lambda parts: [*parts[:3], *parts[3]]),
).map(lambda words: " ".join(w for w in words if w) + ".")


class TestGeneratedSentences:
    @given(
        sentences=st.lists(_SENTENCES, min_size=1, max_size=6),
        name=st.sampled_from(sorted(PATTERN_LISTS)),
        verbs=st.sampled_from([
            ALL_CATEGORY_VERBS,
            frozenset({"collect", "share"}),
            frozenset(),
        ]),
    )
    @settings(max_examples=300, deadline=None)
    def test_matches_reference(self, sentences, name, verbs):
        patterns = PATTERN_LISTS[name]
        assert select_sentences(sentences, patterns, verbs) \
            == reference_select(sentences, patterns, verbs)
