"""Sentence splitting tests, including the paper's enumeration fix."""

import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.nlp.sentences
from repro.nlp.sentences import (
    _is_abbreviation,
    _raw_split,
    merge_enumerations,
    split_sentences,
)


def char_loop_is_abbreviation(text: str, dot_index: int) -> bool:
    """Oracle for ``_is_abbreviation``: walks back one character at a
    time over the whole letter/digit/period run (quadratic in a dotted
    run)."""
    start = dot_index
    while start > 0 and (text[start - 1].isalnum() or text[start - 1] == "."):
        start -= 1
    word = text[start:dot_index].lower().rstrip(".")
    if word in repro.nlp.sentences._ABBREVIATIONS:
        return True
    if len(word) == 1 and word.isalpha():
        return True
    return "." in text[start:dot_index]


def char_loop_split(text: str) -> list[str]:
    """Oracle for ``_raw_split``: a per-character buffer loop with the
    same abbreviation, decimal and trailing-quote rules."""
    sentences: list[str] = []
    buf: list[str] = []
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        buf.append(ch)
        i += 1
        if ch not in ".!?" or ch == "." and (
                char_loop_is_abbreviation(text, i - 1)
                or (1 < i < n and text[i - 2].isdigit()
                    and text[i].isdigit())):
            continue
        while i < n and text[i] in "\"')]”’":
            buf.append(text[i])
            i += 1
        if sentence := "".join(buf).strip():
            sentences.append(sentence)
        buf = []
    if tail := "".join(buf).strip():
        sentences.append(tail)
    return sentences


#: terminators, closers, digits, list punctuation, line breaks,
#: bullets, entities, control characters and non-ASCII letters
_SCAN_TEXT = st.lists(st.sampled_from([
    ".", "!", "?", '"', "'", ")", "]", "”", "’", "0", "7", "2.5", ";",
    ",", ":", "\n", "\n\n", "\n- ", "\n* ", "• ", "&amp;", "&#233;",
    "\x00", "\x07", "\t", "é", "Ж", " ", "a", "We collect", "data",
    "e.g", "Inc", "u.s", "com.example", "x",
]), max_size=60).map("".join)


class TestBasicSplitting:
    def test_two_sentences(self):
        out = split_sentences("We collect data. We share it.")
        assert out == ["We collect data.", "We share it."]

    def test_question_and_exclamation(self):
        out = split_sentences("Why do we collect data? To serve you!")
        assert len(out) == 2

    def test_single_sentence(self):
        assert split_sentences("We collect data.") == ["We collect data."]

    def test_empty_text(self):
        assert split_sentences("") == []

    def test_no_terminator(self):
        assert split_sentences("trailing fragment") == ["trailing fragment"]

    def test_abbreviation_eg_not_a_boundary(self):
        out = split_sentences("Some libs (e.g. AdMob) collect data.")
        assert len(out) == 1

    def test_abbreviation_ie(self):
        out = split_sentences("The app (i.e. the client) stores data.")
        assert len(out) == 1

    def test_abbreviation_inc(self):
        out = split_sentences("Example Inc. collects information.")
        assert len(out) == 1

    def test_decimal_numbers_not_boundaries(self):
        out = split_sentences("The market reached 53.5 billion dollars.")
        assert len(out) == 1

    def test_newline_paragraphs_split(self):
        out = split_sentences("First paragraph\n\nSecond paragraph")
        assert len(out) == 2

    def test_bullet_lists_split(self):
        out = split_sentences("We collect:\n- your name\n- your address")
        # bullets merge back into the introducing sentence (ends with :)
        assert any("name" in s for s in out)

    def test_quote_after_period_stays_attached(self):
        out = split_sentences('He said "we collect data." Then he left.')
        assert len(out) == 2
        assert out[0].endswith('"')


class TestEnumerationMerge:
    def test_paper_example_semicolon_list(self):
        text = ("we will collect the following information: your name; "
                "your IP address; your device ID.")
        out = split_sentences(text)
        assert len(out) == 1
        assert "device ID" in out[0]

    def test_merge_after_comma(self):
        merged = merge_enumerations(["we collect your name,",
                                     "your address."])
        assert merged == ["we collect your name, your address."]

    def test_merge_lowercase_continuation(self):
        merged = merge_enumerations(["we collect your name;",
                                     "your address"])
        assert len(merged) == 1

    def test_no_merge_for_complete_sentences(self):
        merged = merge_enumerations(["We collect data.", "We share it."])
        assert len(merged) == 2

    def test_merge_after_colon(self):
        merged = merge_enumerations(["we collect:", "your name"])
        assert merged == ["we collect: your name"]

    def test_empty_input(self):
        assert merge_enumerations([]) == []


class TestScanExactness:
    """The regex-driven splitter emits exactly what the character loop
    did."""

    @given(_SCAN_TEXT)
    @settings(max_examples=500, deadline=None)
    def test_raw_split_matches_char_loop(self, text):
        assert _raw_split(text) == char_loop_split(text)

    @given(_SCAN_TEXT)
    @settings(max_examples=300, deadline=None)
    def test_split_sentences_matches_char_loop(self, text):
        fast = split_sentences(text)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(repro.nlp.sentences, "_raw_split", char_loop_split)
            assert fast == split_sentences(text)

    def test_oracle_pins_the_rules(self):
        text = 'Inc. pays 2.5 dollars (e.g. you). "Done!" Then? end'
        assert char_loop_split(text) == _raw_split(text) == [
            "Inc. pays 2.5 dollars (e.g. you).", '"Done!"', "Then?", "end",
        ]


#: letter/digit/period runs, including letters whose lower case is
#: longer ("İ") and runs of bare periods
_DOTTED_TEXT = st.lists(st.sampled_from([
    ".", "..", "a", "a.", "Z", "7", "é", "İ", "ß", " ", "\n", "!", "?",
    "-", "e.g", "i.e.", "Inc", "etc", "u.s.a", "v1.2", "x.y.z",
]), max_size=40).map("".join)


class TestAbbreviationScan:
    """The walk that stops at the first earlier period decides exactly
    what the whole-run walk did, in linear time."""

    @given(_DOTTED_TEXT)
    @settings(max_examples=500, deadline=None)
    def test_matches_char_loop(self, text):
        for i, ch in enumerate(text):
            if ch == ".":
                assert _is_abbreviation(text, i) == \
                    char_loop_is_abbreviation(text, i), (text, i)

    def test_long_dotted_run_is_linear(self):
        # the whole-run walk costs ~1.25e9 steps here
        text = "a." * 50_000
        started = time.perf_counter()
        assert split_sentences(text) == [text]
        assert time.perf_counter() - started < 5.0
