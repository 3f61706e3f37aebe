"""HTML-to-text extraction tests."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.policy.html_text
from repro.policy.html_text import _NON_TEXT_RE, html_to_text


def char_loop_ascii(text: str) -> str:
    """Oracle for the non-text filter: a per-character generator that
    keeps newlines and printable ASCII."""
    return "".join(ch for ch in text if ch == "\n" or 32 <= ord(ch) < 127)


class _CharLoopFilter:
    """Stands in for ``_NON_TEXT_RE`` inside ``html_to_text``."""

    @staticmethod
    def sub(repl: str, text: str) -> str:
        return char_loop_ascii(text)


_HTML = st.lists(st.sampled_from([
    "<p>", "</p>", "<li>", "<br>", "<b>", "&amp;", "&#233;", "&#x41;",
    "&nbsp;", "&rsquo;", ".", "!", "?", '"', "”", ";", ",", "\n", "\r",
    "\t", "\x00", "\x07", "\x7f", "\x85", "é", "Ж", "❤", " ", "We",
    "collect", "data", "7",
]), max_size=60).map("".join)


class TestHtmlToText:
    def test_plain_paragraphs(self):
        out = html_to_text("<p>We collect data.</p><p>We share it.</p>")
        assert "We collect data." in out
        assert "\n" in out

    def test_script_dropped(self):
        out = html_to_text(
            "<p>visible</p><script>var x = 'hidden';</script>"
        )
        assert "visible" in out
        assert "hidden" not in out

    def test_style_dropped(self):
        out = html_to_text("<style>p { color: red }</style><p>text</p>")
        assert "color" not in out

    def test_comments_dropped(self):
        out = html_to_text("<!-- secret --><p>public</p>")
        assert "secret" not in out

    def test_entities_decoded(self):
        out = html_to_text("<p>Terms &amp; Conditions &lt;2016&gt;</p>")
        assert "Terms & Conditions <2016>" in out

    def test_numeric_entities(self):
        assert "A" in html_to_text("&#65;")
        assert "A" in html_to_text("&#x41;")

    def test_non_ascii_removed(self):
        out = html_to_text("<p>café privacy ❤</p>")
        assert "é" not in out
        assert "privacy" in out

    def test_list_items_become_lines(self):
        out = html_to_text("<ul><li>your name</li><li>your id</li></ul>")
        assert "your name" in out
        assert "your id" in out

    def test_inline_tags_do_not_break_words(self):
        out = html_to_text("<p>we <b>collect</b> data</p>")
        assert "we" in out and "collect" in out and "data" in out

    def test_whitespace_collapsed(self):
        out = html_to_text("<p>a     b</p>")
        assert "a b" in out

    def test_plain_text_passthrough(self):
        assert html_to_text("no tags at all") == "no tags at all"

    def test_empty_input(self):
        assert html_to_text("") == ""

    def test_malformed_html_survives(self):
        out = html_to_text("<p>unclosed <div>nested<p>deep")
        assert "unclosed" in out and "deep" in out


class TestScanExactness:
    @given(st.text(max_size=200))
    @settings(max_examples=500, deadline=None)
    def test_filter_matches_char_loop(self, text):
        assert _NON_TEXT_RE.sub("", text) == char_loop_ascii(text)

    @given(_HTML)
    @settings(max_examples=300, deadline=None)
    def test_html_to_text_matches_char_loop(self, html):
        fast = html_to_text(html)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(repro.policy.html_text, "_NON_TEXT_RE",
                       _CharLoopFilter)
            assert fast == html_to_text(html)
