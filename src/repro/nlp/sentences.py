"""Sentence extraction (Step 1 of the policy-analysis pipeline).

Splits policy text into sentences with two PPChecker-specific behaviours
from the paper:

1. Abbreviation-aware splitting (so "e.g." / "Inc." do not end sentences),
   replacing NLTK's Punkt model.
2. The enumeration-list fix: NLTK-style splitting breaks
   ``"we will collect the following information: your name; your IP
   address; your device ID"`` into pieces.  PPChecker walks the sentence
   sequence and, when the previous sentence ends with ";" or ",", or the
   current piece starts with a lower-case letter, appends the current
   piece to the previous one.  Finally all letters are lower-cased by the
   caller (the policy analyzer keeps the original for reporting).
"""

from __future__ import annotations

import re

# Common abbreviations that end with a period but do not end a sentence.
_ABBREVIATIONS = {
    "e.g", "i.e", "etc", "inc", "ltd", "llc", "corp", "co", "vs",
    "mr", "mrs", "ms", "dr", "prof", "st", "no", "dept", "u.s",
    "u.k", "approx", "est", "sec", "fig", "al", "cf", "viz",
}

_TERMINATOR_RE = re.compile(r"[.!?]")
_CLOSERS_RE = re.compile(r"[\"')\]”’]*")
_BREAK_RE = re.compile(r"\n\s*\n|\n\s*(?=[-*•])")
_SPACE_RE = re.compile(r"\s+")
_BULLET_RE = re.compile(r"^[-*•]\s*")


def _is_abbreviation(text: str, dot_index: int) -> bool:
    """True if the period at *dot_index* terminates an abbreviation: a
    known one, a single letter ("a.", initials), or a run of letters,
    digits and periods that holds an earlier period ("u.s.a", "...").

    The walk back covers letters and digits only and stops at the
    first earlier period, so no character is walked by two periods:
    linear in the text, also over a long dotted run."""
    start = dot_index
    while start > 0:
        prev = text[start - 1]
        if prev == ".":
            return True
        if not prev.isalnum():
            break
        start -= 1
    word = text[start:dot_index].lower()
    return word in _ABBREVIATIONS or (len(word) == 1 and word.isalpha())


def _raw_split(text: str) -> list[str]:
    """First-pass split at sentence terminators."""
    sentences: list[str] = []
    start = 0
    n = len(text)
    for match in _TERMINATOR_RE.finditer(text):
        i = match.start()
        if text[i] == "." and (
            _is_abbreviation(text, i)
            # Decimal numbers: "2.5 million".
            or (0 < i < n - 1 and text[i - 1].isdigit()
                and text[i + 1].isdigit())
        ):
            continue
        # The sentence keeps any trailing quote/bracket.
        end = _CLOSERS_RE.match(text, i + 1).end()
        sentence = text[start:end].strip()
        if sentence:
            sentences.append(sentence)
        start = end
    tail = text[start:].strip()
    if tail:
        sentences.append(tail)
    return sentences


def _split_newlines(pieces: list[str]) -> list[str]:
    """Treat blank lines and bullet markers as sentence boundaries."""
    out: list[str] = []
    for piece in pieces:
        for part in _BREAK_RE.split(piece):
            part = _SPACE_RE.sub(" ", part).strip()
            part = _BULLET_RE.sub("", part)
            if part:
                out.append(part)
    return out


def merge_enumerations(sentences: list[str]) -> list[str]:
    """Re-join enumeration lists that the splitter broke apart.

    Implements the paper's rule: if the previous sentence ends with ";"
    or "," or the current sentence starts with a lower-case letter, the
    current sentence is appended to the previous one.
    """
    merged: list[str] = []
    for sent in sentences:
        if merged:
            prev = merged[-1]
            starts_lower = sent[:1].islower()
            prev_open = prev.rstrip().endswith((";", ",", ":"))
            if prev_open or (starts_lower and prev.rstrip().endswith((";", ","))):
                merged[-1] = prev.rstrip() + " " + sent
                continue
        merged.append(sent)
    return merged


def split_sentences(text: str) -> list[str]:
    """Split *text* into sentences, applying the enumeration merge."""
    pieces = _split_newlines([text])
    raw: list[str] = []
    for piece in pieces:
        raw.extend(_raw_split(piece))
    # The enumeration merge also needs ";"-separated fragments that the
    # raw splitter kept inside one piece -- NLTK splits on ";", we emulate
    # that first and then merge back, exercising the paper's fix.
    fragments: list[str] = []
    for sent in raw:
        if ";" in sent:
            parts = [p.strip() for p in sent.split(";")]
            for k, part in enumerate(parts):
                if not part:
                    continue
                fragments.append(part + (";" if k < len(parts) - 1 else ""))
        else:
            fragments.append(sent)
    return merge_enumerations(fragments)


__all__ = ["split_sentences", "merge_enumerations"]
