"""HTML-to-text extraction (replaces Beautiful Soup for Step 1).

Privacy policies are served as simple HTML.  This extractor:

- drops ``<script>``, ``<style>``, ``<head>``, and comments wholesale,
- turns block-level tags into paragraph breaks and ``<li>`` into
  bullet lines,
- decodes the HTML entities that occur in practice,
- removes non-ASCII symbols and meaningless ASCII control characters
  (the paper restricts itself to English-letter content).
"""

from __future__ import annotations

import re

_BLOCK_TAGS = {
    "p", "div", "br", "li", "ul", "ol", "h1", "h2", "h3", "h4", "h5",
    "h6", "tr", "table", "section", "article", "header", "footer",
    "blockquote", "pre",
}

_DROP_TAGS = {"script", "style", "head", "noscript", "template"}

_ENTITIES = {
    "&amp;": "&", "&lt;": "<", "&gt;": ">", "&quot;": '"',
    "&apos;": "'", "&#39;": "'", "&#34;": '"', "&nbsp;": " ",
    "&mdash;": "-", "&ndash;": "-", "&rsquo;": "'", "&lsquo;": "'",
    "&rdquo;": '"', "&ldquo;": '"', "&hellip;": "...", "&copy;": "",
    "&reg;": "", "&trade;": "", "&bull;": "-", "&middot;": "-",
}

_TAG_RE = re.compile(r"<(/?)([a-zA-Z][a-zA-Z0-9]*)[^>]*>")
_COMMENT_RE = re.compile(r"<!--.*?-->", re.DOTALL)
_DOCTYPE_RE = re.compile(r"<!DOCTYPE[^>]*>", re.IGNORECASE)
_NUMERIC_ENTITY_RE = re.compile(r"&#(x?[0-9a-fA-F]+);")
# Non-ASCII and ASCII control characters, except the newline.
_NON_TEXT_RE = re.compile(r"[^\n\x20-\x7e]+")


def _decode_entities(text: str) -> str:
    for entity, repl in _ENTITIES.items():
        text = text.replace(entity, repl)

    def _numeric(match: re.Match[str]) -> str:
        body = match.group(1)
        try:
            code = int(body[1:], 16) if body.startswith(("x", "X")) else int(body)
        except ValueError:
            return " "
        if 32 <= code < 127:
            return chr(code)
        return " "

    return _NUMERIC_ENTITY_RE.sub(_numeric, text)


def html_to_text(html: str) -> str:
    """Extract readable ASCII text from an HTML privacy policy."""
    text = _COMMENT_RE.sub(" ", html)
    text = _DOCTYPE_RE.sub(" ", text)

    # Remove drop-tag bodies.
    for tag in _DROP_TAGS:
        text = re.sub(
            rf"<{tag}\b[^>]*>.*?</{tag}>", " ", text,
            flags=re.DOTALL | re.IGNORECASE,
        )

    out: list[str] = []
    pos = 0
    for match in _TAG_RE.finditer(text):
        out.append(text[pos:match.start()])
        tag = match.group(2).lower()
        if tag == "li":
            out.append("\n\n- " if not match.group(1) else "\n")
        elif tag in _BLOCK_TAGS:
            out.append("\n\n")
        else:
            out.append(" ")
        pos = match.end()
    out.append(text[pos:])

    flat = _decode_entities("".join(out))
    flat = _NON_TEXT_RE.sub("", flat)
    # Collapse runs of spaces, keep paragraph breaks.
    flat = re.sub(r"[ \t]+", " ", flat)
    flat = re.sub(r" ?\n ?", "\n", flat)
    flat = re.sub(r"\n{3,}", "\n\n", flat)
    return flat.strip()


__all__ = ["html_to_text"]
