"""The compiled ESA knowledge base: packed parallel arrays.

This module compiles the concept articles' per-term TF-IDF vectors
(``term -> {concept_id: weight}``) into packed parallel arrays -- a
CSR-style layout of ``(offsets, concept_ids, weights)`` over a sorted
term table -- that the merge-join matcher (:mod:`repro.semantics.esa`)
walks instead of hashing dict keys.

:func:`compile_kb` builds a :class:`CompiledKB` from the concept
articles with *bit-identical* TF-IDF floats: same accumulation and
normalization order as the historical dict build, so every similarity
agrees with the dict-cosine test oracle to the last ulp.  The KB is
small (tens of concepts, hundreds of terms) and compiles in a few
milliseconds, so every process compiles it in memory at startup;
nothing is persisted.  The cosine kernel stays pure Python because
the equivalence contract pins the float summation order.
"""

from __future__ import annotations

import math
import re
from array import array
from dataclasses import dataclass, field

from repro.hashing import fingerprint
from repro.nlp.tokenizer import lemmatize

#: version of the compile recipe; part of :func:`articles_fingerprint`,
#: so bumping it re-keys every ESA-dependent cache entry
KB_SCHEMA_VERSION = 1

_STOPWORDS = {
    "the", "a", "an", "of", "to", "and", "or", "in", "on", "for",
    "with", "by", "from", "at", "as", "is", "are", "be", "was",
    "were", "will", "would", "may", "might", "can", "could", "shall",
    "should", "that", "this", "these", "those", "it", "its", "we",
    "you", "your", "our", "their", "his", "her", "my", "i", "any",
    "all", "some", "such", "other", "about", "into", "than", "then",
    "so", "if", "when", "which", "who", "whom", "what", "how", "not",
    "no", "do", "does", "did", "have", "has", "had",
}

_TOKEN_RE = re.compile(r"[a-z0-9]+(?:[-'][a-z0-9]+)*")


def terms_of(text: str) -> list[str]:
    """Lower-case, tokenize, lemmatize, drop stopwords."""
    out = []
    for raw in _TOKEN_RE.findall(text.lower()):
        if raw in _STOPWORDS:
            continue
        lemma = lemmatize(raw)
        if lemma in _STOPWORDS or not lemma:
            continue
        out.append(lemma)
    return out


def articles_fingerprint(articles: dict[str, str]) -> str:
    """Content hash identifying one concept-article inventory."""
    return fingerprint({"kb_schema": KB_SCHEMA_VERSION,
                        "articles": articles})


@dataclass
class CompiledKB:
    """Packed parallel-array form of the concept knowledge base.

    Term *t* (row ``tid = term_index[t]``) owns the slice
    ``offsets[tid]:offsets[tid + 1]`` of the ``cids`` / ``weights``
    arrays: its L2-normalized TF-IDF interpretation vector, sorted by
    ascending concept id.  All floats are bit-identical to the
    historical dict-of-dicts build.
    """

    concepts: tuple[str, ...]
    terms: tuple[str, ...]
    offsets: array          # 'q', len(terms) + 1
    cids: array             # 'i', concatenated, ascending per term
    weights: array          # 'd', parallel to cids
    articles_fp: str
    term_index: dict[str, int] = field(init=False, repr=False)

    def __post_init__(self) -> None:
        self.term_index = {t: i for i, t in enumerate(self.terms)}

    # -- views -------------------------------------------------------------

    def term_slice(self, term: str) -> tuple[int, int] | None:
        """The ``(start, end)`` row of *term*, or None if unknown."""
        tid = self.term_index.get(term)
        if tid is None:
            return None
        return self.offsets[tid], self.offsets[tid + 1]


def compile_kb(articles: dict[str, str]) -> CompiledKB:
    """Compile the concept articles into packed arrays.

    The float recipe -- ``1 + log(tf)``, smoothed IDF, L2
    normalization summed in ascending concept-id order -- reproduces
    the historical :class:`~repro.semantics.esa.EsaModel` dict build
    bit-for-bit.
    """
    concepts = tuple(sorted(articles))
    tf: dict[str, dict[int, float]] = {}
    doc_freq: dict[str, int] = {}
    for cidx, concept in enumerate(concepts):
        counts: dict[str, int] = {}
        for term in terms_of(articles[concept]):
            counts[term] = counts.get(term, 0) + 1
        for term, count in counts.items():
            tf.setdefault(term, {})[cidx] = 1.0 + math.log(count)
            doc_freq[term] = doc_freq.get(term, 0) + 1
    n_docs = len(concepts)
    terms = tuple(sorted(tf))
    offsets = array("q", [0])
    cids = array("i")
    weights = array("d")
    for term in terms:
        vec = tf[term]
        idf = math.log((1.0 + n_docs) / (1.0 + doc_freq[term])) + 1.0
        # vec keys ascend (concepts were enumerated in sorted order),
        # so the norm sums in ascending concept-id order
        weighted = [(c, w * idf) for c, w in vec.items()]
        norm = math.sqrt(sum(w * w for _, w in weighted))
        for c, w in weighted:
            cids.append(c)
            weights.append(w / norm)
        offsets.append(len(cids))
    return CompiledKB(concepts=concepts, terms=terms, offsets=offsets,
                      cids=cids, weights=weights,
                      articles_fp=articles_fingerprint(articles))


__all__ = [
    "KB_SCHEMA_VERSION",
    "CompiledKB",
    "articles_fingerprint",
    "compile_kb",
    "terms_of",
]
