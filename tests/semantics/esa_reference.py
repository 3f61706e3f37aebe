"""Test oracle for the ESA matcher.

:class:`ReferenceEsa` has the :class:`repro.semantics.esa.EsaModel`
interface but none of its machinery: no memo caches, no packed
arrays, no merge join, no inverted index.  Term vectors are plain
dicts read out of a :class:`~repro.semantics.compiled.CompiledKB`,
interpretation is a dict accumulation, similarity is the dict
:func:`_cosine`, and every batch entry point is the compute-every-pair
nested loop its docstring promises.

The differential suites byte-compare study, ``check --json`` and
example output between the production model and this oracle.  Inject
it through ``InfoMatcher(esa=...)`` / ``AutoCog(esa=...)`` on a fresh
``PPChecker``, or by monkeypatching ``repro.semantics.esa._DEFAULT``
for in-process CLI runs.  ``calls`` counts entry-point calls so a test
can prove the oracle was actually consulted.

:func:`disable_memo` is the matching reference for the memo layer:
every :class:`~repro.memo.MemoCache` lookup misses and nothing is
stored (the ``no_memo`` fixture in ``tests/conftest.py``).
"""

from __future__ import annotations

import math

from repro.hashing import fingerprint
from repro.memo import MISS, MemoCache
from repro.semantics.compiled import CompiledKB, compile_kb, terms_of
from repro.semantics.esa import DEFAULT_THRESHOLD, _norm_key
from repro.semantics.knowledge import CONCEPT_ARTICLES


def _cosine(key_a: str, vec_a: dict[int, float],
            key_b: str, vec_b: dict[int, float]) -> float:
    """Dot product of two L2-normalized sparse dict vectors, clamped
    to [0, 1].  The iteration order is canonical (smaller vector
    first, ties broken by key; keys ascend within a vector), so the
    float is independent of the argument order; the extra
    ``w * 0.0`` terms are exact no-ops, so it sums the shared
    concepts in the same ascending order as ``_merge_cosine``."""
    if (len(vec_b), key_b) < (len(vec_a), key_a):
        vec_a, vec_b = vec_b, vec_a
    dot = sum(w * vec_b.get(c, 0.0) for c, w in vec_a.items())
    return max(0.0, min(1.0, dot))


def disable_memo(monkeypatch) -> None:
    """Make every memo cache miss and store nothing, for the lifetime
    of *monkeypatch* (a ``pytest.MonkeyPatch``)."""
    monkeypatch.setattr(MemoCache, "get", lambda self, key: MISS)
    monkeypatch.setattr(MemoCache, "put", lambda self, key, value: None)


def term_vectors(kb: CompiledKB) -> dict[str, dict[int, float]]:
    """The dict-of-dicts view of *kb*: ``term -> {concept_id:
    weight}``, keys ascending."""
    out: dict[str, dict[int, float]] = {}
    for tid, term in enumerate(kb.terms):
        start, end = kb.offsets[tid], kb.offsets[tid + 1]
        out[term] = dict(zip(kb.cids[start:end], kb.weights[start:end]))
    return out


class ReferenceEsa:
    """Cache-free dict-plane ESA with the ``EsaModel`` interface."""

    def __init__(self, kb: CompiledKB | None = None,
                 threshold: float = DEFAULT_THRESHOLD) -> None:
        self.kb = compile_kb(CONCEPT_ARTICLES) if kb is None else kb
        self.threshold = threshold
        self.calls = 0
        self._term_vectors = term_vectors(self.kb)

    def fingerprint(self) -> str:
        """Same recipe as ``EsaModel.fingerprint``: the oracle scores
        the same knowledge base, so it shares the stage cache key."""
        return fingerprint({"esa_kb": self.kb.articles_fp,
                            "threshold": self.threshold})

    def interpret(self, text: str) -> dict[int, float]:
        """Centroid of the text's term vectors, per-concept sums in
        term order, normalized with the norm summed ascending."""
        acc: dict[int, float] = {}
        for term in terms_of(text):
            vec = self._term_vectors.get(term)
            if vec is None:
                continue
            for cidx, weight in vec.items():
                acc[cidx] = acc.get(cidx, 0.0) + weight
        if not acc:
            return {}
        items = sorted(acc.items())
        norm = math.sqrt(sum(w * w for _, w in items))
        if norm == 0.0:
            return {}
        return {c: w / norm for c, w in items}

    def _score(self, text_a: str, text_b: str) -> float:
        vec_a = self.interpret(text_a)
        vec_b = self.interpret(text_b)
        if not vec_a or not vec_b:
            return 0.0
        return _cosine(_norm_key(text_a), vec_a, _norm_key(text_b), vec_b)

    def _limit(self, threshold: float | None) -> float:
        return self.threshold if threshold is None else threshold

    # -- the EsaModel entry points (each bumps ``calls``) ------------------

    def similarity(self, text_a: str, text_b: str) -> float:
        self.calls += 1
        return self._score(text_a, text_b)

    def same_thing(self, text_a: str, text_b: str,
                   threshold: float | None = None) -> bool:
        return self.similarity(text_a, text_b) > self._limit(threshold)

    def similarity_many(self, text: str,
                        candidates: list[str]) -> list[float]:
        self.calls += 1
        return [self._score(text, c) for c in candidates]

    def any_match(self, texts_a: list[str], texts_b: list[str],
                  threshold: float | None = None) -> bool:
        self.calls += 1
        limit = self._limit(threshold)
        return any(self._score(a, b) > limit
                   for a in texts_a for b in texts_b)

    def match_sets(self, texts_a: list[str], texts_b: list[str],
                   threshold: float | None = None,
                   ) -> list[tuple[int, int, float]]:
        self.calls += 1
        limit = self._limit(threshold)
        out = []
        for i, text_a in enumerate(texts_a):
            for j, text_b in enumerate(texts_b):
                sim = self._score(text_a, text_b)
                if sim > limit:
                    out.append((i, j, sim))
        return out

    def group_hits(self, groups: list[list[str]], texts_b: list[str],
                   threshold: float | None = None) -> list[set[int]]:
        self.calls += 1
        limit = self._limit(threshold)
        return [
            {j for j, text_b in enumerate(texts_b)
             if any(self._score(a, text_b) > limit for a in group)}
            for group in groups
        ]

    def cache_info(self) -> dict[str, dict[str, int]]:
        return {}

    def top_concepts(self, text: str,
                     k: int = 3) -> list[tuple[str, float]]:
        ranked = sorted(self.interpret(text).items(),
                        key=lambda cw: -cw[1])[:k]
        return [(self.kb.concepts[c], w) for c, w in ranked]
