"""Explicit Semantic Analysis (Gabrilovich & Markovitch, 2007).

Given a knowledge base of concept articles, each term receives a vector
of TF-IDF weights over concepts (its *interpretation vector*).  A text
is interpreted as the centroid of its terms' vectors; the semantic
similarity of two texts is the cosine of their interpretation vectors.

PPChecker uses ``Similarity(a, b) > threshold`` with ``threshold =
0.67`` (following AutoCog) to decide whether two information phrases
refer to the same thing.

The knowledge base is compiled into packed parallel arrays
(:mod:`repro.semantics.compiled`), interpretation vectors are sorted
``(concept_id, weight)`` arrays, and :func:`_merge_cosine` walks two
sorted arrays with two pointers.  The batch entry points
(:meth:`EsaModel.match_sets`, :meth:`EsaModel.any_match`,
:meth:`EsaModel.similarity_many`, :meth:`EsaModel.group_hits`)
interpret every distinct text once per call and drive one inverted
concept-index pass per policy; pairs that share no concept have
cosine exactly 0 and are never scored.

All vectors sum in *ascending concept-id order* (the canonical
order), so every float is reproducible to the last ulp.  The test
suite keeps the historical dict-of-dicts cosine and compute-every-pair
matchers as an oracle (``tests/semantics/esa_reference.py``) and
byte-compares study output against it.  Two bounded memo caches
(:mod:`repro.memo`) sit on top: interpretations per normalized text
and inverted-index views per distinct text tuple.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from repro.memo import MISS, MemoCache
from repro.semantics.compiled import (
    CompiledKB,
    compile_kb,
    terms_of as _terms,
)
from repro.semantics.knowledge import CONCEPT_ARTICLES

#: The decision threshold used throughout the paper (Section IV-A).
DEFAULT_THRESHOLD = 0.67


def _norm_key(text: str) -> str:
    """Cache key: casefold and collapse whitespace.  Tokenization is
    case-insensitive and whitespace-blind, so two texts with the same
    key always yield the same interpretation vector."""
    return " ".join(text.lower().split())


def _merge_cosine(cids_a: list[int], weights_a: list[float],
                  cids_b: list[int], weights_b: list[float]) -> float:
    """Dot product of two L2-normalized sparse vectors: a two-pointer
    merge join over two ascending ``(concept_id, weight)`` arrays,
    clamped to [0, 1].

    Shared concepts are summed in ascending concept-id order, so the
    join is symmetric by construction and equals, bit for bit, a dict
    cosine that sums canonical vectors in the same order."""
    i = j = 0
    len_a = len(cids_a)
    len_b = len(cids_b)
    dot = 0.0
    while i < len_a and j < len_b:
        ca = cids_a[i]
        cb = cids_b[j]
        if ca == cb:
            dot += weights_a[i] * weights_b[j]
            i += 1
            j += 1
        elif ca < cb:
            i += 1
        else:
            j += 1
    return max(0.0, min(1.0, dot))


class Interp:
    """One memoized interpretation: sorted parallel
    ``(concept_ids, weights)`` arrays.  Shared across callers and
    treated as immutable."""

    __slots__ = ("cids", "weights")

    def __init__(self, cids: list[int], weights: list[float]) -> None:
        self.cids = cids
        self.weights = weights


def _pair_sim(a: Interp, b: Interp) -> float:
    return _merge_cosine(a.cids, a.weights, b.cids, b.weights)


@dataclass
class EsaModel:
    """An ESA interpreter over a concept knowledge base."""

    articles: dict[str, str]
    threshold: float = DEFAULT_THRESHOLD
    #: precompiled knowledge base; compiled from ``articles`` when not
    #: supplied (``default_model`` loads it from the binary artifact)
    kb: CompiledKB | None = field(default=None, repr=False)
    _concepts: list[str] = field(default_factory=list, repr=False)

    def __post_init__(self) -> None:
        # bounded memo caches (see repro.memo); texts repeat massively
        # across apps, so both have study-scale hit rates
        self._interp_cache = MemoCache("esa_interpret")
        # batch side-views: one (interps, inverted index) per distinct
        # text tuple -- the surface lists and policy phrase pools the
        # detectors probe with repeat across thousands of calls
        self._group_cache = MemoCache("esa_group_index",
                                      max_entries=8192)
        if self.kb is None:
            self.kb = compile_kb(self.articles)
        self._concepts = list(self.kb.concepts)

    def fingerprint(self) -> str:
        """Content hash of the knowledge base + threshold (part of
        the ``detect`` stage cache key via ``InfoMatcher``)."""
        from repro.hashing import fingerprint

        return fingerprint({"esa_kb": self.kb.articles_fp,
                            "threshold": self.threshold})

    # -- interpretation ----------------------------------------------------

    def interpret(self, text: str) -> dict[int, float]:
        """Interpretation vector of *text* (sparse, L2-normalized,
        keys ascending).

        Returns a fresh dict; the memoized vector stays private."""
        interp = self._interp(text)
        return dict(zip(interp.cids, interp.weights))

    def _compute_interpret(self, text: str) -> Interp:
        """Centroid of the text's term vectors: dense per-concept sums
        driven by the packed KB arrays (per-concept addition follows
        term order), then L2-normalized with the norm summed in
        ascending concept-id order."""
        kb = self.kb
        offsets, cids, weights = kb.offsets, kb.cids, kb.weights
        term_index = kb.term_index
        acc = [0.0] * len(self._concepts)
        touched = False
        for term in _terms(text):
            tid = term_index.get(term)
            if tid is None:
                continue
            touched = True
            for k in range(offsets[tid], offsets[tid + 1]):
                acc[cids[k]] += weights[k]
        if not touched:
            return Interp([], [])
        hit = [c for c, w in enumerate(acc) if w != 0.0]
        sums = [acc[c] for c in hit]
        norm = math.sqrt(sum(w * w for w in sums))
        if norm == 0.0:
            return Interp([], [])
        return Interp(hit, [w / norm for w in sums])

    def _interp(self, text: str) -> Interp:
        """The memoized :class:`Interp` of *text* (shared; treat as
        immutable)."""
        key = _norm_key(text)
        interp = self._interp_cache.get(key)
        if interp is MISS:
            interp = self._compute_interpret(text)
            self._interp_cache.put(key, interp)
        return interp

    def _interp_local(self, text: str,
                      local: dict[str, Interp]) -> Interp:
        """Per-call interpretation dedup: within one batch call every
        distinct text interprets once, even after an LRU eviction.
        Keyed on the raw string so repeats skip :func:`_norm_key` and
        the cache lock entirely."""
        interp = local.get(text)
        if interp is None:
            interp = self._interp(text)
            local[text] = interp
        return interp

    def _group_view(self, texts: list[str], local: dict[str, Interp],
                    ) -> tuple[list[Interp], dict[int, list[int]]]:
        """The ``(interps, inverted concept index)`` view of a text
        list, memoized per distinct tuple: the surface lists and
        policy phrase pools the batch entry points probe with repeat
        across thousands of calls, so a cold study run builds each
        view once instead of once per call."""
        key = tuple(texts)
        view = self._group_cache.get(key)
        if view is MISS:
            interps = [self._interp_local(t, local) for t in texts]
            view = (interps, self._inverted_index(interps))
            self._group_cache.put(key, view)
        return view

    def similarity(self, text_a: str, text_b: str) -> float:
        """Cosine similarity of the two interpretation vectors in [0, 1]."""
        return _pair_sim(self._interp(text_a), self._interp(text_b))

    def same_thing(self, text_a: str, text_b: str,
                   threshold: float | None = None) -> bool:
        """The paper's matching predicate: similarity above threshold."""
        limit = self.threshold if threshold is None else threshold
        return self.similarity(text_a, text_b) > limit

    # -- batch entry points ------------------------------------------------

    def similarity_many(self, text: str,
                        candidates: list[str]) -> list[float]:
        """``similarity(text, c)`` for every candidate, interpreting
        *text* once (and each distinct candidate once).  Agrees
        pairwise with :meth:`similarity`."""
        interp = self._interp(text)
        local: dict[str, Interp] = {}
        return [_pair_sim(interp, self._interp_local(c, local))
                for c in candidates]

    @staticmethod
    def _inverted_index(interps: list[Interp]) -> dict[int, list[int]]:
        """concept id -> indexes of the interps containing it."""
        index: dict[int, list[int]] = {}
        for j, interp in enumerate(interps):
            for concept in interp.cids:
                index.setdefault(concept, []).append(j)
        return index

    @staticmethod
    def _candidates(interp: Interp,
                    index: dict[int, list[int]]) -> list[int]:
        """Shared-concept candidates, ascending.  Skipped indexes
        have cosine exactly 0; exact for any ``threshold >= 0``."""
        return sorted({
            j for concept in interp.cids
            for j in index.get(concept, ())
        })

    def any_match(self, texts_a: list[str], texts_b: list[str],
                  threshold: float | None = None) -> bool:
        """Is any (a, b) pair above the threshold?  Early-exits on the
        first hit; equals ``any(same_thing(a, b) for a for b)``."""
        limit = self.threshold if threshold is None else threshold
        local: dict[str, Interp] = {}
        interps_a, index_a = self._group_view(texts_a, local)
        for text_b in texts_b:
            interp_b = self._interp_local(text_b, local)
            for i in self._candidates(interp_b, index_a):
                if _pair_sim(interps_a[i], interp_b) > limit:
                    return True
        return False

    def match_sets(self, texts_a: list[str], texts_b: list[str],
                   threshold: float | None = None,
                   ) -> list[tuple[int, int, float]]:
        """All ``(i, j, similarity)`` with similarity above the
        threshold, ordered by ``(i, j)`` -- the order of the nested
        reference loop, so first-hit call sites stay byte-identical.

        Candidates are pruned through a shared-concept inverted index
        over *texts_a* (the repeated side, memoized per distinct
        tuple): a pair whose vectors share no concept has cosine
        exactly 0 and is never scored, which is exact for any
        ``threshold >= 0``.  Hits sort back into ``(i, j)`` order and
        each similarity is the symmetric :func:`_merge_cosine` value,
        so the scan direction does not show in the output.
        """
        limit = self.threshold if threshold is None else threshold
        local: dict[str, Interp] = {}
        interps_a, index_a = self._group_view(texts_a, local)
        out: list[tuple[int, int, float]] = []
        for j, text_b in enumerate(texts_b):
            interp_b = self._interp_local(text_b, local)
            for i in self._candidates(interp_b, index_a):
                sim = _pair_sim(interps_a[i], interp_b)
                if sim > limit:
                    out.append((i, j, sim))
        out.sort(key=lambda hit: (hit[0], hit[1]))
        return out

    def group_hits(self, groups: list[list[str]], texts_b: list[str],
                   threshold: float | None = None) -> list[set[int]]:
        """For each *group* of texts, the set of indexes ``j`` such
        that some ``(a, b_j)`` pair scores above the threshold.

        This is the one-pass-per-policy primitive behind Alg. 1-5
        batching: *texts_b* (a policy's phrases) is interpreted and
        indexed once, then every group (an information type's
        surfaces) probes the shared index.  Per group it equals
        ``{j for j, b in enumerate(texts_b)
        if any_match(group, [b])}``.
        """
        limit = self.threshold if threshold is None else threshold
        local: dict[str, Interp] = {}
        interps_b, index_b = self._group_view(texts_b, local)
        out: list[set[int]] = []
        for group in groups:
            hits: set[int] = set()
            for text_a in group:
                interp_a = self._interp_local(text_a, local)
                for j in self._candidates(interp_a, index_b):
                    if j in hits:
                        continue
                    if _pair_sim(interp_a, interps_b[j]) > limit:
                        hits.add(j)
            out.append(hits)
        return out

    def cache_info(self) -> dict[str, dict[str, int]]:
        """Hit/miss/size counters of this model's memo caches (the
        ``esa_interpret`` and ``esa_group_index`` rows of
        :func:`repro.memo.cache_stats`)."""
        return {
            "interpret": self._interp_cache.stats(),
            "group_index": self._group_cache.stats(),
        }

    def top_concepts(self, text: str, k: int = 3) -> list[tuple[str, float]]:
        """The k concepts with the highest interpretation weight."""
        vec = self.interpret(text)
        ranked = sorted(vec.items(), key=lambda cw: -cw[1])[:k]
        return [(self._concepts[c], w) for c, w in ranked]


_DEFAULT: EsaModel | None = None


def default_model() -> EsaModel:
    """The process-wide ESA model over the embedded knowledge base.

    The compiled knowledge base loads from the versioned binary
    artifact when one verifies (see
    :func:`repro.semantics.resources.load_compiled_kb`), falling back
    to an in-memory compile."""
    global _DEFAULT
    if _DEFAULT is None:
        from repro.semantics.resources import load_compiled_kb

        _DEFAULT = EsaModel(CONCEPT_ARTICLES,
                            kb=load_compiled_kb(CONCEPT_ARTICLES))
    return _DEFAULT


def similarity(text_a: str, text_b: str) -> float:
    """Module-level convenience wrapper over :func:`default_model`."""
    return default_model().similarity(text_a, text_b)


def similarity_many(text: str, candidates: list[str]) -> list[float]:
    """Module-level convenience wrapper over :func:`default_model`."""
    return default_model().similarity_many(text, candidates)


def match_sets(texts_a: list[str], texts_b: list[str],
               threshold: float | None = None,
               ) -> list[tuple[int, int, float]]:
    """Module-level convenience wrapper over :func:`default_model`."""
    return default_model().match_sets(texts_a, texts_b, threshold)


__all__ = [
    "EsaModel",
    "Interp",
    "DEFAULT_THRESHOLD",
    "default_model",
    "similarity",
    "similarity_many",
    "match_sets",
]
