"""Property tests for the compiled (merge-join) ESA matcher.

The packed-array representation promises *bitwise* agreement with the
historical dict-of-dicts cosine, not approximate agreement.  Two
families of properties pin that down:

- kernel equivalence: :func:`repro.semantics.esa._merge_cosine` over
  sorted ``(concept_id, weight)`` arrays equals the oracle's dict
  ``_cosine`` (``tests/semantics/esa_reference.py``) over the same
  canonical sparse dicts with ``==`` on the floats -- including
  empty, disjoint, single-concept, and duplicate-weight vectors -- and
  is symmetric in its arguments;
- compile determinism: two compiles of the same article inventory
  agree exactly (concepts, terms, and the packed arrays, bit for bit),
  for arbitrary generated inventories.
"""

from __future__ import annotations

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.semantics.compiled import CompiledKB, compile_kb
from repro.semantics.esa import _merge_cosine
from repro.semantics.knowledge import CONCEPT_ARTICLES
from tests.semantics.esa_reference import _cosine

_WEIGHTS = st.floats(min_value=0.0, max_value=1e3,
                     allow_nan=False, allow_infinity=False)

#: canonical sparse vector: ascending concept-id keys
_SPARSE = st.dictionaries(
    st.integers(min_value=0, max_value=40), _WEIGHTS, max_size=10,
).map(lambda vec: dict(sorted(vec.items())))


def _arrays(vec: dict[int, float]) -> tuple[list[int], list[float]]:
    return list(vec), list(vec.values())


class TestMergeCosineEquivalence:
    @given(_SPARSE, _SPARSE)
    @example({}, {})                          # both empty
    @example({0: 1.0}, {1: 1.0})              # disjoint supports
    @example({3: 0.5}, {3: 0.5})              # single shared concept
    @example({0: 0.25, 7: 0.25}, {0: 0.25, 7: 0.25})  # duplicate weights
    @example({0: 0.0, 1: 1.0}, {0: 1.0, 1: 0.0})      # explicit zeros
    @settings(max_examples=300, deadline=None)
    def test_merge_join_equals_dict_cosine(self, vec_a, vec_b):
        cids_a, weights_a = _arrays(vec_a)
        cids_b, weights_b = _arrays(vec_b)
        merged = _merge_cosine(cids_a, weights_a, cids_b, weights_b)
        scalar = _cosine("a", vec_a, "b", vec_b)
        # bitwise equality, not tolerance: both kernels sum the shared
        # concepts in ascending concept-id order
        assert merged == scalar

    @given(_SPARSE, _SPARSE)
    @settings(max_examples=200, deadline=None)
    def test_merge_join_symmetric(self, vec_a, vec_b):
        cids_a, weights_a = _arrays(vec_a)
        cids_b, weights_b = _arrays(vec_b)
        forward = _merge_cosine(cids_a, weights_a, cids_b, weights_b)
        backward = _merge_cosine(cids_b, weights_b, cids_a, weights_a)
        assert forward == backward

    @given(_SPARSE)
    @settings(max_examples=100, deadline=None)
    def test_empty_side_is_zero(self, vec):
        cids, weights = _arrays(vec)
        assert _merge_cosine([], [], cids, weights) == 0.0
        assert _merge_cosine(cids, weights, [], []) == 0.0


_WORDS = st.lists(
    st.text(alphabet="abcdefghij", min_size=2, max_size=6),
    min_size=1, max_size=12,
).map(" ".join)

_ARTICLES = st.dictionaries(
    st.text(alphabet="ABCDEFGH", min_size=1, max_size=8),
    _WORDS, min_size=1, max_size=6,
)


def _assert_kb_equal(left: CompiledKB, right: CompiledKB) -> None:
    assert left.concepts == right.concepts
    assert left.terms == right.terms
    assert list(left.offsets) == list(right.offsets)
    assert list(left.cids) == list(right.cids)
    # float weights must agree bit for bit (the raw IEEE-754 bytes)
    assert left.weights.tobytes() == right.weights.tobytes()
    assert left.articles_fp == right.articles_fp
    assert left.term_index == right.term_index


class TestCompileDeterminism:
    @given(_ARTICLES)
    @example(CONCEPT_ARTICLES)               # the embedded KB
    @settings(max_examples=60, deadline=None)
    def test_compile_is_deterministic(self, articles):
        _assert_kb_equal(compile_kb(articles), compile_kb(articles))
