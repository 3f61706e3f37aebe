"""Property tests for the memoized ESA hot paths.

The optimization layer promises exactness, not approximation: the
memoized ``similarity`` must agree with the memo-off model and with
the dict-cosine oracle (``tests/semantics/esa_reference.py``) to the
last ulp, stay symmetric, and the batch entry points
(``similarity_many``, ``match_sets``, ``any_match``, ``group_hits``)
must agree pairwise with the scalar predicate.  Phrases are drawn
from the corpus vocabulary -- information surfaces,
:data:`ALIAS_SWAPS` paraphrases, and policy resource wording --
because that is what the detectors actually score.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.corpus.mutations import ALIAS_SWAPS
from repro.description.permission_map import INFO_SURFACE
from repro.memo import clear_caches
from repro.semantics.esa import default_model
from tests.semantics.esa_reference import ReferenceEsa, disable_memo

#: the cache-free dict-cosine oracle
_ORACLE = ReferenceEsa()


def _planes(compute) -> list:
    """``compute(model)`` on every plane, in order: the default model,
    the default model with every memo cache missing, and the oracle.
    All of them must agree bitwise."""
    esa = default_model()
    clear_caches()
    out = [compute(esa)]
    with pytest.MonkeyPatch.context() as mp:
        disable_memo(mp)
        out.append(compute(esa))
    before = _ORACLE.calls
    out.append(compute(_ORACLE))
    assert _ORACLE.calls > before
    return out


_POOL = sorted(
    {surface for aliases in INFO_SURFACE.values() for surface in aliases}
    | set(ALIAS_SWAPS)
    | set(ALIAS_SWAPS.values())
    | {
        "your precise location", "personal information",
        "usage data", "ip address", "cookies", "crash data",
        "  Location  ", "DEVICE ID",  # normalization fodder
        "zxqwv unknown terms", "",
    }
)

_PHRASES = st.sampled_from(_POOL)
_PHRASE_LISTS = st.lists(_PHRASES, min_size=0, max_size=6)


@pytest.fixture(autouse=True)
def fresh_caches():
    yield
    clear_caches()


class TestMemoExactness:
    @given(_PHRASES, _PHRASES)
    @settings(max_examples=150, deadline=None)
    def test_memoized_equals_unmemoized(self, a, b):
        memoized, plain, _ = _planes(lambda model: model.similarity(a, b))
        assert abs(memoized - plain) <= 1e-9
        # the canonical cosine makes the agreement exact, not approximate
        assert memoized == plain

    @given(_PHRASES, _PHRASES)
    @settings(max_examples=150, deadline=None)
    def test_symmetry_exact(self, a, b):
        for forward, backward in _planes(
                lambda model: (model.similarity(a, b),
                               model.similarity(b, a))):
            assert forward == backward

    @given(_PHRASES, _PHRASES)
    @settings(max_examples=150, deadline=None)
    def test_all_planes_agree_bitwise(self, a, b):
        """The compiled model (memoized or not) and the dict-cosine
        oracle compute the same float."""
        assert len(set(_planes(lambda model: model.similarity(a, b)))) == 1


class TestBatchAgreement:
    @given(_PHRASES, _PHRASE_LISTS)
    @settings(max_examples=100, deadline=None)
    def test_similarity_many_pairwise(self, text, candidates):
        esa = default_model()
        batched = esa.similarity_many(text, candidates)
        assert batched == [esa.similarity(text, c) for c in candidates]

    @given(_PHRASE_LISTS, _PHRASE_LISTS)
    @settings(max_examples=100, deadline=None)
    def test_match_sets_agrees_with_nested_loop(self, texts_a, texts_b):
        esa = default_model()
        reference = [
            (i, j, esa.similarity(a, b))
            for i, a in enumerate(texts_a)
            for j, b in enumerate(texts_b)
            if esa.similarity(a, b) > esa.threshold
        ]
        for plane, got in enumerate(_planes(
                lambda model: model.match_sets(texts_a, texts_b))):
            assert got == reference, plane

    @given(_PHRASE_LISTS, _PHRASE_LISTS)
    @settings(max_examples=100, deadline=None)
    def test_any_match_agrees_with_nested_loop(self, texts_a, texts_b):
        esa = default_model()
        reference = any(
            esa.same_thing(a, b) for a in texts_a for b in texts_b
        )
        for plane, got in enumerate(_planes(
                lambda model: model.any_match(texts_a, texts_b))):
            assert got == reference, plane

    @given(st.lists(_PHRASE_LISTS, min_size=0, max_size=4),
           _PHRASE_LISTS)
    @settings(max_examples=100, deadline=None)
    def test_group_hits_agrees_with_nested_loop(self, groups, texts_b):
        esa = default_model()
        reference = [
            {
                j for j, b in enumerate(texts_b)
                if any(esa.same_thing(a, b) for a in group)
            }
            for group in groups
        ]
        for plane, got in enumerate(_planes(
                lambda model: model.group_hits(groups, texts_b))):
            assert got == reference, plane
