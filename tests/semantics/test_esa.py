"""ESA similarity tests, including property-based invariants."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.memo import cache_stats
from repro.semantics.esa import (
    DEFAULT_THRESHOLD,
    EsaModel,
    default_model,
    similarity,
)

_PHRASES = st.sampled_from([
    "location", "your precise location", "device id", "contacts",
    "address book", "personal information", "ip address", "cookies",
    "camera", "calendar", "email address", "usage data",
    "random words here", "",
])


class TestSimilarityJudgments:
    @pytest.mark.parametrize("a,b", [
        ("location", "your precise location"),
        ("location information", "geographic location"),
        ("contacts", "address book"),
        ("device id", "imei"),
        ("device identifiers", "device id"),
        ("phone number", "real phone number"),
        ("installed applications", "app list"),
        ("information", "personal information"),  # the paper's FP trait
    ])
    def test_same_thing(self, a, b):
        assert similarity(a, b) > DEFAULT_THRESHOLD

    @pytest.mark.parametrize("a,b", [
        ("location", "contacts"),
        ("camera", "calendar"),
        ("email address", "location"),
        ("device id", "cookies"),
        ("sms", "account"),
        ("usage data", "location"),
        ("crash data", "contacts"),
    ])
    def test_different_things(self, a, b):
        assert similarity(a, b) <= DEFAULT_THRESHOLD

    def test_identity_is_one(self):
        assert similarity("location", "location") == pytest.approx(1.0)

    def test_unknown_terms_zero(self):
        assert similarity("zxqwv", "location") == 0.0

    def test_empty_text_zero(self):
        assert similarity("", "location") == 0.0


class TestModel:
    def test_default_model_is_singleton(self):
        assert default_model() is default_model()

    def test_custom_knowledge_base(self):
        model = EsaModel({"fruit": "apple banana pear",
                          "tool": "hammer wrench saw"})
        assert model.similarity("apple", "banana") > 0.9
        assert model.similarity("apple", "hammer") == 0.0

    def test_same_thing_threshold_override(self):
        model = default_model()
        value = model.similarity("contacts", "contact list")
        assert model.same_thing("contacts", "contact list",
                                threshold=value - 0.01)
        assert not model.same_thing("contacts", "contact list",
                                    threshold=value + 0.01)

    def test_top_concepts_ranked(self):
        top = default_model().top_concepts("your gps location", k=2)
        assert top
        assert top[0][0] == "geographic location"

    def test_cache_info_reports_every_model_cache(self):
        """``cache_info`` keys are the model's ``esa_*`` rows of
        ``cache_stats()``."""
        model = EsaModel({"fruit": "apple banana pear",
                          "tool": "hammer wrench saw"})
        model.match_sets(["apple", "saw"], ["banana", "hammer"])
        model.group_hits([["apple"]], ["banana", "pear"])
        info = model.cache_info()
        registered = {name for name in cache_stats()
                      if name.startswith("esa_")}
        assert {f"esa_{name}" for name in info} == registered
        assert info["interpret"]["misses"] == 5
        assert info["group_index"]["misses"] == 2
        for name, row in info.items():
            assert cache_stats()[f"esa_{name}"]["misses"] \
                >= row["misses"]

    def test_interpret_normalized(self):
        vec = default_model().interpret("location and contacts")
        norm = sum(w * w for w in vec.values()) ** 0.5
        assert norm == pytest.approx(1.0)


class TestProperties:
    @given(_PHRASES, _PHRASES)
    @settings(max_examples=100, deadline=None)
    def test_symmetry(self, a, b):
        assert similarity(a, b) == pytest.approx(similarity(b, a))

    @given(_PHRASES, _PHRASES)
    @settings(max_examples=100, deadline=None)
    def test_bounds(self, a, b):
        value = similarity(a, b)
        assert 0.0 <= value <= 1.0

    @given(_PHRASES)
    @settings(max_examples=50, deadline=None)
    def test_self_similarity_max(self, phrase):
        self_sim = similarity(phrase, phrase)
        assert self_sim in (0.0, pytest.approx(1.0))
