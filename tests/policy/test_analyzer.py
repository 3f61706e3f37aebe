"""Policy-analyzer pipeline tests (the six steps end to end)."""

import pytest

from repro.policy.analyzer import PolicyAnalyzer, detect_disclaimer
from repro.policy.verbs import VerbCategory

POLICY = """
<html><body>
<h1>Privacy Policy</h1>
<p>When you use our app, we may collect and process your location,
IP address and device identifiers.</p>
<p>We may share your personal information with advertising partners.</p>
<p>We will not store your real phone number, name and contacts.</p>
<p>We are allowed to access your contact list.</p>
<p>Your preferences may be retained on our servers.</p>
</body></html>
"""


@pytest.fixture(scope="module")
def analysis(analyzer):
    return analyzer.analyze(POLICY, html=True)


class TestPipeline:
    def test_sentences_extracted(self, analysis):
        assert len(analysis.sentences) >= 5

    def test_collect_statements(self, analysis):
        assert "location" in analysis.collected
        assert "contact list" in analysis.collected

    def test_use_statements(self, analysis):
        # "collect and process" coordination yields a use statement
        assert "location" in analysis.used

    def test_disclose_statements(self, analysis):
        assert "personal information" in analysis.disclosed

    def test_retain_statements(self, analysis):
        assert "preferences" in analysis.retained

    def test_negative_statements(self, analysis):
        assert "real phone number" in analysis.not_retained
        assert "contacts" in analysis.not_retained

    def test_all_positive_union(self, analysis):
        union = analysis.all_positive()
        assert "location" in union
        assert "personal information" in union
        assert "real phone number" not in union

    def test_all_negative_union(self, analysis):
        assert "contacts" in analysis.all_negative()

    def test_statement_partition(self, analysis):
        total = (len(analysis.positive_statements())
                 + len(analysis.negative_statements()))
        assert total == len(analysis.statements)

    def test_no_disclaimer_here(self, analysis):
        assert not analysis.has_third_party_disclaimer


class TestDisclaimer:
    def test_paper_disclaimer_detected(self):
        sentences = [
            "We encourage you to review the privacy practices of these "
            "third parties before disclosing any personally "
            "identifiable information, as we are not responsible for "
            "the privacy practices of those sites."
        ]
        assert detect_disclaimer(sentences)

    def test_not_responsible_plus_third(self):
        assert detect_disclaimer(
            ["We are not responsible for third party conduct."]
        )

    def test_ordinary_text_no_disclaimer(self):
        assert not detect_disclaimer(["We collect your location."])

    def test_analyzer_flags_disclaimer(self, analyzer):
        analysis = analyzer.analyze(
            "We are not responsible for the privacy practices of "
            "those sites."
        )
        assert analysis.has_third_party_disclaimer


class TestAnalyzerBehaviour:
    def test_plain_text_input(self, analyzer):
        analysis = analyzer.analyze("We collect your location.")
        assert "location" in analysis.collected

    def test_repeat_analysis_is_equal_and_independent(self, analyzer):
        """The analyzer keeps no cache of its own (the pipeline's
        artifact store is the one): a repeat gives an equal, fresh
        analysis."""
        first = analyzer.analyze("We collect your location.")
        second = analyzer.analyze("We collect your location.")
        assert first == second
        assert first is not second

    def test_empty_policy(self, analyzer):
        analysis = analyzer.analyze("")
        assert analysis.statements == []
        assert analysis.all_positive() == set()

    def test_boilerplate_produces_no_statements(self, analyzer):
        analysis = analyzer.analyze(
            "This privacy policy applies to all users of the app. "
            "We may update this policy from time to time. "
            "If you have any questions about this policy, please "
            "contact us."
        )
        assert analysis.statements == []

    def test_module_level_helper(self):
        from repro.policy.analyzer import analyze_policy
        analysis = analyze_policy("We collect your location.")
        assert "location" in analysis.collected
