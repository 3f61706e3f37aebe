"""Integration test on a long, realistic policy document.

Modelled on the paper's Fig. 1 excerpt (the Golf Live Extra policy):
mixed HTML, enumeration lists, conditionals, third-party sections,
disclaimers, boilerplate -- the pipeline must pull out exactly the
right statements and nothing from the noise.
"""

import pytest

from repro.policy.analyzer import PolicyAnalyzer
from repro.policy.verbs import VerbCategory

GOLF_POLICY = """
<html>
<head><title>Privacy Policy</title>
<style>h2 { color: #333; }</style>
<script>trackPageView();</script>
</head>
<body>
<h1>Golf Live Extra &mdash; Privacy Policy</h1>
<p>This privacy policy applies to all users of the app. Please read
it carefully before using the service.</p>

<h2>Information We Collect</h2>
<p>When you use the app, we may collect and process the following
information: your location; your IP address; your device
identifiers.</p>
<p>If you register an account, we may collect your email address and
your name.</p>
<p>We are allowed to access your photos when you attach them to a
scorecard.</p>

<h2>How We Use Information</h2>
<p>We use your location to show nearby courses and local weather.</p>
<p>Your usage data may be processed for analytics purposes.</p>

<h2>Sharing</h2>
<p>We may share your device identifiers with our advertising
partners.</p>
<p>We will not share your email address with anyone.</p>

<h2>Data Retention</h2>
<p>We will store your scorecards on our servers.</p>
<p>We will not store your real phone number.</p>

<h2>Third Party Services</h2>
<p>The app embeds advertising components that may collect information
under their own policies. We encourage you to review the privacy
practices of these third parties before disclosing any personally
identifiable information, as we are not responsible for the privacy
practices of those sites.</p>

<h2>Contact</h2>
<p>If you have any questions about this policy, please contact us at
privacy@golf.example.com.</p>
</body>
</html>
"""


@pytest.fixture(scope="module")
def analysis():
    return PolicyAnalyzer().analyze(GOLF_POLICY, html=True)


class TestExtraction:
    def test_enumeration_list_resources(self, analysis):
        collected = analysis.collected
        assert "location" in collected
        assert "ip address" in collected
        assert "device identifiers" in collected

    def test_conditional_registration_kept(self, analysis):
        # registering *an account in the app* is app behaviour (only
        # website-registration sentences are filtered)
        assert "email address" in analysis.collected
        assert "name" in analysis.collected

    def test_allowed_pattern(self, analysis):
        assert "photos" in analysis.collected

    def test_use_statements(self, analysis):
        assert "location" in analysis.used
        assert "usage data" in analysis.used

    def test_disclose_statements(self, analysis):
        assert "device identifiers" in analysis.disclosed

    def test_negative_disclose(self, analysis):
        assert "email address" in analysis.not_disclosed

    def test_retention(self, analysis):
        assert "scorecards" in analysis.retained
        assert "real phone number" in analysis.not_retained

    def test_disclaimer_found(self, analysis):
        assert analysis.has_third_party_disclaimer

    def test_no_contact_noise(self, analysis):
        for statement in analysis.statements:
            assert "questions" not in statement.resources


class TestDetectorsOnRealisticPolicy:
    def test_covered_app_is_clean(self):
        """An app whose behaviour the policy covers raises nothing."""
        from repro.core.checker import AppBundle, PPChecker
        from tests.android.appbuilder import (
            LOCATION_API, add_activity, empty_apk, invoke,
        )
        apk = empty_apk(package="com.golf.live")
        add_activity(apk, instructions=[
            invoke(LOCATION_API, dest="v0"),
            invoke("android.telephony.TelephonyManager->getDeviceId()",
                   dest="v1"),
        ])
        report = PPChecker().check(AppBundle(
            package="com.golf.live", apk=apk, policy=GOLF_POLICY,
            description="Live golf scores and local weather.",
            policy_is_html=True,
        ))
        assert not report.has_problem, report.summary()

    def test_uncovered_behaviour_flagged(self):
        from repro.core.checker import AppBundle, PPChecker
        from repro.semantics.resources import InfoType
        from tests.android.appbuilder import (
            QUERY_API, URI_PARSE, add_activity, const_string,
            empty_apk, invoke,
        )
        apk = empty_apk(package="com.golf.live")
        add_activity(apk, instructions=[
            const_string("v0", "content://contacts"),
            invoke(URI_PARSE, dest="v1", args=("v0",)),
            invoke(QUERY_API, dest="v2", args=("v1",)),
        ])
        report = PPChecker().check(AppBundle(
            package="com.golf.live", apk=apk, policy=GOLF_POLICY,
            description="Live golf scores.", policy_is_html=True,
        ))
        assert any(
            f.info is InfoType.CONTACT
            for f in report.incomplete_via("code")
        )
