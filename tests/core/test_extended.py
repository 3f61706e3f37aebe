"""Extended-checker tests: the future-work configuration end to end."""

import pytest

from repro.core.extended import ExtendedPPChecker, make_extended_checker

from tests.android.appbuilder import (
    LOCATION_API,
    PKG,
    add_activity,
    add_class,
    empty_apk,
    invoke,
)
from repro.core.checker import AppBundle, PPChecker
from repro.pipeline.artifacts import MemoryStore


def _lib_policies(lib_id):
    return {
        "unity3d": "We may receive your location information.",
        "admob": "We will share personal information with companies "
                 "we work with.",
    }.get(lib_id)


class TestSynonymIntegration:
    def test_display_denial_now_detected(self):
        from repro.android.dex import DexClass
        apk = empty_apk()
        add_activity(apk)
        apk.dex.add_class(DexClass(name="com.google.ads.AdView"))
        bundle = AppBundle(
            package=PKG, apk=apk,
            policy="We will never display any of your personal "
                   "information.",
            description="An app.",
        )
        base = PPChecker(lib_policy_source=_lib_policies)
        extended = make_extended_checker(_lib_policies)
        assert not base.check(bundle).is_inconsistent
        assert extended.check(bundle).is_inconsistent


class TestConstraintIntegration:
    def _bundle(self):
        apk = empty_apk()
        add_activity(apk, instructions=[invoke(LOCATION_API, dest="v0")])
        return AppBundle(
            package=PKG, apk=apk,
            policy="We will not collect your location without your "
                   "consent.",
            description="An app.",
        )

    def test_consent_denial_not_incorrect(self):
        base = PPChecker()
        extended = make_extended_checker()
        assert base.check(self._bundle()).is_incorrect
        assert not extended.check(self._bundle()).is_incorrect

    def test_consent_statement_counts_as_coverage(self):
        extended = make_extended_checker()
        report = extended.check(self._bundle())
        assert not report.incomplete_via("code")

    def test_constraints_can_be_disabled(self):
        checker = ExtendedPPChecker(use_constraints=False)
        assert checker.check(self._bundle()).is_incorrect

    @pytest.mark.parametrize("constrained_first", [True, False])
    def test_adjusted_analysis_gets_its_own_detect_entry(
            self, constrained_first):
        """Both checkers share the policy stage (same text, same
        analyzer) but not the detect entry: the constraint adjustment
        happens between the two, so detect keys the analysis by
        content, not by the policy stage key."""
        store = MemoryStore()
        constrained = ExtendedPPChecker(artifact_store=store)
        plain = ExtendedPPChecker(use_constraints=False,
                                  artifact_store=store)
        order = ([constrained, plain] if constrained_first
                 else [plain, constrained])
        reports = {id(checker): checker.check(self._bundle())
                   for checker in order}
        assert not reports[id(constrained)].is_incorrect
        assert reports[id(plain)].is_incorrect


class TestDynamicVerification:
    def test_dead_code_fp_removed(self):
        """Without reachability the static side over-approximates;
        dynamic verification kills the spurious finding."""
        apk = empty_apk()
        add_activity(apk)
        add_class(apk, f"{PKG}.Dead", [("never", (), [
            invoke(LOCATION_API, dest="v0"),
        ])])
        bundle = AppBundle(
            package=PKG, apk=apk,
            policy="We may collect your email address.",
            description="An app.",
        )
        loose = ExtendedPPChecker(use_reachability=False,
                                  verify_dynamically=False)
        assert loose.check(bundle).incomplete_via("code")
        verified = ExtendedPPChecker(use_reachability=False,
                                     verify_dynamically=True)
        assert not verified.check(bundle).incomplete_via("code")

    def test_real_finding_survives_verification(self):
        apk = empty_apk()
        add_activity(apk, instructions=[invoke(LOCATION_API, dest="v0")])
        bundle = AppBundle(
            package=PKG, apk=apk,
            policy="We may collect your email address.",
            description="An app.",
        )
        verified = ExtendedPPChecker(verify_dynamically=True)
        assert verified.check(bundle).incomplete_via("code")


class TestOnCorpus:
    def test_extended_recovers_fns_keeps_summary(self, full_store):
        """On the corpus: the 7 FN apps become detectable; the
        calibrated true-positive counts are untouched."""
        from repro.corpus.plans import INCONSISTENT_FN
        extended = make_extended_checker(full_store.lib_policy)
        for index in INCONSISTENT_FN:
            app = full_store.apps[index]
            assert extended.check(app.bundle).is_inconsistent

    def test_extended_does_not_disturb_true_positives(self, full_store):
        from repro.corpus.plans import INCONSISTENT_NEW
        extended = make_extended_checker(full_store.lib_policy)
        for index in list(INCONSISTENT_NEW)[:8]:
            app = full_store.apps[index]
            assert extended.check(app.bundle).is_inconsistent
