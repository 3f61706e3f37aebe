"""The apps the paper names, reconstructed.

Every concrete app the paper discusses, rebuilt as a checkable bundle
with the documented policy wording, description, and code behaviour:

===========================  =============================================
package                      paper's finding
===========================  =============================================
com.dooing.dooing            incomplete: location in description+code,
                             absent from the policy (Fig. 2)
com.qisiemoji.inputmethod    incomplete (retained): installed-package
                             list written to the log (Fig. 9)
com.marcow.birthdaylist      incorrect: denies collecting contacts;
                             description and code say otherwise (V-D)
com.herman.ringtone          incorrect: same pattern (V-D)
com.easyxapp.secret          incorrect: "we will not store your real
                             phone number, name and contacts" vs a
                             contacts-to-log path (II-B, V-D)
hko.MyObservatory_v1_0       incorrect: location-to-log path vs a
                             no-retention promise (V-D)
com.imangi.templerun2        inconsistent with Unity3d over location
                             (Fig. 3)
com.shortbreakstudios...     disclaimer suppresses the lib conflict
                             (IV-C)
com.StaffMark                inconsistency false positive: generic
                             "that information" vs AdMob's "personal
                             information" (V-E)
com.starlitt.disableddating  inconsistency false negative: "display"
                             outside the verb set (V-E)
com.zoho.mail                incorrect-policy false positive: scoped
                             account denial plus legitimate access (V-D)
===========================  =============================================

:data:`EXPECTED` records, for each app, what the *paper* reports
PPChecker finding -- the integration suite asserts the reproduction
behaves identically, error modes included.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.android.apk import Apk
from repro.android.dex import DexClass, DexFile, Instruction, Method
from repro.android.manifest import AndroidManifest, Component
from repro.core.checker import AppBundle

_QUERY = ("android.content.ContentResolver->query(uri,projection,"
          "selection,selectionArgs,sortOrder)")
_PARSE = "android.net.Uri->parse(uriString)"
_LOG_I = "android.util.Log->i(tag,msg)"
_LOG_E = "android.util.Log->e(tag,msg)"


@dataclass(frozen=True)
class Expectation:
    """What the paper says PPChecker reports for this app."""

    incomplete: bool = False
    incorrect: bool = False
    inconsistent: bool = False
    note: str = ""


def _apk(package: str, permissions: set[str],
         instructions: list[Instruction],
         extra_classes: tuple[str, ...] = ()) -> Apk:
    dex = DexFile()
    activity_name = f"{package}.MainActivity"
    activity = DexClass(name=activity_name,
                        superclass="android.app.Activity")
    method = Method(class_name=activity_name, name="onCreate",
                    params=("bundle",))
    method.instructions = instructions + [Instruction(op="return")]
    activity.add_method(method)
    dex.add_class(activity)
    for class_name in extra_classes:
        dex.add_class(DexClass(name=class_name))
    manifest = AndroidManifest(package=package,
                               permissions=set(permissions))
    manifest.add_component(Component(name=activity_name,
                                     kind="activity"))
    return Apk(manifest=manifest, dex=dex)


def _contacts_query(start: int = 0) -> list[Instruction]:
    v = [f"v{start + i}" for i in range(3)]
    return [
        Instruction(op="const-string", dest=v[0],
                    literal="content://contacts"),
        Instruction(op="invoke", dest=v[1], target=_PARSE,
                    args=(v[0],)),
        Instruction(op="invoke", dest=v[2], target=_QUERY,
                    args=(v[1],)),
    ]


def build_named_apps() -> dict[str, AppBundle]:
    """All named paper apps as checkable bundles."""
    apps: dict[str, AppBundle] = {}

    apps["com.dooing.dooing"] = AppBundle(
        package="com.dooing.dooing",
        apk=_apk(
            "com.dooing.dooing",
            {"android.permission.ACCESS_FINE_LOCATION"},
            [
                Instruction(op="invoke", dest="v0",
                            target="android.location.Location->"
                                   "getLatitude()"),
                Instruction(op="invoke", dest="v1",
                            target="android.location.Location->"
                                   "getLongitude()"),
            ],
        ),
        policy="We may collect your email address when you sign up. "
               "We may share anonymous statistics with partners.",
        description="Location aware tasks will help you to utilize "
                    "your field force in optimum way. The app uses "
                    "gps to assign nearby work.",
    )

    apps["com.qisiemoji.inputmethod"] = AppBundle(
        package="com.qisiemoji.inputmethod",
        apk=_apk(
            "com.qisiemoji.inputmethod",
            set(),
            [
                Instruction(op="invoke", dest="v0",
                            target="android.content.pm.PackageManager->"
                                   "getInstalledPackages(flags)"),
                Instruction(op="const-string", dest="v1",
                            literal="TAG"),
                Instruction(op="invoke", target=_LOG_E,
                            args=("v1", "v0")),
            ],
        ),
        policy="We may collect the words you type to improve "
               "suggestions.",
        description="A colorful emoji keyboard.",
    )

    apps["com.marcow.birthdaylist"] = AppBundle(
        package="com.marcow.birthdaylist",
        apk=_apk("com.marcow.birthdaylist",
                 {"android.permission.READ_CONTACTS"},
                 _contacts_query()),
        policy="We use your contacts to find birthdays. We are not "
               "collecting your date of birth, phone number, name or "
               "other personal information, nor those of your "
               "contacts.",
        description="This app synchronizes all birthdays with your "
                    "contacts list and facebook.",
    )

    apps["com.herman.ringtone"] = AppBundle(
        package="com.herman.ringtone",
        apk=_apk("com.herman.ringtone",
                 {"android.permission.READ_CONTACTS"},
                 _contacts_query()),
        policy="We use your contacts so you can assign ringtones. "
               "We will not collect your contacts.",
        description="Assign a ringtone to anyone in your contacts "
                    "list.",
    )

    apps["com.easyxapp.secret"] = AppBundle(
        package="com.easyxapp.secret",
        apk=_apk(
            "com.easyxapp.secret",
            {"android.permission.READ_CONTACTS"},
            _contacts_query() + [
                Instruction(op="const-string", dest="v3",
                            literal="TAG"),
                Instruction(op="invoke", target=_LOG_I,
                            args=("v3", "v2")),
            ],
        ),
        policy="We may access your contacts to help you share "
               "secrets with friends. We will not store your real "
               "phone number, name and contacts.",
        description="Share secrets anonymously with people you know.",
    )

    apps["hko.MyObservatory_v1_0"] = AppBundle(
        package="hko.MyObservatory_v1_0",
        apk=_apk(
            "hko.MyObservatory_v1_0",
            {"android.permission.ACCESS_FINE_LOCATION"},
            [
                Instruction(op="invoke", dest="v0",
                            target="android.location.Location->"
                                   "getLatitude()"),
                Instruction(op="const-string", dest="v1",
                            literal="TAG"),
                Instruction(op="invoke", target=_LOG_I,
                            args=("v1", "v0")),
            ],
        ),
        policy="We may collect your location to provide local "
               "weather. Your location will not be stored by the "
               "app.",
        description="Official weather of the observatory.",
    )

    apps["com.imangi.templerun2"] = AppBundle(
        package="com.imangi.templerun2",
        apk=_apk("com.imangi.templerun2", set(), [],
                 extra_classes=("com.unity3d.player.UnityPlayer",)),
        policy="We do not collect your location information. We may "
               "collect anonymous gameplay statistics.",
        description="Run for your life in this endless runner.",
    )

    apps["com.shortbreakstudios.HammerTime"] = AppBundle(
        package="com.shortbreakstudios.HammerTime",
        apk=_apk("com.shortbreakstudios.HammerTime", set(), [],
                 extra_classes=("com.unity3d.player.UnityPlayer",)),
        policy="We do not collect your location information. We "
               "encourage you to review the privacy practices of "
               "these third parties before disclosing any personally "
               "identifiable information, as we are not responsible "
               "for the privacy practices of those sites.",
        description="Smash everything in sight.",
    )

    apps["com.StaffMark"] = AppBundle(
        package="com.StaffMark",
        apk=_apk("com.StaffMark", set(), [],
                 extra_classes=("com.google.ads.AdView",)),
        policy="We do not transmit that information over the "
               "internet.",
        description="Staffing jobs on the go.",
    )

    apps["com.starlitt.disableddating"] = AppBundle(
        package="com.starlitt.disableddating",
        apk=_apk("com.starlitt.disableddating", set(), [],
                 extra_classes=("com.google.ads.AdView",)),
        policy="We will never display any of your personal "
               "information.",
        description="Meet new people who understand you.",
    )

    apps["com.zoho.mail"] = AppBundle(
        package="com.zoho.mail",
        apk=_apk(
            "com.zoho.mail",
            {"android.permission.GET_ACCOUNTS"},
            [
                Instruction(op="invoke", dest="v0",
                            target="android.accounts.AccountManager->"
                                   "getAccounts()"),
            ],
        ),
        policy="We may provide your personal information and the "
               "contents of your user account to our employees. We "
               "also do not process the contents of your user "
               "account for serving targeted advertisements.",
        description="Secure business email.",
    )

    return apps


#: what the paper reports for each named app.
EXPECTED: dict[str, Expectation] = {
    "com.dooing.dooing": Expectation(
        incomplete=True,
        note="location in description and code, missing from policy"),
    "com.qisiemoji.inputmethod": Expectation(
        incomplete=True,
        note="installed-package list retained in the log"),
    "com.marcow.birthdaylist": Expectation(
        incorrect=True, note="contacts denial vs description + code"),
    "com.herman.ringtone": Expectation(
        incorrect=True, note="contacts denial vs description + code"),
    "com.easyxapp.secret": Expectation(
        incorrect=True, note="contacts-to-log vs no-store promise"),
    "hko.MyObservatory_v1_0": Expectation(
        incorrect=True, note="location-to-log vs no-store promise"),
    "com.imangi.templerun2": Expectation(
        inconsistent=True, note="location conflict with Unity3d"),
    "com.shortbreakstudios.HammerTime": Expectation(
        note="conflict exists but the disclaimer suppresses it"),
    "com.StaffMark": Expectation(
        inconsistent=True,
        note="FALSE POSITIVE: generic 'that information' matches "
             "AdMob's 'personal information'"),
    "com.starlitt.disableddating": Expectation(
        note="FALSE NEGATIVE: 'display' outside the verb set"),
    "com.zoho.mail": Expectation(
        incorrect=True,
        note="FALSE POSITIVE: scoped denial without context"),
}

#: the lib policies the named cases rely on.
NAMED_LIB_POLICIES: dict[str, str] = {
    "unity3d": "We may receive your location information. We may "
               "collect your device identifiers.",
    "admob": "We will share personal information with companies we "
             "work with. We may collect your device identifiers.",
}


def named_lib_policy(lib_id: str) -> str | None:
    return NAMED_LIB_POLICIES.get(lib_id)


__all__ = [
    "Expectation",
    "EXPECTED",
    "NAMED_LIB_POLICIES",
    "build_named_apps",
    "named_lib_policy",
]
