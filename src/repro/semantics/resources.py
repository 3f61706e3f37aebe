"""The private-information ontology.

Canonical information types that PPChecker's maps target:
sensitive APIs -> info type, content-provider URIs -> info type,
permissions -> info type, and policy phrases -> info type (via ESA).

The type inventory follows Section III-C of the paper: device ID, IP
address, cookie, location, contact, account, calendar, telephone
number, camera, audio, and app list -- plus SMS (from the PScout URI
map), e-mail address, person name, age/birthday, and browser history,
which occur in policies and descriptions.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass


class InfoType(enum.Enum):
    """Canonical categories of private information."""

    LOCATION = "location"
    DEVICE_ID = "device id"
    IP_ADDRESS = "ip address"
    COOKIE = "cookie"
    CONTACT = "contact"
    ACCOUNT = "account"
    CALENDAR = "calendar"
    PHONE_NUMBER = "phone number"
    CAMERA = "camera"
    AUDIO = "audio"
    APP_LIST = "app list"
    SMS = "sms"
    EMAIL_ADDRESS = "email address"
    PERSON_NAME = "name"
    BIRTHDAY = "birthday"
    BROWSER_HISTORY = "browser history"
    # policy-only types: no Android API yields them directly, but real
    # policies (and lib policies) assert behaviours about them
    PAYMENT = "payment information"
    HEALTH = "health data"
    GOVERNMENT_ID = "government id"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


@dataclass(frozen=True)
class InfoSpec:
    """An information type with its natural-language aliases."""

    info: InfoType
    aliases: tuple[str, ...]
    requires_permissions: tuple[str, ...] = ()


INFO_TYPES: dict[InfoType, InfoSpec] = {
    InfoType.LOCATION: InfoSpec(
        InfoType.LOCATION,
        (
            "location", "geolocation", "geographic location",
            "precise location", "coarse location", "gps", "latitude",
            "longitude", "position", "whereabouts", "gps coordinates",
            "location data", "location information",
        ),
        ("android.permission.ACCESS_FINE_LOCATION",
         "android.permission.ACCESS_COARSE_LOCATION"),
    ),
    InfoType.DEVICE_ID: InfoSpec(
        InfoType.DEVICE_ID,
        (
            "device id", "device identifier", "device identifiers",
            "imei", "imsi", "udid",
            "android id", "device serial number", "hardware identifier",
            "unique device identifier", "unique device identifiers",
            "advertising id", "device ids",
        ),
        ("android.permission.READ_PHONE_STATE",),
    ),
    InfoType.IP_ADDRESS: InfoSpec(
        InfoType.IP_ADDRESS,
        ("ip address", "internet protocol address", "ip",
         "network address"),
    ),
    InfoType.COOKIE: InfoSpec(
        InfoType.COOKIE,
        ("cookie", "cookies", "web beacon", "pixel tag",
         "tracking technology", "local storage object"),
    ),
    InfoType.CONTACT: InfoSpec(
        InfoType.CONTACT,
        (
            "contact", "contacts", "address book", "contact list",
            "contacts list", "phone book", "contact information",
        ),
        ("android.permission.READ_CONTACTS",
         "android.permission.WRITE_CONTACTS"),
    ),
    InfoType.ACCOUNT: InfoSpec(
        InfoType.ACCOUNT,
        (
            "account", "accounts", "user account", "account name",
            "google account", "account information", "credential",
        ),
        ("android.permission.GET_ACCOUNTS",),
    ),
    InfoType.CALENDAR: InfoSpec(
        InfoType.CALENDAR,
        ("calendar", "calendar event", "calendar entries",
         "appointment", "schedule"),
        ("android.permission.READ_CALENDAR",
         "android.permission.WRITE_CALENDAR"),
    ),
    InfoType.PHONE_NUMBER: InfoSpec(
        InfoType.PHONE_NUMBER,
        (
            "phone number", "telephone number", "mobile number",
            "msisdn", "cell phone number", "real phone number",
        ),
        ("android.permission.READ_PHONE_STATE",),
    ),
    InfoType.CAMERA: InfoSpec(
        InfoType.CAMERA,
        ("camera", "photo", "photos", "picture", "pictures", "image",
         "video", "photographs"),
        ("android.permission.CAMERA",),
    ),
    InfoType.AUDIO: InfoSpec(
        InfoType.AUDIO,
        ("audio", "microphone", "voice", "sound", "voice recording",
         "audio recording"),
        ("android.permission.RECORD_AUDIO",),
    ),
    InfoType.APP_LIST: InfoSpec(
        InfoType.APP_LIST,
        (
            "app list", "installed applications", "installed apps",
            "application list", "package list", "installed packages",
            "list of installed applications", "other apps",
        ),
    ),
    InfoType.SMS: InfoSpec(
        InfoType.SMS,
        ("sms", "text message", "text messages", "sms message",
         "short message"),
        ("android.permission.READ_SMS", "android.permission.RECEIVE_SMS"),
    ),
    InfoType.EMAIL_ADDRESS: InfoSpec(
        InfoType.EMAIL_ADDRESS,
        ("email address", "e-mail address", "email", "e-mail",
         "electronic mail address"),
    ),
    InfoType.PERSON_NAME: InfoSpec(
        InfoType.PERSON_NAME,
        ("name", "real name", "full name", "first name", "last name",
         "username", "user name"),
    ),
    InfoType.BIRTHDAY: InfoSpec(
        InfoType.BIRTHDAY,
        ("birthday", "date of birth", "birth date", "age",
         "birthdate", "data of birth"),
    ),
    InfoType.BROWSER_HISTORY: InfoSpec(
        InfoType.BROWSER_HISTORY,
        ("browser history", "browsing history", "web history",
         "bookmarks", "visited pages"),
        ("com.android.browser.permission.READ_HISTORY_BOOKMARKS",),
    ),
    InfoType.PAYMENT: InfoSpec(
        InfoType.PAYMENT,
        ("payment information", "credit card", "credit card number",
         "billing information", "card details", "payment details",
         "bank account"),
    ),
    InfoType.HEALTH: InfoSpec(
        InfoType.HEALTH,
        ("health data", "health information", "medical information",
         "fitness data", "heart rate", "medical records"),
    ),
    InfoType.GOVERNMENT_ID: InfoSpec(
        InfoType.GOVERNMENT_ID,
        ("government id", "social security number", "ssn",
         "passport number", "national id", "driver license number"),
    ),
}

_ALIAS_INDEX: dict[str, InfoType] = {}
for _spec in INFO_TYPES.values():
    for _alias in _spec.aliases:
        _ALIAS_INDEX[_alias] = _spec.info
    _ALIAS_INDEX[_spec.info.value] = _spec.info


def normalize_resource(phrase: str) -> InfoType | None:
    """Map a phrase to an :class:`InfoType` by exact alias lookup.

    This is the cheap pre-filter; phrases that do not match an alias go
    through ESA similarity instead.
    """
    key = " ".join(phrase.lower().split())
    for junk in ("your ", "my ", "our ", "the ", "a ", "an "):
        if key.startswith(junk):
            key = key[len(junk):]
    return _ALIAS_INDEX.get(key)


def aliases_of(info: InfoType) -> tuple[str, ...]:
    return INFO_TYPES[info].aliases


def permissions_for(info: InfoType) -> tuple[str, ...]:
    return INFO_TYPES[info].requires_permissions


__all__ = [
    "InfoType",
    "InfoSpec",
    "INFO_TYPES",
    "normalize_resource",
    "aliases_of",
    "permissions_for",
]
