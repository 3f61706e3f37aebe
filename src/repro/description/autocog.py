"""Description -> permission inference (AutoCog substitute).

AutoCog [41] learns a semantic model mapping description phrases to
permissions.  We reproduce its interface with an embedded phrase model
per permission: a description sentence votes for a permission when it
contains an indicative phrase or its noun phrases are ESA-similar to
the permission's model text.  The output -- the permission set a
description implies, hence ``Info_desc`` -- feeds Alg. 1 and Alg. 3.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

from repro.description.permission_map import info_for_permission
from repro.hashing import fingerprint
from repro.nlp.sentences import split_sentences
from repro.semantics.esa import EsaModel, default_model
from repro.semantics.resources import InfoType

#: permission -> indicative description phrases (the semantic model).
PERMISSION_PHRASES: dict[str, tuple[str, ...]] = {
    "android.permission.ACCESS_FINE_LOCATION": (
        "your location", "gps", "nearby", "location aware",
        "navigation", "find your position", "track your route",
        "location based", "geolocation", "on the map",
        "current location", "turn-by-turn",
    ),
    "android.permission.ACCESS_COARSE_LOCATION": (
        "local weather", "weather forecast", "in your area",
        "your city", "closest store", "nearby places", "around you",
    ),
    "android.permission.READ_CONTACTS": (
        "your contacts", "address book", "contact list",
        "phone book", "sync with your contacts", "friends birthdays",
        "invite friends from contacts", "pick a contact",
    ),
    "android.permission.WRITE_CONTACTS": (
        "save to contacts", "add to your address book",
        "edit contacts", "merge duplicate contacts",
    ),
    "android.permission.GET_ACCOUNTS": (
        "sign in with your google account", "your accounts",
        "sync with your account", "log in with your account",
        "link your account", "account synchronization",
    ),
    "android.permission.READ_CALENDAR": (
        "your calendar", "calendar events", "appointments",
        "your schedule", "meeting reminders", "sync your calendar",
    ),
    "android.permission.CAMERA": (
        "take photos", "take pictures", "scan", "camera",
        "record video", "snap a picture", "photo editor",
        "barcode scanner", "qr code",
    ),
    "android.permission.RECORD_AUDIO": (
        "record audio", "voice", "microphone", "voice search",
        "record your voice", "speech recognition", "voice memo",
    ),
    "android.permission.READ_SMS": (
        "your messages", "read sms", "text messages",
        "sms backup", "message history",
    ),
    "android.permission.READ_PHONE_STATE": (
        "caller id", "identify calls", "block calls",
        "incoming call", "call log",
    ),
}


@dataclass
class AutoCog:
    """The description-analysis model.

    Inference is primarily lexical: a sentence votes for a permission
    when it contains one of the permission's model phrases.  The
    optional ESA fallback compares whole sentences against the model
    text; it widens recall at a precision cost (single-word concept
    collisions such as "book flights" vs. "address book"), so it is
    off by default and exercised by the ablation benchmarks.
    """

    esa: EsaModel | None = None
    threshold: float = 0.67
    use_esa_fallback: bool = False
    _model: dict[str, tuple[str, ...]] = field(
        default_factory=lambda: dict(PERMISSION_PHRASES)
    )

    def __post_init__(self) -> None:
        if self.esa is None:
            self.esa = default_model()

    def fingerprint(self) -> str:
        """Content hash of the description model; part of the
        ``description_permissions`` cache key."""
        model = tuple((perm, tuple(phrases))
                      for perm, phrases in self._model.items())
        return _config_fingerprint(model, self.threshold,
                                   self.use_esa_fallback)

    def infer_permissions(self, description: str) -> set[str]:
        """Permissions the description's sentences imply."""
        inferred: set[str] = set()
        sentences = split_sentences(description)
        for sentence in sentences:
            low = sentence.lower()
            for permission, phrases in self._model.items():
                if permission in inferred:
                    continue
                for phrase in phrases:
                    if phrase in low:
                        inferred.add(permission)
                        break
                else:
                    if not self.use_esa_fallback:
                        continue
                    model_text = " ".join(phrases)
                    if self.esa.similarity(low, model_text) > self.threshold:
                        inferred.add(permission)
        return inferred

    def infer_infos(self, description: str) -> set[InfoType]:
        """Info_desc: the information the description implies."""
        infos: set[InfoType] = set()
        for permission in self.infer_permissions(description):
            infos.update(info_for_permission(permission))
        return infos


@lru_cache(maxsize=64, typed=True)
def _config_fingerprint(model: tuple[tuple[str, tuple[str, ...]], ...],
                        threshold: float, use_esa_fallback: bool) -> str:
    """:meth:`AutoCog.fingerprint`, computed once per distinct
    configuration."""
    return fingerprint({
        "model": {perm: list(phrases) for perm, phrases in model},
        "threshold": threshold,
        "use_esa_fallback": use_esa_fallback,
    })


_DEFAULT: AutoCog | None = None


def _default() -> AutoCog:
    global _DEFAULT
    if _DEFAULT is None:
        _DEFAULT = AutoCog()
    return _DEFAULT


def infer_permissions(description: str) -> set[str]:
    return _default().infer_permissions(description)


def infer_infos(description: str) -> set[InfoType]:
    return _default().infer_infos(description)


__all__ = ["PERMISSION_PHRASES", "AutoCog", "infer_permissions",
           "infer_infos"]
