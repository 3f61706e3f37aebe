"""Versioning of the JSON payloads PPChecker emits.

Every machine-readable surface (``batch-check --json``, ``study
--json``, and the REST responses of :mod:`repro.service`) stamps its
payload with ``schema_version`` so downstream consumers can detect
format drift instead of silently misparsing.  Bump the constant
whenever a key is renamed, removed, or changes meaning; purely
additive keys do not require a bump.
"""

from __future__ import annotations

from typing import Any

#: current payload schema (documented in docs/API.md)
SCHEMA_VERSION = 1


def versioned(payload: dict[str, Any]) -> dict[str, Any]:
    """Stamp *payload* with the current schema version, in place."""
    payload["schema_version"] = SCHEMA_VERSION
    return payload


__all__ = ["SCHEMA_VERSION", "versioned"]
