"""The APK container: manifest + dex, possibly packed.

A packed APK carries a stub dex (the packer's loader) and hides the
real bytecode in an encrypted payload; :mod:`repro.android.packer`
recovers it the way DexHunter does before analysis.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.android.dex import DexFile
from repro.android.manifest import AndroidManifest


@dataclass
class Apk:
    """An Android application package."""

    manifest: AndroidManifest
    dex: DexFile = field(default_factory=DexFile)
    packed: bool = False
    packed_payload: bytes | None = None

    @property
    def package(self) -> str:
        return self.manifest.package

    def effective_dex(self) -> DexFile:
        """The dex to analyze; packed APKs must be unpacked first."""
        if self.packed:
            raise PackedApkError(
                f"{self.package}: APK is packed; run "
                "repro.android.packer.unpack() first"
            )
        return self.dex


class PackedApkError(RuntimeError):
    """Raised when analysis is attempted on a still-packed APK."""


__all__ = ["Apk", "PackedApkError"]
