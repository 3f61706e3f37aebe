"""Information matching: code/description info vs. policy phrases.

The paper's ``Similarity(Info, PPInfo) > threshold`` predicate (Alg. 1
line 5 and friends) with ESA and the 0.67 threshold.  A fast exact
alias lookup short-circuits the ESA computation for the common case.

The detectors drive the per-policy batch forms
(:meth:`InfoMatcher.covered_many`, :meth:`InfoMatcher.first_hits`,
:meth:`InfoMatcher.first_match_pair`): every information type of one
app probes a single interpreted-and-indexed view of the policy's
phrases (one inverted-index pass per policy instead of one ESA sweep
per pair), then each decision replays in the reference nested-loop
order so the output stays byte-identical to the per-pair scan.
"""

from __future__ import annotations

from typing import Iterable

from dataclasses import dataclass
from functools import lru_cache

from repro.description.permission_map import INFO_SURFACE
from repro.hashing import fingerprint
from repro.semantics.esa import DEFAULT_THRESHOLD, EsaModel, default_model
from repro.semantics.resources import InfoType, normalize_resource


@dataclass
class InfoMatcher:
    """Decides whether a policy phrase refers to a given information."""

    esa: EsaModel | None = None
    threshold: float = DEFAULT_THRESHOLD

    def __post_init__(self) -> None:
        if self.esa is None:
            self.esa = default_model()

    def fingerprint(self) -> str:
        """Content hash of the matcher configuration; part of the
        ``detect`` cache key.  Custom ESA models may expose their own
        ``fingerprint()``; otherwise the type name stands in."""
        esa_fp = getattr(self.esa, "fingerprint", None)
        return _config_fingerprint(
            self.threshold,
            esa_fp() if callable(esa_fp) else type(self.esa).__name__)

    def phrase_matches(self, info: InfoType, phrase: str) -> bool:
        """Similarity(info, phrase) > threshold."""
        if normalize_resource(phrase) is info:
            return True
        surfaces = list(INFO_SURFACE.get(info, (info.value,)))
        return self.esa.any_match(surfaces, [phrase], self.threshold)

    def covered(self, info: InfoType, phrases: set[str]) -> bool:
        """Is *info* mentioned by any of the policy *phrases*?

        Batch form of ``any(phrase_matches(info, p) for p in
        phrases)``: the exact alias lookup runs first, then every
        (surface, phrase) pair goes through the ESA batch matcher with
        shared-concept pruning.
        """
        if any(normalize_resource(phrase) is info for phrase in phrases):
            return True
        surfaces = list(INFO_SURFACE.get(info, (info.value,)))
        return self.esa.any_match(surfaces, list(phrases),
                                  self.threshold)

    def covered_many(self, infos: Iterable[InfoType],
                     phrases: Iterable[str]) -> dict[InfoType, bool]:
        """:meth:`covered` for many information types against one
        policy's phrase set, interpreting and indexing the phrases
        once.  ``covered_many(infos, ps)[info] == covered(info, ps)``
        for every info."""
        phrase_list = list(phrases)
        alias_hits = {normalize_resource(p) for p in phrase_list}
        ordered = list(dict.fromkeys(infos))
        pending = [info for info in ordered if info not in alias_hits]
        groups = [list(INFO_SURFACE.get(info, (info.value,)))
                  for info in pending]
        esa_hits = self.esa.group_hits(groups, phrase_list,
                                       self.threshold)
        out = {info: True for info in ordered if info in alias_hits}
        for info, hits in zip(pending, esa_hits):
            out[info] = bool(hits)
        return out

    def first_hits(self, infos: Iterable[InfoType],
                   phrases: list[str]) -> list[int | None]:
        """For each info, the index of the first phrase (list order)
        for which :meth:`phrase_matches` holds, or None -- the
        batched form of the Alg. 3/4 denial scan.  ESA pairs score
        through one shared inverted-index pass; the first-hit
        decision replays the reference loop (exact alias check, then
        the ESA verdict) per phrase in order."""
        ordered = list(infos)
        alias_infos = [normalize_resource(p) for p in phrases]
        groups = [list(INFO_SURFACE.get(info, (info.value,)))
                  for info in ordered]
        esa_hits = self.esa.group_hits(groups, phrases, self.threshold)
        out: list[int | None] = []
        for info, hits in zip(ordered, esa_hits):
            first: int | None = None
            for j in range(len(phrases)):
                if alias_infos[j] is info or j in hits:
                    first = j
                    break
            out.append(first)
        return out

    def phrases_match(self, phrase_a: str, phrase_b: str) -> bool:
        """Resource-to-resource matching (Alg. 5 line 11)."""
        info_a = normalize_resource(phrase_a)
        info_b = normalize_resource(phrase_b)
        if info_a is not None and info_a is info_b:
            return True
        return self.esa.similarity(phrase_a, phrase_b) > self.threshold

    def first_match_pair(
        self, phrases_a: tuple[str, ...] | list[str],
        phrases_b: tuple[str, ...] | list[str],
    ) -> tuple[str, str] | None:
        """The first ``(a, b)`` pair (nested-loop order: *a* outer)
        for which :meth:`phrases_match` holds, or None.

        Batch form of the Alg. 5 resource scan: ESA pairs are scored
        through :meth:`~repro.semantics.esa.EsaModel.match_sets`
        (inverted-index pruned), then the decision replays in the
        reference order so the selected pair is byte-identical to the
        nested loop's.
        """
        infos_a = [normalize_resource(p) for p in phrases_a]
        infos_b = [normalize_resource(p) for p in phrases_b]
        esa_hits = {
            (i, j) for i, j, _sim in self.esa.match_sets(
                list(phrases_a), list(phrases_b), self.threshold)
        }
        for i, phrase_a in enumerate(phrases_a):
            for j, phrase_b in enumerate(phrases_b):
                if infos_a[i] is not None and infos_a[i] is infos_b[j]:
                    return phrase_a, phrase_b
                if (i, j) in esa_hits:
                    return phrase_a, phrase_b
        return None


@lru_cache(maxsize=64, typed=True)
def _config_fingerprint(threshold: float, esa_fingerprint: str) -> str:
    """:meth:`InfoMatcher.fingerprint`, computed once per distinct
    configuration."""
    return fingerprint({"threshold": threshold, "esa": esa_fingerprint})


__all__ = ["InfoMatcher"]
