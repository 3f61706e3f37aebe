"""The compiled ESA knowledge base: packed arrays + binary artifact.

This module compiles the concept articles' per-term TF-IDF vectors
(``term -> {concept_id: weight}``) into packed parallel arrays -- a
CSR-style layout of ``(offsets, concept_ids, weights)`` over a sorted
term table -- that the merge-join matcher (:mod:`repro.semantics.esa`)
walks instead of hashing dict keys:

- :func:`compile_kb` builds a :class:`CompiledKB` from the concept
  articles with *bit-identical* TF-IDF floats: same accumulation and
  normalization order as the historical dict build, so every
  similarity agrees with the dict-cosine test oracle to the last ulp.
- :meth:`CompiledKB.to_bytes` / :meth:`CompiledKB.from_bytes` persist
  the compiled base (plus its inverted layout) as a versioned binary
  artifact: magic, schema version, byte order, CRC-32 checksum, then
  length-prefixed sections.  A truncated, bit-flipped, or
  wrong-schema artifact raises :class:`CompiledKBError` -- it can
  never load as silently-wrong weights.
- :func:`load_or_compile` is the fallback ladder: load the artifact
  if it verifies, otherwise recompile from source and rewrite it.
  Outcomes are counted in the ``esa_kb_artifact`` row of the
  ``nlp_caches`` telemetry (``hits`` = artifact loads, ``misses`` =
  recompiles, ``warnings`` = corrupt artifacts recovered from).

Array decode/validation selects a backend at import: bulk numpy
``frombuffer`` checks when numpy is installed, a pure-Python scan
otherwise.  The cosine kernel itself stays pure Python in both
backends because the equivalence contract pins the float summation
order (numpy's pairwise reductions would drift in the last ulp).
"""

from __future__ import annotations

import math
import os
import re
import struct
import sys
import tempfile
import zlib
from array import array
from dataclasses import dataclass, field

from repro.hashing import fingerprint
from repro.memo import MemoCache
from repro.nlp.tokenizer import lemmatize

try:  # numpy-optional: bulk artifact validation only
    import numpy as _np
except ImportError:  # pragma: no cover - depends on environment
    _np = None

#: which array backend the artifact loader uses ("numpy" | "python")
BACKEND = "numpy" if _np is not None else "python"

#: artifact file magic ("Repro Knowledge Base")
KB_MAGIC = b"RKB1"

#: bump when the binary layout or the compile recipe changes
KB_SCHEMA_VERSION = 1

#: environment variable naming the artifact cache directory; set to
#: the empty string to disable artifact persistence entirely
KB_CACHE_ENV = "REPRO_KB_CACHE_DIR"

_HEADER = struct.Struct("<4sHBxIQ")  # magic, schema, byteorder, crc, len

_STOPWORDS = {
    "the", "a", "an", "of", "to", "and", "or", "in", "on", "for",
    "with", "by", "from", "at", "as", "is", "are", "be", "was",
    "were", "will", "would", "may", "might", "can", "could", "shall",
    "should", "that", "this", "these", "those", "it", "its", "we",
    "you", "your", "our", "their", "his", "her", "my", "i", "any",
    "all", "some", "such", "other", "about", "into", "than", "then",
    "so", "if", "when", "which", "who", "whom", "what", "how", "not",
    "no", "do", "does", "did", "have", "has", "had",
}

_TOKEN_RE = re.compile(r"[a-z0-9]+(?:[-'][a-z0-9]+)*")


def terms_of(text: str) -> list[str]:
    """Lower-case, tokenize, lemmatize, drop stopwords."""
    out = []
    for raw in _TOKEN_RE.findall(text.lower()):
        if raw in _STOPWORDS:
            continue
        lemma = lemmatize(raw)
        if lemma in _STOPWORDS or not lemma:
            continue
        out.append(lemma)
    return out


class CompiledKBError(ValueError):
    """The artifact bytes are not a loadable compiled KB."""


class _ArtifactStats(MemoCache):
    """Counters for the artifact fallback ladder, surfaced through
    :func:`repro.memo.cache_stats` as the ``esa_kb_artifact`` row.
    ``hits`` = verified artifact loads, ``misses`` = fresh compiles,
    ``warnings`` = corrupt artifacts that fell back to recompilation.
    """

    def __init__(self) -> None:
        super().__init__("esa_kb_artifact", max_entries=1)
        self.warnings = 0

    def stats(self) -> dict[str, int]:
        row = super().stats()
        row["warnings"] = self.warnings
        return row

    def clear(self) -> None:
        super().clear()
        self.warnings = 0


#: process-wide ladder counters (strong ref keeps the registry row)
KB_ARTIFACT_STATS = _ArtifactStats()


def articles_fingerprint(articles: dict[str, str]) -> str:
    """Content hash identifying one concept-article inventory."""
    return fingerprint({"kb_schema": KB_SCHEMA_VERSION,
                        "articles": articles})


@dataclass
class CompiledKB:
    """Packed parallel-array form of the concept knowledge base.

    Term *t* (row ``tid = term_index[t]``) owns the slice
    ``offsets[tid]:offsets[tid + 1]`` of the ``cids`` / ``weights``
    arrays: its L2-normalized TF-IDF interpretation vector, sorted by
    ascending concept id.  All floats are bit-identical to the
    historical dict-of-dicts build.
    """

    concepts: tuple[str, ...]
    terms: tuple[str, ...]
    offsets: array          # 'q', len(terms) + 1
    cids: array             # 'i', concatenated, ascending per term
    weights: array          # 'd', parallel to cids
    articles_fp: str
    term_index: dict[str, int] = field(init=False, repr=False)

    def __post_init__(self) -> None:
        self.term_index = {t: i for i, t in enumerate(self.terms)}

    # -- views -------------------------------------------------------------

    def term_slice(self, term: str) -> tuple[int, int] | None:
        """The ``(start, end)`` row of *term*, or None if unknown."""
        tid = self.term_index.get(term)
        if tid is None:
            return None
        return self.offsets[tid], self.offsets[tid + 1]

    # -- serialization -----------------------------------------------------

    def to_bytes(self) -> bytes:
        """Versioned binary artifact: header (magic, schema version,
        byte order, CRC-32, payload length) + length-prefixed
        sections."""
        sections = [
            self.articles_fp.encode("utf-8"),
            "\x00".join(self.concepts).encode("utf-8"),
            "\x00".join(self.terms).encode("utf-8"),
            self.offsets.tobytes(),
            self.cids.tobytes(),
            self.weights.tobytes(),
        ]
        payload = bytearray()
        for section in sections:
            payload += struct.pack("<Q", len(section))
            payload += section
        payload = bytes(payload)
        byteorder = 1 if sys.byteorder == "little" else 2
        return _HEADER.pack(KB_MAGIC, KB_SCHEMA_VERSION, byteorder,
                            zlib.crc32(payload), len(payload)) + payload

    @classmethod
    def from_bytes(cls, data: bytes) -> "CompiledKB":
        """Parse and *verify* an artifact; raises
        :class:`CompiledKBError` on any truncation, checksum or
        schema mismatch, or structural corruption."""
        if len(data) < _HEADER.size:
            raise CompiledKBError("artifact truncated before header")
        magic, schema, byteorder, crc, length = _HEADER.unpack_from(data)
        if magic != KB_MAGIC:
            raise CompiledKBError(f"bad magic {magic!r}")
        if schema != KB_SCHEMA_VERSION:
            raise CompiledKBError(
                f"schema version {schema} != {KB_SCHEMA_VERSION}")
        if byteorder != (1 if sys.byteorder == "little" else 2):
            raise CompiledKBError("artifact byte order != host")
        payload = data[_HEADER.size:]
        if len(payload) != length:
            raise CompiledKBError(
                f"payload is {len(payload)} bytes, header says {length}")
        if zlib.crc32(payload) != crc:
            raise CompiledKBError("checksum mismatch")

        sections: list[bytes] = []
        cursor = 0
        for _ in range(6):
            if cursor + 8 > len(payload):
                raise CompiledKBError("section table truncated")
            (size,) = struct.unpack_from("<Q", payload, cursor)
            cursor += 8
            if cursor + size > len(payload):
                raise CompiledKBError("section overruns payload")
            sections.append(payload[cursor:cursor + size])
            cursor += size
        if cursor != len(payload):
            raise CompiledKBError("trailing bytes after sections")

        try:
            articles_fp = sections[0].decode("utf-8")
            # "".split("\x00") is ('',) — an empty section means an
            # empty table, not one empty name (tokens are never "")
            concepts = tuple(sections[1].decode("utf-8").split("\x00")) \
                if sections[1] else ()
            terms = tuple(sections[2].decode("utf-8").split("\x00")) \
                if sections[2] else ()
        except UnicodeDecodeError as exc:
            raise CompiledKBError(f"undecodable string table: {exc}") \
                from exc
        offsets = array("q")
        cids = array("i")
        weights = array("d")
        try:
            offsets.frombytes(sections[3])
            cids.frombytes(sections[4])
            weights.frombytes(sections[5])
        except ValueError as exc:
            raise CompiledKBError(f"misaligned array section: {exc}") \
                from exc
        _validate_layout(len(concepts), len(terms), offsets, cids,
                         weights)
        return cls(concepts=concepts, terms=terms, offsets=offsets,
                   cids=cids, weights=weights, articles_fp=articles_fp)


def _validate_layout(n_concepts: int, n_terms: int, offsets: array,
                     cids: array, weights: array) -> None:
    """Structural invariants beyond the checksum: offsets form a
    monotone cover of the value arrays, concept ids stay in range and
    ascend within each term row."""
    if len(offsets) != n_terms + 1:
        raise CompiledKBError(
            f"{len(offsets)} offsets for {n_terms} terms")
    if offsets[0] != 0 or offsets[-1] != len(cids) \
            or len(cids) != len(weights):
        raise CompiledKBError("offsets do not cover the value arrays")
    if _np is not None:
        off = _np.frombuffer(offsets, dtype=_np.int64)
        ids = _np.frombuffer(cids, dtype=_np.int32)
        if len(off) > 1 and bool((off[1:] < off[:-1]).any()):
            raise CompiledKBError("offsets not monotone")
        if len(ids) and (int(ids.min()) < 0
                         or int(ids.max()) >= n_concepts):
            raise CompiledKBError("concept id out of range")
    else:
        _validate_layout_python(n_concepts, offsets, cids)
    # ascending-within-row is the merge-join precondition
    for tid in range(n_terms):
        row = cids[offsets[tid]:offsets[tid + 1]]
        for k in range(1, len(row)):
            if row[k] <= row[k - 1]:
                raise CompiledKBError(
                    f"term row {tid} not strictly ascending")


def _validate_layout_python(n_concepts: int, offsets: array,
                            cids: array) -> None:
    """Pure-Python half of the backend split (numpy does the same
    checks with bulk comparisons)."""
    for k in range(1, len(offsets)):
        if offsets[k] < offsets[k - 1]:
            raise CompiledKBError("offsets not monotone")
    for cid in cids:
        if cid < 0 or cid >= n_concepts:
            raise CompiledKBError("concept id out of range")


def compile_kb(articles: dict[str, str]) -> CompiledKB:
    """Compile the concept articles into packed arrays.

    The float recipe -- ``1 + log(tf)``, smoothed IDF, L2
    normalization summed in ascending concept-id order -- reproduces
    the historical :class:`~repro.semantics.esa.EsaModel` dict build
    bit-for-bit.
    """
    concepts = tuple(sorted(articles))
    tf: dict[str, dict[int, float]] = {}
    doc_freq: dict[str, int] = {}
    for cidx, concept in enumerate(concepts):
        counts: dict[str, int] = {}
        for term in terms_of(articles[concept]):
            counts[term] = counts.get(term, 0) + 1
        for term, count in counts.items():
            tf.setdefault(term, {})[cidx] = 1.0 + math.log(count)
            doc_freq[term] = doc_freq.get(term, 0) + 1
    n_docs = len(concepts)
    terms = tuple(sorted(tf))
    offsets = array("q", [0])
    cids = array("i")
    weights = array("d")
    for term in terms:
        vec = tf[term]
        idf = math.log((1.0 + n_docs) / (1.0 + doc_freq[term])) + 1.0
        # vec keys ascend (concepts were enumerated in sorted order),
        # so the norm sums in ascending concept-id order
        weighted = [(c, w * idf) for c, w in vec.items()]
        norm = math.sqrt(sum(w * w for _, w in weighted))
        for c, w in weighted:
            cids.append(c)
            weights.append(w / norm)
        offsets.append(len(cids))
    return CompiledKB(concepts=concepts, terms=terms, offsets=offsets,
                      cids=cids, weights=weights,
                      articles_fp=articles_fingerprint(articles))


# -- the artifact ladder ---------------------------------------------------


def default_artifact_dir() -> str | None:
    """Where compiled-KB artifacts live; honours
    :data:`KB_CACHE_ENV` (empty string disables persistence)."""
    env = os.environ.get(KB_CACHE_ENV)
    if env is not None:
        return env or None
    return os.path.join(os.path.expanduser("~"), ".cache", "repro")


def artifact_path(articles: dict[str, str],
                  directory: str | None = None) -> str | None:
    """The artifact file for *articles* under *directory* (default:
    :func:`default_artifact_dir`), or None when persistence is off."""
    if directory is None:
        directory = default_artifact_dir()
    if not directory:
        return None
    fp = articles_fingerprint(articles)
    return os.path.join(
        directory, f"esa_kb_v{KB_SCHEMA_VERSION}_{fp[:16]}.rkb")


def save_artifact(kb: CompiledKB, path: str) -> None:
    """Atomically persist *kb* (write temp + rename, so a crashed
    writer never leaves a half-artifact under the final name)."""
    directory = os.path.dirname(path) or "."
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".rkb.tmp")
    try:
        with os.fdopen(fd, "wb") as handle:
            handle.write(kb.to_bytes())
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def load_artifact(path: str) -> CompiledKB:
    """Read and verify one artifact file."""
    with open(path, "rb") as handle:
        return CompiledKB.from_bytes(handle.read())


def load_or_compile(articles: dict[str, str],
                    directory: str | None = None) -> CompiledKB:
    """The fallback ladder: verified artifact -> recompile.

    A missing artifact is a plain ``miss`` (compile + persist); a
    corrupt one (truncated, bit-flipped, wrong schema, or compiled
    from different articles) additionally bumps the ``warnings``
    counter and is overwritten with a fresh compile.  Never raises on
    artifact damage and never returns unverified weights.
    """
    path = artifact_path(articles, directory)
    expected_fp = articles_fingerprint(articles)
    if path is not None and os.path.exists(path):
        try:
            kb = load_artifact(path)
            if kb.articles_fp != expected_fp:
                raise CompiledKBError(
                    "artifact compiled from different articles")
            KB_ARTIFACT_STATS.hits += 1
            return kb
        except (CompiledKBError, OSError):
            KB_ARTIFACT_STATS.warnings += 1
    kb = compile_kb(articles)
    KB_ARTIFACT_STATS.misses += 1
    if path is not None:
        try:
            save_artifact(kb, path)
        except OSError:
            pass  # persistence is best-effort; the KB is already built
    return kb


__all__ = [
    "BACKEND",
    "KB_MAGIC",
    "KB_SCHEMA_VERSION",
    "KB_CACHE_ENV",
    "KB_ARTIFACT_STATS",
    "CompiledKB",
    "CompiledKBError",
    "articles_fingerprint",
    "artifact_path",
    "compile_kb",
    "default_artifact_dir",
    "load_artifact",
    "load_or_compile",
    "save_artifact",
    "terms_of",
]
