"""Semantic substrate: the private-information ontology and Explicit
Semantic Analysis (ESA) similarity.

PPChecker compares information phrases ("your precise location" vs.
"location") with ESA over a knowledge base.  The paper used a
Wikipedia-derived base; offline we embed a privacy-domain concept base
(:mod:`repro.semantics.knowledge`) that covers the information types
the detectors reason about, and keep the paper's interface and 0.67
decision threshold.
"""

from repro.semantics.compiled import CompiledKB, compile_kb
from repro.semantics.resources import (
    InfoType,
    INFO_TYPES,
    normalize_resource,
)
from repro.semantics.esa import (
    EsaModel,
    default_model,
    match_sets,
    similarity,
    similarity_many,
)

__all__ = [
    "InfoType",
    "INFO_TYPES",
    "normalize_resource",
    "EsaModel",
    "default_model",
    "similarity",
    "similarity_many",
    "match_sets",
    "CompiledKB",
    "compile_kb",
]
