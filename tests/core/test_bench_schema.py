"""Every committed BENCH_*.json carries the payload schema version.

The benchmark emitters (pipeline, service, nlp, scale) stamp their output
through :func:`repro.core.schema.versioned`; this suite pins the
committed copies -- repo root and ``benchmarks/baselines/`` -- to the
shared validator so a benchmark file can never silently drift from
the payload contract ``benchmarks/compare.py`` relies on.
"""

import json
import os

import pytest

from repro.core.schema import (
    SCHEMA_VERSION,
    validate_versioned,
    versioned,
)

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))
BENCH_FILES = ("BENCH_nlp.json", "BENCH_pipeline.json",
               "BENCH_service.json", "BENCH_scale.json",
               "BENCH_cluster.json", "BENCH_resilience.json")


def bench_paths():
    for filename in BENCH_FILES:
        yield os.path.join(REPO_ROOT, filename)
        yield os.path.join(REPO_ROOT, "benchmarks", "baselines",
                           filename)


@pytest.mark.parametrize("path", list(bench_paths()),
                         ids=lambda p: os.path.relpath(p, REPO_ROOT))
def test_committed_bench_files_are_versioned(path):
    assert os.path.exists(path), f"missing benchmark file: {path}"
    with open(path, encoding="utf-8") as handle:
        payload = json.load(handle)
    validate_versioned(payload, source=path)
    assert payload["schema_version"] == SCHEMA_VERSION


@pytest.mark.parametrize("path", [
    os.path.join(REPO_ROOT, "BENCH_nlp.json"),
    os.path.join(REPO_ROOT, "benchmarks", "baselines",
                 "BENCH_nlp.json"),
], ids=["root", "baseline"])
def test_nlp_bench_has_vectorized_cold_fields(path):
    """The NLP bench's phase block: ``compare.py`` gates
    ``vectorized_cold_speedup``, so the committed copies must carry
    it alongside the oracle's ``no_memo`` phase it is measured
    against."""
    with open(path, encoding="utf-8") as handle:
        payload = json.load(handle)
    for phase in ("no_memo", "vectorized_cold"):
        row = payload[phase]
        assert row["seconds"] > 0.0
        assert row["pairs_per_second"] > 0.0
    assert payload["vectorized_cold_speedup"] >= 5.0
    assert payload["vectorized_cold"]["pairs_per_second"] \
        >= 5.0 * payload["no_memo"]["pairs_per_second"]


class TestValidateVersioned:
    def test_accepts_stamped_payload(self):
        validate_versioned(versioned({"x": 1}))

    def test_rejects_non_dict(self):
        with pytest.raises(ValueError, match="expected a JSON object"):
            validate_versioned([1, 2, 3], source="bench")

    def test_rejects_missing_version(self):
        with pytest.raises(ValueError, match="missing schema_version"):
            validate_versioned({"x": 1})

    def test_rejects_wrong_version(self):
        with pytest.raises(ValueError, match="schema_version"):
            validate_versioned({"schema_version": SCHEMA_VERSION + 1})
