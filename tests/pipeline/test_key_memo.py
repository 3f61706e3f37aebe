"""Cache-key parts are computed once, and only once per input.

The configuration fingerprints (analyzer, AutoCog, matcher, ESA
model) and the lib-policy keys do not change from app to app; they
are memoized on their exact inputs.  Each bundle part (policy text,
description, APK) is digested once per bundle, on every plane: an
in-process check, a served ``/v1/check`` and the cluster front.  A
check whose stages all hit computes only the per-app digests, and a
changed configuration gets a new key with the same recipe as before.
"""

from __future__ import annotations

import gc
import sys
from collections import Counter
from dataclasses import replace

import pytest

from repro.android import serialization
from repro.android.serialization import bundle_to_dict
from repro.core.checker import PPChecker
from repro.core.matching import InfoMatcher
from repro.corpus.appstore import CorpusSpec
from repro.description.autocog import AutoCog
from repro.hashing import fingerprint, fingerprint_text
from repro.pipeline import stages
from repro.pipeline.artifacts import MemoryStore
from repro.pipeline.pipeline import Pipeline
from repro.policy.analyzer import PolicyAnalyzer
from repro.policy.model import PolicyAnalysis
from repro.policy.patterns import SEED_PATTERNS
from repro.service import ServiceClient, ServiceConfig, start_service
from repro.service.cluster import ClusterConfig, start_cluster

from tests.service.test_cluster import wait_cluster_up


@pytest.fixture
def hash_calls(monkeypatch):
    """Counts of ``fingerprint`` / ``fingerprint_text`` calls, through
    every module that imported them, and of ``dex_to_dict`` (the
    APK's canonical serialization); ``texts`` counts the digests of
    each text."""
    calls = Counter(fingerprint=0, fingerprint_text=0, dex_to_dict=0)
    calls["texts"] = Counter()

    def counting(name, real):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            if name == "fingerprint_text":
                calls["texts"][args[0]] += 1
            return real(*args, **kwargs)
        return wrapper

    for name, real in (("fingerprint", fingerprint),
                       ("fingerprint_text", fingerprint_text)):
        wrapper = counting(name, real)
        for module in list(sys.modules.values()):
            if (getattr(module, "__name__", "").startswith("repro")
                    and getattr(module, name, None) is real):
                monkeypatch.setattr(module, name, wrapper)
    monkeypatch.setattr(serialization, "dex_to_dict",
                        counting("dex_to_dict",
                                 serialization.dex_to_dict))
    return calls


def reset(hash_calls) -> None:
    for name in ("fingerprint", "fingerprint_text", "dex_to_dict"):
        hash_calls[name] = 0
    hash_calls["texts"].clear()


def part_digests(hash_calls, bundle) -> dict[str, int]:
    """How often each part of *bundle* was digested."""
    return {"policy": hash_calls["texts"][bundle.policy],
            "description": hash_calls["texts"][bundle.description],
            "apk": hash_calls["dex_to_dict"]}


ONCE = {"policy": 1, "description": 1, "apk": 1}


def test_all_hit_check_hashes_only_per_app_inputs(hash_calls):
    spec = CorpusSpec(n_apps=64)
    checker = PPChecker(lib_policy_source=spec.lib_policy)
    bundle = spec.app(0).bundle
    libs = checker.analyze_code(bundle).libraries
    assert len([lib for lib in libs if spec.lib_policy(lib.lib_id)]) == 2
    first = checker.check(bundle)
    reset(hash_calls)
    before = checker.stats.snapshot()
    # an equal bundle, so its part digests are computed afresh
    assert checker.check(replace(bundle)) == first
    after = checker.stats.snapshot()
    for stage in stages.STAGES:
        assert after[stage]["executions"] == before[stage]["executions"]
    # fingerprint: the APK digest, the policy key, the detect key and
    # the policy-analysis digest in it (the static and description
    # keys are memoized on the part digests); fingerprint_text: the
    # policy and description texts.  The libs add nothing.
    assert hash_calls["fingerprint"] == 4
    assert hash_calls["fingerprint_text"] == 2
    assert part_digests(hash_calls, bundle) == ONCE


def test_fresh_check_digests_each_part_once(hash_calls):
    spec = CorpusSpec(n_apps=64)
    checker = PPChecker(lib_policy_source=spec.lib_policy)
    bundle = spec.app(3).bundle
    checker.check(bundle)
    assert part_digests(hash_calls, bundle) == ONCE


def test_served_check_digests_each_part_once(hash_calls):
    """Submit (the job key) and pipeline (the stage keys) share one
    set of digests: the job carries the decoded bundle."""
    bundle = CorpusSpec(n_apps=64).app(3).bundle
    doc = bundle_to_dict(bundle)
    handle = start_service(ServiceConfig(port=0, workers=1))
    try:
        client = ServiceClient(port=handle.port, timeout=60.0)
        reset(hash_calls)
        assert client.check(doc)["package"] == bundle.package
        client.close()
    finally:
        handle.close()
    assert part_digests(hash_calls, bundle) == ONCE


def test_cluster_front_digests_each_part_once(hash_calls, tmp_path):
    """The front decodes and keys each document once (its shards,
    separate processes, key it again on their side)."""
    bundle = CorpusSpec(n_apps=64).app(3).bundle
    doc = bundle_to_dict(bundle)
    handle = start_cluster(ClusterConfig(
        service=ServiceConfig(port=0, workers=1,
                              state_dir=str(tmp_path / "state")),
        shards=2))
    try:
        client = ServiceClient(port=handle.port, timeout=60.0)
        wait_cluster_up(client, shards=2)
        reset(hash_calls)
        assert client.check(doc)["package"] == bundle.package
        client.close()
    finally:
        handle.close()
    assert part_digests(hash_calls, bundle) == ONCE


def test_changed_configuration_gets_a_new_key():
    autocog = AutoCog()
    key = autocog.fingerprint()
    assert key == fingerprint({
        "model": {perm: list(phrases)
                  for perm, phrases in autocog._model.items()},
        "threshold": autocog.threshold,
        "use_esa_fallback": autocog.use_esa_fallback,
    })
    autocog.threshold = 0.5
    assert autocog.fingerprint() != key
    autocog.threshold = 0.67
    assert autocog.fingerprint() == key
    autocog._model["android.permission.CAMERA"] = ("take a photo",)
    assert autocog.fingerprint() != key

    matcher = InfoMatcher()
    key = matcher.fingerprint()
    assert key == fingerprint({"threshold": matcher.threshold,
                               "esa": matcher.esa.fingerprint()})
    matcher.threshold = 0.5
    assert matcher.fingerprint() != key
    # the exact value is part of the key: 1 and 1.0 render differently
    matcher.threshold = 1
    as_int = matcher.fingerprint()
    matcher.threshold = 1.0
    assert matcher.fingerprint() != as_int

    analyzer = PolicyAnalyzer()
    key = analyzer.fingerprint()
    analyzer.patterns = SEED_PATTERNS[:2]
    assert analyzer.fingerprint() != key
    analyzer.patterns = SEED_PATTERNS
    assert analyzer.fingerprint() == key

    assert stages.lib_policy_key("fp", "lib", "one text") != \
        stages.lib_policy_key("fp", "lib", "another text")


def test_changed_threshold_reruns_the_stage():
    spec = CorpusSpec(n_apps=64)
    checker = PPChecker(lib_policy_source=spec.lib_policy)
    bundle = spec.app(0).bundle
    checker.check(bundle)
    runs = checker.stats.snapshot()["description_permissions"]["executions"]
    checker.autocog.threshold = 0.5
    checker.check(bundle)
    assert checker.stats.snapshot()["description_permissions"][
        "executions"] == runs + 1


def test_policy_analyses_stay_bounded_by_the_store():
    """The store is the one policy-analysis cache: more distinct
    policies than it holds leave at most its bound of analyses alive."""
    def alive() -> int:
        gc.collect()
        return sum(isinstance(obj, PolicyAnalysis)
                   for obj in gc.get_objects())

    bound = 8
    pipeline = Pipeline(store=MemoryStore(max_entries=bound))
    bundle = CorpusSpec(n_apps=64).app(0).bundle
    before = alive()
    for n in range(6 * bound):
        pipeline.policy_analysis(replace(
            bundle, policy=f"We collect your location for reason {n}."))
    assert alive() - before <= bound
