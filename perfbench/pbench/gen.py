"""Seeded generator of the serving workloads' request sequences.

The program under test sees only the bundle documents made here.
Everything is derived from ``--seed``: the same seed gives the same
bundles in the same order, so ``serve-recheck`` and
``cluster-recheck`` replay one identical sequence.

Fresh bundles come from the paper window (apps ``0..1196``) of the
corpora of seeds ``seed, seed + 1, ...``, shuffled per window and
deduplicated by content, so a "new" bundle has never been sent before
-- not in the warm-up, not earlier in the run.
"""

from __future__ import annotations

import random
from collections import OrderedDict
from dataclasses import dataclass, field

from repro.android.packer import unpack
from repro.android.serialization import bundle_to_dict
from repro.corpus.appstore import CorpusSpec
from repro.corpus.mutations import MUTATIONS, rewrap_html
from repro.corpus.plans import N_APPS
from repro.hashing import fingerprint
from repro.policy.html_text import html_to_text

NEW = "new"
RESUBMIT = "resubmit"
REVISION = "revision"
KINDS = (NEW, RESUBMIT, REVISION)

#: resubmissions draw from this many most recent distinct bundles:
#: 4x the service's default 256-entry completed-job LRU
RECENT = 1024
#: the re-check mix: share of resubmissions, then of revisions; the
#: rest are new bundles
RECHECK_MIX = (0.70, 0.20)


@dataclass
class Request:
    kind: str
    key: str
    package: str
    doc: dict


class FreshSource:
    """Never-seen bundles in a seeded order."""

    def __init__(self, seed: int) -> None:
        self.rng = random.Random(f"fresh:{seed}")
        self._next_seed = seed
        self._spec: CorpusSpec | None = None
        self._order: list[int] = []
        self.seen: set[str] = set()

    def next(self) -> Request:
        while True:
            if not self._order:
                self._spec = CorpusSpec(seed=self._next_seed,
                                        n_apps=N_APPS)
                self._next_seed += 1
                self._order = list(range(N_APPS))
                self.rng.shuffle(self._order)
            bundle = self._spec.app(self._order.pop()).bundle
            if bundle.apk.packed:
                unpack(bundle.apk)  # a wire bundle is never packed
            doc = bundle_to_dict(bundle)
            key = fingerprint(doc)
            if key not in self.seen:
                self.seen.add(key)
                return Request(NEW, key, bundle.package, doc)

    def take(self, n: int) -> list[Request]:
        return [self.next() for _ in range(n)]


def revise(doc: dict, rng: random.Random) -> dict:
    """A new version of *doc*: its policy passed through one seeded
    :mod:`repro.corpus.mutations` edit and re-wrapped as HTML."""
    name = rng.choice(sorted(MUTATIONS))
    seed = rng.randrange(2 ** 31)
    text = MUTATIONS[name](html_to_text(doc["policy"]), seed=seed)
    return dict(doc, policy=rewrap_html(text, seed=seed))


#: the fixed-rate phase is sent in this many equal segments, with a
#: closed-loop capacity burst before, between and after the segments
#: and the ladder steps, so the capacity figure is a median over the
#: whole run rather than over one stretch of it
FIXED_SEGMENTS = 4


@dataclass
class Plan:
    """One serving workload's inputs: a warm-up set (disjoint from
    everything measured), an untimed prefill, and the timed phases in
    the order they are sent, as ``(rate, requests)``.  A phase with a
    rate is open-loop: the first is the fixed-rate latency phase, the
    rest climb the rate ladder.  A phase with rate ``None`` is a
    closed-loop capacity burst."""

    warmup: list[Request]
    prefill: list[Request]
    phases: list[tuple[float | None, list[Request]]]
    shares: dict[str, float] = field(default_factory=dict)

    def measured(self) -> list[Request]:
        return [r for _rate, requests in self.phases for r in requests]

    def every_request(self) -> list[Request]:
        return self.warmup + self.prefill + self.measured()


def _split(total: int, parts: int) -> list[int]:
    return [total // parts + (1 if k < total % parts else 0)
            for k in range(parts)]


def phase_sizes(rates: tuple[float, ...], fixed_requests: int,
                step_seconds: float, capacity: int,
                ) -> list[tuple[float | None, int]]:
    """The open-loop phases -- the fixed-rate phase in
    :data:`FIXED_SEGMENTS` segments, then one step per higher ladder
    rate -- with a capacity burst before, between and after them; the
    bursts share *capacity* requests.  Empty phases are left out."""
    open_loop = [(rates[0], n)
                 for n in _split(fixed_requests, FIXED_SEGMENTS)]
    open_loop += [(rate, max(1, int(rate * step_seconds)))
                  for rate in rates[1:]]
    bursts = _split(capacity, len(open_loop) + 1)
    sizes: list[tuple[float | None, int]] = [(None, bursts[0])]
    for phase, burst in zip(open_loop, bursts[1:]):
        sizes += [phase, (None, burst)]
    return [(rate, n) for rate, n in sizes if n > 0]


def recheck_plan(seed: int, rates: tuple[float, ...],
                 fixed_requests: int, step_seconds: float,
                 capacity: int, warmup: int) -> Plan:
    """``serve-recheck``/``cluster-recheck``: 70% resubmissions from
    the :data:`RECENT` most recent distinct bundles, 20% revisions of
    a recent app's policy, 10% new bundles.  The prefill checks
    :data:`RECENT` new bundles first, so the recent set is full when
    timing starts."""
    source = FreshSource(seed)
    rng = random.Random(f"recheck:{seed}")
    warm = source.take(warmup)
    recent: OrderedDict[str, Request] = OrderedDict()

    def remember(request: Request) -> Request:
        recent[request.key] = request
        recent.move_to_end(request.key)
        while len(recent) > RECENT:
            recent.popitem(last=False)
        return request

    prefill = [remember(source.next()) for _ in range(RECENT)]

    def draw() -> Request:
        roll = rng.random()
        if roll < RECHECK_MIX[0]:
            base = recent[rng.choice(list(recent))]
            return remember(Request(RESUBMIT, base.key, base.package,
                                    base.doc))
        if roll < RECHECK_MIX[0] + RECHECK_MIX[1]:
            base = recent[rng.choice(list(recent))]
            doc = revise(base.doc, rng)
            key = fingerprint(doc)
            source.seen.add(key)
            return remember(Request(REVISION, key, base.package, doc))
        return remember(source.next())

    phases = [(rate, [draw() for _ in range(n)])
              for rate, n in phase_sizes(rates, fixed_requests,
                                         step_seconds, capacity)]
    plan = Plan(warmup=warm, prefill=prefill, phases=phases)
    plan.shares = realized_shares(plan.measured())
    return plan


def realized_shares(requests: list[Request]) -> dict[str, float]:
    total = len(requests) or 1
    return {kind: sum(1 for r in requests if r.kind == kind) / total
            for kind in KINDS}
