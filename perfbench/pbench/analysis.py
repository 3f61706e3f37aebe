"""Turn span dumps and ``/metrics`` scrapes into per-layer figures."""

from __future__ import annotations

import re
from collections import defaultdict

from pbench.stats import overlap, percentile, self_time

#: span names (as recorded) -> the per-layer metric they feed
LAYER_OF = {
    "corpus.app": "corpus.app_ms",
    "policy.analyze": "policy.analyze_ms",
    "nlp.html_to_text": "nlp.html_to_text_ms",
    "nlp.split_sentences": "nlp.split_sentences_ms",
    "nlp.parse": "nlp.parse_ms",
    "policy.select_sentences": "policy.select_sentences_ms",
    "android.analyze_apk": "android.analyze_apk_ms",
    "description.infer": "description.infer_ms",
    "core.detect": "core.detect_ms",
    "pipeline.fingerprint": "pipeline.fingerprint_ms",
    "pipeline.store_get": "pipeline.store_get_ms",
    "pipeline.store_put": "pipeline.store_put_ms",
    "service.submit": "service.submit_ms",
    "service.run": "service.run_ms",
    "front.proxy": "front.proxy_ms",
}

STAGES = ("policy_analysis", "static_analysis", "description_permissions",
          "lib_policy_analysis", "detect")


# -- /metrics ----------------------------------------------------------------

_SAMPLE = re.compile(r'^([a-zA-Z_:][a-zA-Z0-9_:]*)(\{([^}]*)\})?\s+(\S+)$')
_LABEL = re.compile(r'(\w+)="((?:[^"\\]|\\.)*)"')


def parse_metrics(text: str) -> dict[tuple[str, tuple], float]:
    """Prometheus text -> ``{(name, sorted label pairs): value}``."""
    out: dict[tuple[str, tuple], float] = {}
    for line in text.splitlines():
        if not line or line.startswith("#"):
            continue
        match = _SAMPLE.match(line)
        if match is None:
            continue
        labels = tuple(sorted(_LABEL.findall(match.group(3) or "")))
        out[(match.group(1), labels)] = float(match.group(4))
    return out


def metric_delta(before: dict, after: dict, name: str,
                 **labels: str) -> float:
    """Sum of *name*'s samples matching *labels*, after minus before."""
    def total(scrape: dict) -> float:
        return sum(value for (n, pairs), value in scrape.items()
                   if n == name and all((k, v) in pairs
                                        for k, v in labels.items()))
    return total(after) - total(before)


def label_values(scrape: dict, name: str, label: str) -> set[str]:
    return {dict(pairs).get(label) for (n, pairs) in scrape
            if n == name and label in dict(pairs)}


# -- spans ---------------------------------------------------------------------


class SpanSet:
    """Spans of one process, restricted to a time window."""

    def __init__(self, dump: dict, window: tuple[float, float]) -> None:
        start, end = window
        self.spans = [s for s in dump["spans"]
                      if s[3] >= start and s[4] <= end]
        self.children: dict[int, list] = defaultdict(list)
        for span in self.spans:
            self.children[span[1]].append(span)
        self.gc = [g for g in dump["gc"]
                   if g[0] >= start and g[1] <= end]

    def named(self, name: str) -> list:
        return [s for s in self.spans if s[2] == name]

    def self_ms(self, span: list) -> float:
        kids = [(c[3], c[4]) for c in self.children.get(span[0], ())]
        return self_time((span[3], span[4]), kids) * 1000.0


class LayerTable:
    """Per-layer calls, total, per-call p50/p99 and self time."""

    def __init__(self) -> None:
        self.rows: dict[str, dict] = {}

    def add_spans(self, label: str, spanset: SpanSet,
                  spans: list) -> None:
        durations = [(s[4] - s[3]) * 1000.0 for s in spans]
        self.add(label, durations,
                 sum(spanset.self_ms(s) for s in spans))

    def add(self, label: str, durations_ms: list[float],
            self_ms: float) -> None:
        row = self.rows.setdefault(label, {"durations": [], "self": 0.0})
        row["durations"].extend(durations_ms)
        row["self"] += self_ms

    def summary(self, label: str) -> dict:
        row = self.rows.get(label)
        if not row or not row["durations"]:
            return {"calls": 0, "total": 0.0, "p50": 0.0, "p99": 0.0,
                    "self": 0.0}
        d = row["durations"]
        return {"calls": len(d), "total": sum(d),
                "p50": percentile(d, 50.0), "p99": percentile(d, 99.0),
                "self": row["self"]}


def add_process_layers(table: LayerTable, spanset: SpanSet) -> None:
    """Every recorded layer of one traced process."""
    names = {s[2] for s in spanset.spans}
    for name in sorted(names):
        if name in ("service.queue_put", "service.queue_get"):
            continue  # folded into service.queue_wait by the caller
        label = {"pipeline.check": "pipeline",
                 "study": "study"}.get(name, name)
        table.add_spans(label, spanset, spanset.named(name))


def queue_waits(spanset: SpanSet) -> dict[str, tuple[float, float]]:
    """job id -> (enqueued, dequeued): ``JobQueue.put`` returning to
    ``JobQueue.get`` returning that job."""
    put = {s[5]: s[4] for s in spanset.named("service.queue_put")}
    return {s[5]: (put[s[5]], s[4])
            for s in spanset.named("service.queue_get") if s[5] in put}


def gc_figures(spansets: list[SpanSet]) -> dict[str, float]:
    pauses = [(g[1] - g[0]) * 1000.0 for ss in spansets for g in ss.gc]
    return {
        "gc.pause_ms": sum(pauses),
        "gc.max_pause_ms": max(pauses, default=0.0),
        "gc.gen2_collections": float(sum(
            1 for ss in spansets for g in ss.gc if g[2] == 2)),
    }


def link_requests(requests: list[tuple[float, float, str, str]],
                  server: SpanSet) -> list[dict]:
    """Match each client request ``(sent, done, package, kind)`` to
    the server spans of the same request: the ``CheckService.submit``
    of the same package that started inside the round trip, and the
    queue wait and run of the job it resolved to.  ``src/`` carries
    no request id, so job id + package + time containment is the
    link."""
    submits: dict[str, list] = defaultdict(list)
    for span in server.named("service.submit"):
        submits[span[5][1]].append(span)
    runs = {s[5][0]: s for s in server.named("service.run")}
    waits = queue_waits(server)
    detect_hit: dict[str, bool] = {}
    for run in runs.values():
        for check in server.children.get(run[0], ()):
            for get in server.children.get(check[0], ()):
                if get[2] == "pipeline.store_get" and get[5][0] == "detect":
                    detect_hit[run[5][0]] = get[5][1]
    linked = []
    for sent, done, package, kind in requests:
        window = (sent, done)
        submit = next((s for s in submits.get(package, ())
                       if sent <= s[3] <= done), None)
        row = {"kind": kind, "rtt": done - sent, "submit": 0.0,
               "wait": 0.0, "run": 0.0, "coalesced": None,
               "stage_hit": None}
        if submit is not None:
            job_id, _pkg, coalesced = submit[5]
            row["submit"] = overlap(window, (submit[3], submit[4]))
            row["coalesced"] = coalesced
            if job_id in waits:
                row["wait"] = overlap(window, waits[job_id])
            if job_id in runs:
                run = runs[job_id]
                row["run"] = overlap(window, (run[3], run[4]))
            if not coalesced:
                row["stage_hit"] = detect_hit.get(job_id)
        row["http"] = max(0.0, row["rtt"] - row["submit"] - row["wait"]
                          - row["run"])
        linked.append(row)
    return linked


def link_front(requests: list[tuple[float, float, str, str]],
               front: SpanSet) -> list[float]:
    """Per request, the seconds of its round trip covered by the
    front's ``ClusterFront.proxy`` calls for the same package (a
    hedged check has two, overlapping)."""
    proxies: dict[str, list] = defaultdict(list)
    for span in front.named("front.proxy"):
        proxies[span[5]].append((span[3], span[4]))
    covered = []
    for sent, done, package, _kind in requests:
        mine = [p for p in proxies.get(package, ())
                if sent <= p[0] <= done]
        covered.append((done - sent) - self_time((sent, done), mine))
    return covered
