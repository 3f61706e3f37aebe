"""The three workloads: what each runs, measures and checks.

A workload runs one *pass* with tracing off, which gives the
end-to-end metrics; ``--trace 1`` adds a second pass over the same
inputs with the layer wrappers installed, which gives the per-layer
metrics and, against the first pass, the tracing overhead.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field

from pbench import analysis, gen
from pbench.loadgen import run_phase
from pbench.procs import (
    Server,
    Workspace,
    cpu_steal_s,
    finish_child,
    run_child,
    spawn_child,
)
from pbench.stats import (
    LATENCY_LIMIT_MS,
    beyond,
    capacity_rps,
    max_rps,
    median,
    percentile,
    step_result,
    tail_percentile,
    window_rates,
)
from pbench.tracing import load as load_trace

#: end-to-end metrics: name -> (unit, better)
END_TO_END = {
    "setup_s": ("s", "lower"),
    "apps_per_s": ("apps/s", "higher"),
    "p50_ms": ("ms", "lower"),
    "p99_ms": ("ms", "lower"),
    "max_rps": ("req/s", "higher"),
    "failed_share": ("ratio", "lower"),
    "peak_rss_mb": ("MB", "lower"),
}
#: the end-to-end metrics carried, with a bound, in the result line.
#: The other four are printed for every workload but not bounded:
#: ``failed_share`` is 0 on a healthy run and travels as the line's
#: ``failed``/``attempted``; ``p50_ms`` and ``p99_ms`` of the serving
#: workloads move with the CPU time a shared host steals, and
#: ``max_rps`` jumps a whole ladder step when the capacity sits near
#: one (see the README for the measured spreads).
RESULT_METRICS = ("setup_s", "apps_per_s", "peak_rss_mb")

#: per-layer metrics: name -> unit
PER_LAYER = {name: "ms" for name in analysis.LAYER_OF.values()}
PER_LAYER.update({
    "nlp.parse_hit_rate": "ratio",
    "semantics.esa_hit_rate": "ratio",
    **{f"pipeline.hit_rate.{s}": "ratio" for s in analysis.STAGES},
    "pipeline.self_ms": "ms",
    "study.self_ms": "ms",
    "service.queue_wait_ms": "ms",
    "service.http_ms": "ms",
    "service.coalesced_share": "ratio",
    "front.self_ms": "ms",
    "front.route_skew": "ratio",
    "front.hedges": "count",
    "front.hedges_lost": "count",
    "front.reroutes": "count",
    "gc.pause_ms": "ms",
    "gc.max_pause_ms": "ms",
    "gc.gen2_collections": "count",
    "loadgen.late_p99_ms": "ms",
})

#: set-up is measured this many times per pass; the median is reported
SETUP_RUNS = 5
#: study size per second of ``--seconds`` (16,000 apps at 20 s)
STUDY_APPS_PER_SECOND = 800
#: fixed-rate phase size per second of ``--seconds`` (2,000 at 20 s)
FIXED_REQUESTS_PER_SECOND = 100
#: each higher ladder step lasts this share of ``--seconds``
STEP_SHARE = 0.05
#: closed-loop capacity requests per second of ``--seconds``, shared
#: by the capacity bursts (3.5-5 s of closed loop at 20 s);
#: serve-recheck and cluster-recheck send the same sequence up to the
#: ladder because both have this figure and ladders of one length
CAPACITY_REQUESTS_PER_SECOND = 90
#: each capacity burst's answers are split into this many windows;
#: ``apps_per_s`` is the median window rate over all bursts
CAPACITY_WINDOWS = 3
WARMUP_REQUESTS = 100
RECHECK_RATES = (200.0, 300.0, 400.0, 500.0)
#: the cluster runs four processes on the same cores as the load: at
#: 200 rps it sits near its capacity, where the tail is chaos, so its
#: latency is measured at 100 rps and its ladder stops at 250
CLUSTER_RATES = (100.0, 150.0, 200.0, 250.0)
#: a failed request is charged the client timeout as its latency
CLIENT_TIMEOUT_S = 30.0
PAPER_EXEMPT = ("apps", "problem_fraction")


@dataclass
class Pass:
    metrics: dict[str, float]
    attempted: int
    failed: int
    correct: bool
    lines: list[str] = field(default_factory=list)
    raw: dict = field(default_factory=dict)


@dataclass
class Result:
    metrics: dict[str, tuple[float, str]]
    attempted: int
    failed: int
    correct: bool
    lines: list[str]


def _fmt(value: float) -> str:
    return f"{value:.4f}" if abs(value) < 1e6 else f"{value:.6g}"


def e2e_table(metrics: dict[str, float], attempted: int,
              failed: int) -> list[str]:
    lines = [f"  {'metric':<14}{'value':>14}  {'unit':<8}{'better':<8}"
             "bounded"]
    for name, (unit, better) in END_TO_END.items():
        value = (failed / attempted if name == "failed_share"
                 else metrics[name])
        note = (f"  ({failed} of {attempted} attempted)"
                if name == "failed_share" else "")
        bounded = "yes" if name in RESULT_METRICS else "no"
        lines.append(f"  {name:<14}{_fmt(value):>14}  {unit:<8}"
                     f"{better:<8}{bounded}{note}")
    return lines


def tail_note(label: str, values: list[float]) -> str:
    q = tail_percentile(len(values))
    if q is None:
        return f"  {label}: n={len(values)} (too few for a tail)"
    return (f"  {label}: n={len(values)}, p50 {_fmt(median(values))} ms,"
            f" highest percentile with >=10 beyond: p{q:g} = "
            f"{_fmt(percentile(values, q))} ms "
            f"({beyond(len(values), q)} beyond)")


# -- study -------------------------------------------------------------------


def study_pass(ws: Workspace, seed: int, apps: int,
               traced: bool) -> Pass:
    runs = 1 if traced else SETUP_RUNS
    setups = [run_child(ws, "first-check", ["--seed", str(seed)],
                        ws.path("probe.trace") if traced else None)
              for _ in range(runs)]
    result_path = ws.path("study.json")
    trace_out = ws.path("study.trace") if traced else None
    steal = cpu_steal_s()
    run_child(ws, "study", ["--seed", str(seed), "--apps", str(apps),
                            "--result", result_path], trace_out)
    steal = cpu_steal_s() - steal
    with open(result_path, encoding="utf-8") as handle:
        doc = json.load(handle)
    per_app = doc["per_app_ms"]
    summary = doc["summary"]
    failed = summary["quarantined_apps"]
    lines = [f"  study of apps 0..{apps - 1}, one worker: "
             f"{_fmt(doc['elapsed_s'])} s",
             tail_note("per-app time", per_app),
             f"  set-up: median of {runs} spawns "
             f"{[round(s, 4) for s in setups]}",
             f"  outcome digest {doc['digest'][:16]}",
             f"  host: {steal:.2f} CPU-s stolen by the hypervisor "
             f"during the study"]
    correct = failed == 0
    if apps >= gen.N_APPS:
        from repro.core.study import PAPER_RESULTS

        wrong = {k: (v, summary.get(k)) for k, v in PAPER_RESULTS.items()
                 if k not in PAPER_EXEMPT and summary.get(k) != v}
        correct = correct and not wrong
        lines.append("  paper counts: " + (
            "all match PAPER_RESULTS" if not wrong else
            f"MISMATCH {wrong}"))
    else:
        lines.append(f"  paper counts: not checked ({apps} < "
                     f"{gen.N_APPS} apps)")
    rate = apps / doc["elapsed_s"]
    metrics = {
        "setup_s": median(setups),
        "apps_per_s": rate,
        "p50_ms": percentile(per_app, 50.0),
        "p99_ms": percentile(per_app, 99.0),
        # a closed single-worker loop: its highest sustained rate is
        # its throughput
        "max_rps": rate,
        "peak_rss_mb": doc["peak_rss_kb"] / 1024.0,
    }
    return Pass(metrics, attempted=apps, failed=failed, correct=correct,
                lines=lines, raw={"doc": doc, "trace": trace_out})


def study_layers(p: Pass) -> tuple[dict[str, float], list[str]]:
    doc = p.raw["doc"]
    dump = load_trace(p.raw["trace"])
    spans = analysis.SpanSet(dump, (doc["started"], doc["ended"]))
    table = analysis.LayerTable()
    analysis.add_process_layers(table, spans)
    total_ms = doc["elapsed_s"] * 1000.0
    layers = layer_values(table)
    for stage in analysis.STAGES:
        row = doc["stage_stats"].get(stage, {})
        layers[f"pipeline.hit_rate.{stage}"] = row.get("hit_rate", 0.0)
    layers.update(memo_rates(dump["memo"]))
    layers.update(analysis.gc_figures([spans]))
    lines = layer_lines(table, total_ms, "study wall time",
                        "outside the study span")
    return layers, lines


def memo_rates(memo: dict) -> dict[str, float]:
    def rate(names: list[str]) -> float:
        hits = sum(memo[n]["hits"] for n in names if n in memo)
        misses = sum(memo[n]["misses"] for n in names if n in memo)
        return hits / (hits + misses) if hits + misses else 0.0
    return {"nlp.parse_hit_rate": rate(["nlp_parse"]),
            "semantics.esa_hit_rate": rate(
                [n for n in memo if n.startswith("esa_")])}


def layer_values(table: analysis.LayerTable) -> dict[str, float]:
    values = {name: 0.0 for name in PER_LAYER}
    for span_name, metric in analysis.LAYER_OF.items():
        values[metric] = table.summary(span_name)["total"]
    values["pipeline.self_ms"] = table.summary("pipeline")["self"]
    values["study.self_ms"] = table.summary("study")["self"]
    return values


def layer_lines(table: analysis.LayerTable, total_ms: float,
                total_label: str, remainder_label: str) -> list[str]:
    lines = [f"  layer breakdown over {total_label} "
             f"{_fmt(total_ms)} ms (self time = span minus child spans)",
             f"  {'layer':<26}{'calls':>8}{'total ms':>12}"
             f"{'p50 ms':>10}{'p99 ms':>10}{'self ms':>12}{'share':>8}"]
    attributed = 0.0
    for label in sorted(table.rows):
        s = table.summary(label)
        attributed += s["self"]
        share = s["self"] / total_ms if total_ms else 0.0
        lines.append(f"  {label:<26}{s['calls']:>8}{s['total']:>12.1f}"
                     f"{s['p50']:>10.4f}{s['p99']:>10.4f}"
                     f"{s['self']:>12.1f}{share:>8.1%}")
    rest = total_ms - attributed
    lines.append(f"  {'unattributed':<26}{'':>8}{'':>12}{'':>10}{'':>10}"
                 f"{rest:>12.1f}{rest / total_ms if total_ms else 0:>8.1%}"
                 f"  ({remainder_label})")
    return lines


# -- serving -----------------------------------------------------------------


#: in-process reference checks run on this many worker processes
REFERENCE_WORKERS = 2


def reference_reports(ws: Workspace, plan: gen.Plan) -> dict[str, dict]:
    """The in-process ``PPChecker.check`` report of every distinct
    bundle the plan sends, computed before any timing starts."""
    distinct: dict[str, dict] = {}
    for request in plan.every_request():
        distinct.setdefault(request.key, request.doc)
    keys = list(distinct)
    jobs = []
    out: dict[str, dict] = {}
    try:
        for i in range(REFERENCE_WORKERS):
            chunk = keys[i::REFERENCE_WORKERS]
            docs_path = ws.path("reference-docs.json")
            out_path = ws.path("reference-reports.json")
            with open(docs_path, "w", encoding="utf-8") as handle:
                json.dump([distinct[k] for k in chunk], handle)
            jobs.append((chunk, out_path, spawn_child(
                ws, "reference",
                ["--docs", docs_path, "--result", out_path])))
        for chunk, out_path, process in jobs:
            finish_child(process, "reference")
            with open(out_path, encoding="utf-8") as handle:
                out.update(zip(chunk, json.load(handle)))
    finally:
        # a failed child must not leave its sibling running
        for _chunk, _out, process in jobs:
            if process.poll() is None:
                process.kill()
                process.communicate()
    return out


def scrape(clients: list) -> list[dict]:
    return [analysis.parse_metrics(c.metrics_text()) for c in clients]


def serve_pass(ws: Workspace, plan: gen.Plan, reference: dict,
               cluster: bool, traced: bool) -> Pass:
    from repro.hashing import fingerprint
    from repro.service import ServiceClient

    serve_args = (["--shards", "2", "--workers", "1"] if cluster
                  else ["--workers", "2"])
    runs = 1 if traced else SETUP_RUNS
    setups = []
    first = plan.warmup[0]
    for k in range(runs):
        server = Server(ws, serve_args,
                        ws.path("serve.trace") if traced else None)
        started = time.monotonic()
        try:
            client = ServiceClient(port=server.start(),
                                   timeout=CLIENT_TIMEOUT_S)
            probe = client.check(first.doc)
            setups.append(time.monotonic() - started)
            if cluster:
                server.extra_pids = [
                    row["pid"] for row in client.healthz()["shard_detail"]]
        except BaseException:
            server.stop()
            raise
        if k < runs - 1:
            server.kill()  # a set-up probe: nothing to drain

    def send(request: gen.Request) -> dict:
        return client.check(request.doc)

    try:
        shard_clients = []
        if cluster:
            shard_clients = [
                ServiceClient(port=row["port"], timeout=CLIENT_TIMEOUT_S)
                for row in client.healthz()["shard_detail"]]
        _s, warm = run_phase(send, plan.warmup[1:], None)
        _s, prefill = run_phase(send, plan.prefill, None)
        before = scrape([client, *shard_clients])
        steal = cpu_steal_s()
        phases = [run_phase(send, requests, rate)
                  for rate, requests in plan.phases]
        steal = cpu_steal_s() - steal
        after = scrape([client, *shard_clients])
        peak = server.peak_rss_mb()
    finally:
        server.stop()

    results = [probe] + warm + prefill + [
        r for _samples, res in phases for r in res]
    failed, wrong, outcomes = check_results(
        plan.every_request(), results, reference)
    attempted = len(results)
    # the fixed-rate segments pool into one phase, keyed by its rate
    rated: dict[float, list] = {}
    capacity = []
    for (rate, _r), (samples, _res) in zip(plan.phases, phases):
        if rate is None:
            capacity.append(samples)
        else:
            rated.setdefault(rate, []).append(samples)
    fixed_rate, segments = next(iter(rated.items()))
    fixed = [s for segment in segments for s in segment]
    lat = [s.latency * 1000.0 if s.ok else CLIENT_TIMEOUT_S * 1000.0
           for s in fixed]
    lags = [s.lag * 1000.0 for s in fixed]
    steps = [step_result(rate, segments)
             for rate, segments in rated.items()]
    measured = len(plan.measured())
    lines = [
        tail_note(f"latency from due time at {fixed_rate:g} rps",
                  lat),
        f"  generator lag p99 {_fmt(percentile(lags, 99.0))} ms "
        f"(loadgen.late_p99_ms)",
        f"  set-up: median of {runs} spawns "
        f"{[round(s, 4) for s in setups]}",
        "  ladder (pass = p99 <= "
        f"{LATENCY_LIMIT_MS:g} ms, no failures, no growing lag):",
    ]
    for step in steps:
        lines.append(
            f"    {step.rate:>6g} rps  n={step.requests:<5} "
            f"p99 {step.p99_ms:>9.2f} ms  achieved "
            f"{step.achieved_rps:>7.1f}/s  lag growing "
            f"{'yes' if step.lag_growing else 'no ':<3}  "
            f"{'pass' if step.passed else 'FAIL'}")
    apps_per_s = capacity_rps(capacity, CAPACITY_WINDOWS)
    lines.append(f"  capacity, closed loop on both connections in "
                 f"{len(capacity)} bursts of "
                 f"{[len(burst) for burst in capacity]}: median window "
                 f"{_fmt(apps_per_s)}/s (apps_per_s); window rates")
    for burst in capacity:
        rates = window_rates(burst, CAPACITY_WINDOWS)
        lines.append(f"    {[round(r, 1) for r in rates]}")
    lines.append("  realized mix over " f"{measured} measured requests: "
                 + ", ".join(f"{k} {v:.1%}"
                             for k, v in plan.shares.items()))
    # up to the last fixed-rate segment, serve-recheck and
    # cluster-recheck send the same sequence
    last_fixed = max(i for i, (rate, _r) in enumerate(plan.phases)
                     if rate == fixed_rate)
    common = len(plan.warmup) + len(plan.prefill) + sum(
        len(requests) for _rate, requests in plan.phases[:last_fixed + 1])
    lines.append(f"  outcome digest {fingerprint(outcomes[:common])[:16]} "
                 f"(warm-up, prefill, up to the fixed rate's end), "
                 f"{fingerprint(outcomes)[:16]} (all {len(outcomes)}); "
                 f"served reports differing from the in-process "
                 f"reference: {wrong}")
    lines.append(f"  host: {steal:.2f} CPU-s stolen by the hypervisor "
                 f"during the timed phases")
    metrics = {
        "setup_s": median(setups),
        "apps_per_s": apps_per_s,
        "p50_ms": percentile(lat, 50.0),
        "p99_ms": percentile(lat, 99.0),
        "max_rps": max_rps(steps),
        "peak_rss_mb": peak,
    }
    raw = {"phases": phases, "before": before, "after": after,
           "trace": server.trace_out, "cluster": cluster,
           "lags": lags}
    return Pass(metrics, attempted=attempted, failed=failed,
                correct=wrong == 0 and failed == 0, lines=lines, raw=raw)


def check_results(requests: list[gen.Request], results: list,
                  reference: dict) -> tuple[int, int, list]:
    """``(failed, wrong, outcomes)``: failed counts errors, refusals
    and reports that differ from the in-process reference (wrong)."""
    failed = wrong = 0
    outcomes = []
    for request, result in zip(requests, results):
        if isinstance(result, Exception):
            failed += 1
            outcomes.append({"error": type(result).__name__})
            continue
        report = dict(result)
        report.pop("schema_version", None)
        if report != reference[request.key]:
            failed += 1
            wrong += 1
        outcomes.append(report)
    return failed, wrong, outcomes


def serve_layers(p: Pass, plan: gen.Plan) -> tuple[dict[str, float],
                                                     list[str]]:
    raw = p.raw
    phases = raw["phases"]
    samples = [s for ss, _r in phases for s in ss]
    # the warm-up and prefill answered before the first due time
    window = (min(s.due for s in samples), max(s.done for s in samples))
    requests = [(s.sent, s.done, r.package, r.kind)
                for s, r in zip(samples, plan.measured())]
    dump = load_trace(raw["trace"])
    spans = analysis.SpanSet(dump, window)
    table = analysis.LayerTable()
    analysis.add_process_layers(table, spans)
    total_ms = sum(done - sent for sent, done, _p, _k in requests) * 1000
    layers = layer_values(table)
    before, after = raw["before"], raw["after"]
    lines: list[str] = []
    if raw["cluster"]:
        covered = analysis.link_front(requests, spans)
        front_self = [(done - sent - c) * 1000.0 for c, (sent, done, _p, _k)
                      in zip(covered, requests)]
        table.add("front.self", front_self, sum(front_self))
        front_b, front_a = before[0], after[0]
        shards_b, shards_a = before[1:], after[1:]
        routed = [analysis.metric_delta(front_b, front_a,
                                        "ppchecker_routed_total",
                                        shard=name)
                  for name in sorted(analysis.label_values(
                      front_a, "ppchecker_routed_total", "shard"))]
        layers["front.self_ms"] = sum(front_self)
        layers["front.route_skew"] = (max(routed) / (sum(routed)
                                                     / len(routed))
                                      if routed and sum(routed) else 0.0)
        hedges = {o: analysis.metric_delta(front_b, front_a,
                                           "ppchecker_hedges_total",
                                           outcome=o)
                  for o in ("primary_won", "hedge_won")}
        layers["front.hedges"] = float(sum(hedges.values()))
        layers["front.hedges_lost"] = float(hedges["primary_won"])
        layers["front.reroutes"] = float(analysis.metric_delta(
            front_b, front_a, "ppchecker_reroutes_total"))
        stage_ms = 0.0
        for b, a in zip(shards_b, shards_a):
            stage_ms += 1000.0 * analysis.metric_delta(
                b, a, "ppchecker_stage_latency_seconds_sum")
        table.add("shards: pipeline stages (/metrics)", [stage_ms],
                  stage_ms)
        # the proxy span holds the shard's work: its stages are the
        # row above, and the rest is the remainder named below
        if "front.proxy" in table.rows:
            table.rows["front.proxy"]["self"] = 0.0
        remainder = ("front->shard hop, shard HTTP/JSON/queue; shards "
                     "are read from /metrics, not traced")
        lines += [f"  routed per shard {routed}, hedges {hedges}"]
    else:
        shards_b, shards_a = before, after
        linked = analysis.link_requests(requests, spans)
        waits = [(b - a) * 1000.0 for a, b in
                 analysis.queue_waits(spans).values()]
        table.add("service.queue_wait", waits, sum(waits))
        layers["service.queue_wait_ms"] = sum(waits)
        layers["service.http_ms"] = sum(r["http"] for r in linked) * 1000
        remainder = ("service.http: HTTP, JSON and thread hand-offs "
                     "outside submit, queue wait and run")
        lines += kind_lines(linked)
    layers.update(stage_rates(shards_b, shards_a))
    layers.update(cache_rates(shards_b, shards_a))
    layers["service.coalesced_share"] = coalesced_share(shards_b,
                                                        shards_a)
    layers.update(analysis.gc_figures([spans]))
    layers["loadgen.late_p99_ms"] = percentile(raw["lags"], 99.0)
    lines = layer_lines(table, total_ms,
                        "summed client round trips", remainder) + lines
    return layers, lines


def kind_lines(linked: list[dict]) -> list[str]:
    lines = ["  per request kind: share answered by the completed-job "
             "LRU (coalesced) / by the stage caches (detect hit)"]
    for kind in gen.KINDS:
        rows = [r for r in linked if r["kind"] == kind]
        if not rows:
            continue
        lru = sum(1 for r in rows if r["coalesced"]) / len(rows)
        stage = sum(1 for r in rows if r["stage_hit"]) / len(rows)
        lines.append(f"    {kind:<9} n={len(rows):<5} LRU {lru:6.1%}  "
                     f"stage caches {stage:6.1%}")
    return lines


def stage_rates(before: list[dict], after: list[dict]
                ) -> dict[str, float]:
    out = {}
    for stage in analysis.STAGES:
        hits = total = 0.0
        for b, a in zip(before, after):
            for outcome in ("cache_hit", "execution", "failure"):
                n = analysis.metric_delta(
                    b, a, "ppchecker_stage_requests_total",
                    stage=stage, outcome=outcome)
                total += n
                hits += n if outcome == "cache_hit" else 0.0
        out[f"pipeline.hit_rate.{stage}"] = hits / total if total else 0.0
    return out


def cache_rates(before: list[dict], after: list[dict]) -> dict[str, float]:
    memo: dict[str, dict[str, float]] = {}
    for b, a in zip(before, after):
        for field_name in ("hits", "misses"):
            metric = f"ppchecker_nlp_cache_{field_name}"
            for cache in analysis.label_values(a, metric, "cache"):
                row = memo.setdefault(cache, {"hits": 0.0, "misses": 0.0})
                row[field_name] += analysis.metric_delta(
                    b, a, metric, cache=cache)
    return memo_rates(memo)


def coalesced_share(before: list[dict], after: list[dict]) -> float:
    coalesced = submitted = 0.0
    for b, a in zip(before, after):
        coalesced += analysis.metric_delta(
            b, a, "ppchecker_jobs_coalesced_total")
        submitted += analysis.metric_delta(
            b, a, "ppchecker_requests_total", endpoint="/v1/check")
    return coalesced / submitted if submitted else 0.0


# -- dispatch ----------------------------------------------------------------


def serving_plan(workload: str, seed: int, seconds: float) -> gen.Plan:
    fixed = max(1, int(FIXED_REQUESTS_PER_SECOND * seconds))
    step = STEP_SHARE * seconds
    capacity = max(1, int(CAPACITY_REQUESTS_PER_SECOND * seconds))
    rates = CLUSTER_RATES if workload == "cluster-recheck" \
        else RECHECK_RATES
    return gen.recheck_plan(seed, rates, fixed, step, capacity,
                            WARMUP_REQUESTS)


def run(workload: str, seed: int, seconds: float, trace: bool,
        root: str) -> Result:
    ws = Workspace(root)
    began = time.monotonic()
    notes: list[str] = []
    if workload == "study":
        apps = max(1, int(STUDY_APPS_PER_SECOND * seconds))
        def one_pass(traced: bool) -> Pass:
            return study_pass(ws, seed, apps, traced)
        layers_of = study_layers
    else:
        plan = serving_plan(workload, seed, seconds)
        reference = reference_reports(ws, plan)
        notes.append(f"inputs and in-process references "
                     f"{time.monotonic() - began:.1f} s")
        cluster = workload == "cluster-recheck"
        def one_pass(traced: bool) -> Pass:
            return serve_pass(ws, plan, reference, cluster, traced)
        def layers_of(p: Pass):
            return serve_layers(p, plan)

    plain = one_pass(False)
    notes.append(f"untraced pass {time.monotonic() - began:.1f} s "
                 f"after start")
    lines = [f"== {workload} (seed {seed}, --seconds {seconds:g}) ==",
             *e2e_table(plain.metrics, plain.attempted, plain.failed),
             *plain.lines, f"  harness: {'; '.join(notes)}"]
    attempted, failed = plain.attempted, plain.failed
    correct = plain.correct
    if not trace:
        metrics = {n: (plain.metrics[n], END_TO_END[n][0])
                   for n in RESULT_METRICS}
        return Result(metrics, attempted, failed, correct, lines)
    traced = one_pass(True)
    attempted += traced.attempted
    failed += traced.failed
    correct = correct and traced.correct
    layers, layer_text = layers_of(traced)
    lines += [f"== {workload} traced pass ==", *layer_text,
              *overhead_lines(plain.metrics, traced.metrics),
              *per_layer_table(layers)]
    metrics = {n: (layers[n], PER_LAYER[n]) for n in PER_LAYER}
    return Result(metrics, attempted, failed, correct, lines)


def overhead_lines(plain: dict[str, float],
                   traced: dict[str, float]) -> list[str]:
    lines = ["  tracing overhead (traced pass against the untraced "
             "pass, same inputs):"]
    for name in plain:
        a, b = plain[name], traced[name]
        change = (b - a) / a if a else 0.0
        lines.append(f"    {name:<14}{_fmt(a):>12} -> {_fmt(b):>12} "
                     f"{END_TO_END[name][0]:<7} {change:+.1%}")
    return lines


def per_layer_table(layers: dict[str, float]) -> list[str]:
    lines = ["  per-layer metrics (0 = layer not reached by this "
             "workload):"]
    for name, unit in PER_LAYER.items():
        lines.append(f"    {name:<36}{_fmt(layers[name]):>14} {unit}")
    return lines
