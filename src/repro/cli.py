"""Command-line interface.

Subcommands::

    python -m repro.cli check BUNDLE.json [--json] [--lib-policies DIR]
            [--cache-dir PATH] [--fail-on-findings]
            [--max-retries N] [--stage-timeout SECONDS]
        Run PPChecker over one serialized app bundle.

    python -m repro.cli batch-check BUNDLE.json... [--json PATH]
            [--cache-dir PATH] [--fail-on-findings]
            [--max-retries N] [--stage-timeout SECONDS]
            [--keep-going | --no-keep-going]
            [--journal PATH] [--resume]
        Run PPChecker over many bundles at once, one after another,
        sharing one artifact cache (compliance-CI entry point).  With
        --keep-going (the default) a failing bundle is quarantined as
        a structured failure record instead of aborting the batch.
        --journal checkpoints each finished bundle to a write-ahead
        journal; after a crash, --resume replays the finished ones
        and checks only the rest.

    python -m repro.cli study [--apps N] [--seed S] [--json PATH]
            [--html PATH] [--cache-dir PATH]
            [--max-retries N] [--stage-timeout SECONDS]
            [--deadline SECONDS]
            [--retry-budget TOKENS] [--retry-budget-refill PER_SECOND]
            [--keep-going | --no-keep-going]
            [--journal PATH] [--resume]
            [--limit N] [--shards N]
        Run the full market study over the synthetic corpus and print
        the paper's tables.  Apps are derived lazily and folded into
        constant-size aggregates, so peak RSS is set by the one app
        checked inline (with --shards, by at most SHARD_QUEUE_BOUND
        queued outcomes per shard), not by --apps.  --journal /
        --resume give the study crash-safe per-app checkpoints: a
        killed run restarted with --resume reproduces the
        uninterrupted run's report exactly.  The journal is the run's
        one per-app outcome record: --resume over a complete journal
        (same --apps/--seed/--limit) reprints the run's tables and
        writes its --json/--html without checking an app.  --html
        keeps every report in memory to render the dashboard.
        --shards N fans the checks out over N worker processes,
        shard k checking the apps whose corpus index i has
        i % N == k, each building its checker from the same flags
        (tables are byte-identical to the in-process run; with
        --cache-dir every worker shares one artifact cache); it is
        the one way to use more cores.  --limit checks only the first
        N apps of the corpus *without changing it* (unlike --apps,
        which regenerates a different corpus).

    python -m repro.cli bootstrap [--top N]
        Train the pattern bootstrapping and print the top-N patterns.

    python -m repro.cli genpolicy BUNDLE.json
        Generate a covering privacy policy from the app's bytecode
        (the AutoPPG extension).

    python -m repro.cli export-corpus INDEX PATH
        Serialize one synthetic-corpus app to a bundle JSON (handy for
        inspecting or replaying single apps).

    python -m repro.cli serve [--host H] [--port P] [--port-file PATH]
            [--workers N] [--queue-size N] [--request-timeout SECONDS]
            [--drain-timeout SECONDS] [--completed-jobs N]
            [--state-dir DIR] [--max-redeliveries N]
            [--lib-policies DIR] [--cache-dir PATH]
            [--max-retries N] [--stage-timeout SECONDS]
            [--fault-plan PATH] [--deadline SECONDS]
            [--retry-budget TOKENS] [--retry-budget-refill PER_SECOND]
            [--shards N]
        Run the long-running check service: a REST API over a shared,
        warm pipeline with a bounded job queue, request coalescing,
        and /healthz + /metrics endpoints (see docs/API.md).  With
        --state-dir, accepted jobs are journaled and replayed across
        restarts; jobs that crash the process more than
        --max-redeliveries times are dead-lettered
        (GET /v1/deadletter).  The flags other than --shards are one
        ServiceConfig (service_config / serve_flags below); --shards N
        runs N shards of that service behind a front that routes each
        request to its owner on a consistent-hash ring.

``repro --version`` prints the package version.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys


def _checker_options(args: argparse.Namespace):
    """The checker recipe (:class:`repro.core.checker.CheckerOptions`)
    from the --cache-dir and resilience flags every checking
    subcommand shares; each recipe field is the dest of the flag of
    the same name."""
    from repro.core.checker import CheckerOptions

    return CheckerOptions(**{
        f.name: getattr(args, f.name)
        for f in dataclasses.fields(CheckerOptions)})


def _print_stage_stats(stats) -> None:
    print("\n== pipeline ==")
    print(f"  {'stage':<26} {'exec':>6} {'hits':>6} {'fail':>6} "
          f"{'hit%':>6} {'seconds':>8}")
    for name, row in stats.to_dict().items():
        print(f"  {name:<26} {row['executions']:>6} "
              f"{row['cache_hits']:>6} {row['failures']:>6} "
              f"{row['hit_rate'] * 100:>5.1f}% "
              f"{row['seconds']:>8.3f}")
    caches = stats.nlp_caches()
    if not caches:
        return
    print("\n== nlp caches ==")
    print(f"  {'cache':<26} {'hits':>8} {'miss':>8} {'hit%':>6} "
          f"{'entries':>8}")
    for name, row in caches.items():
        lookups = row["hits"] + row["misses"]
        rate = row["hits"] / lookups * 100 if lookups else 0.0
        print(f"  {name:<26} {row['hits']:>8} {row['misses']:>8} "
              f"{rate:>5.1f}% {row['entries']:>8}")


def _print_recovery(recovery) -> None:
    print("== recovery ==")
    print(f"  {'journal':<22} {recovery.path}")
    print(f"  {'resumed':<22} {'yes' if recovery.resumed else 'no'}")
    print(f"  {'records replayed':<22} {recovery.records_replayed}")
    print(f"  {'reports replayed':<22} {recovery.reports_replayed}")
    print(f"  {'quarantine replayed':<22} "
          f"{recovery.quarantine_replayed}")
    print()


def _open_run_log(args: argparse.Namespace, meta: dict):
    """``(runlog, skip)`` for --journal/--resume, or ``(None, {})``
    without --journal.  Raises SystemExit(2) on a file that is not a
    journal, or a journal that belongs to a different run or would
    be clobbered."""
    if args.journal is None:
        return None, {}
    from repro.durability.journal import JournalError
    from repro.durability.study_log import RunLogError, open_run_log

    try:
        runlog, skip = open_run_log(args.journal, meta,
                                    resume=args.resume)
    except (JournalError, RunLogError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        raise SystemExit(2) from exc
    _print_recovery(runlog.recovery)
    return runlog, skip


def _load_bundle(path: str):
    """The bundle at *path*, or SystemExit(2) with one
    ``error: <path>: ...`` line when the file is missing, is not
    JSON, or is not a bundle document (exit 1 means findings under
    --fail-on-findings, never a broken input)."""
    from repro.android.serialization import load_bundle

    try:
        bundle = load_bundle(path)
        bundle.key  # digests every part, so a bad one fails here
        return bundle
    except OSError as exc:
        reason = exc.strerror or str(exc)
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        reason = f"not JSON ({exc})"
    except Exception as exc:
        reason = f"not a bundle document ({exc!r})"
    print(f"error: {path}: {reason}", file=sys.stderr)
    raise SystemExit(2)


def _print_quarantine(failures) -> None:
    if not failures:
        return
    print("\n== quarantine ==")
    for failure in failures:
        print(f"  {failure.package:<44} {failure.stage}: "
              f"{failure.error} after {failure.attempts} attempt(s)")


def cmd_check(args: argparse.Namespace) -> int:
    from repro.core.checker import lib_policy_source

    bundle = _load_bundle(args.bundle)
    checker = _checker_options(args).build_checker(
        lib_policy_source(args.lib_policies))
    report = checker.check(bundle)
    if args.json:
        from repro.core.schema import versioned

        json.dump(versioned(report.to_dict()), sys.stdout, indent=2,
                  sort_keys=True)
        print()
    else:
        print(report.summary())
    return 1 if args.fail_on_findings and report.has_problem else 0


def cmd_batch_check(args: argparse.Namespace) -> int:
    from repro.core.checker import lib_policy_source
    from repro.core.report import AppFailure, partition_outcomes
    from repro.hashing import fingerprint

    bundles = [_load_bundle(path) for path in args.bundles]
    checker = _checker_options(args).build_checker(
        lib_policy_source(args.lib_policies))
    # outcomes are keyed by bundle key, so a resumed run matches
    # journal records to bundles regardless of path order
    keys = [bundle.key for bundle in bundles]
    runlog, skip = _open_run_log(args, {
        "kind": "batch-check",
        "bundles": fingerprint(sorted(keys)),
    })
    on_error = "quarantine" if args.keep_going else "raise"
    if runlog is None:
        outcomes = checker.check_batch(bundles, on_error=on_error)
    else:
        key_by_id = {id(b): k for b, k in zip(bundles, keys)}
        by_key = dict(skip)
        remaining = [b for b, k in zip(bundles, keys)
                     if k not in by_key]

        def checkpoint(bundle, outcome) -> None:
            runlog.record_outcome(key_by_id[id(bundle)], outcome)

        fresh = checker.check_batch(remaining, on_error=on_error,
                                    on_outcome=checkpoint)
        for bundle, outcome in zip(remaining, fresh):
            by_key[key_by_id[id(bundle)]] = outcome
        outcomes = [by_key[key] for key in keys]
    reports, failures = partition_outcomes(outcomes)

    flagged = sum(1 for report in reports if report.has_problem)
    for outcome in outcomes:
        if isinstance(outcome, AppFailure):
            print(f"  {outcome.package:<44} FAILED at "
                  f"{outcome.stage}: {outcome.error}")
        else:
            kinds = ",".join(sorted(outcome.problem_kinds())) or "clean"
            print(f"  {outcome.package:<44} {kinds}")
    print(f"{len(reports)} apps checked, {flagged} with findings, "
          f"{len(failures)} quarantined")
    _print_quarantine(failures)
    _print_stage_stats(checker.stats)

    if args.json:
        from repro.core.schema import versioned

        payload = versioned({
            "reports": [report.to_dict() for report in reports],
            "quarantine": [failure.to_dict() for failure in failures],
            "pipeline_stats": checker.stats.to_dict(),
            "nlp_caches": checker.stats.nlp_caches(),
        })
        with open(args.json, "w", encoding="utf-8") as handle:
            json.dump(payload, handle, indent=2, sort_keys=True)
        print(f"wrote {args.json}")
    if runlog is not None:
        runlog.close()
    return 1 if args.fail_on_findings and (flagged or failures) else 0


def _print_study_tables(result) -> None:
    """The ``== study ==`` tables of a
    :class:`~repro.core.study.StudyAggregate`.  Ties sort
    deterministically so inline, sharded, and resumed runs print
    byte-identical tables."""
    print("== study summary ==")
    for key, value in result.summary().items():
        if isinstance(value, float):
            print(f"  {key:<30} {value:.3f}")
        else:
            print(f"  {key:<30} {value}")
    print("\n== Table III ==")
    for permission, count in sorted(result.table3().items(),
                                    key=lambda kv: (-kv[1], kv[0])):
        print(f"  {permission:<50} {count}")
    print("\n== Fig. 13 ==")
    dist, retained = result.fig13()
    for info, count in sorted(dist.items(),
                              key=lambda kv: (-kv[1], kv[0].value)):
        print(f"  {info.value:<20} {count}")
    print(f"  retained records: {retained}")
    print("\n== Table IV ==")
    for name, row in result.table4().items():
        print(f"  {name:<20} TP={row.tp} FP={row.fp} "
              f"P={row.precision:.3f} R={row.recall:.3f} "
              f"F1={row.f1:.3f}")
    _print_quarantine([result.failures[pkg]
                       for pkg in sorted(result.failures)])


def _write_study_json(result, path: str) -> None:
    from repro.core.schema import versioned

    payload = versioned(result.to_dict())
    if result.stats is not None:
        payload["pipeline_stats"] = result.stats.to_dict()
        payload["nlp_caches"] = result.stats.nlp_caches()
    if result.telemetry is not None:
        payload["telemetry"] = result.telemetry
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
    print(f"\nwrote {path}")


def _print_deviations(result, total: int) -> None:
    if total < 1197:
        return
    deviations = result.deviations_from_paper()
    if deviations:
        print("\ndeviations from the paper:")
        for key, (paper, measured) in deviations.items():
            print(f"  {key}: paper {paper}, measured {measured}")
    else:
        print("\nno deviations from the paper's summary numbers")


def _study_meta(args: argparse.Namespace) -> dict:
    meta = {"kind": "study", "seed": args.seed, "apps": args.apps}
    if args.limit is not None:
        meta["limit"] = args.limit
    return meta


def cmd_study(args: argparse.Namespace) -> int:
    from repro.core.study import ReportSink, run_study_streaming
    from repro.corpus.appstore import CorpusSpec

    spec = CorpusSpec(seed=args.seed, n_apps=args.apps)
    runlog, skip = _open_run_log(args, _study_meta(args))
    reports = ReportSink() if args.html else None
    result = run_study_streaming(
        spec, limit=args.limit, keep_going=args.keep_going,
        skip=skip or None,
        on_outcome=runlog.record_outcome if runlog is not None
        else None,
        sinks=[reports] if reports is not None else (),
        shards=args.shards,
        shard_options=_checker_options(args),
    )

    _print_study_tables(result)
    if result.stats is not None:
        _print_stage_stats(result.stats)

    if reports is not None:
        from repro.core.html_report import write_study_html

        write_study_html(reports.result(result), args.html)
        print(f"\nwrote {args.html}")
    if args.json:
        _write_study_json(result, args.json)

    _print_deviations(result, result.n_apps)
    if runlog is not None:
        runlog.close()
    return 0


def cmd_screen(args: argparse.Namespace) -> int:
    from repro.core.screening import screen
    from repro.core.study import run_study
    from repro.corpus.appstore import CorpusSpec

    # stream the corpus: each app is derived, checked, and freed;
    # only the (small) reports accumulate for ranking
    reports = run_study(
        CorpusSpec(seed=args.seed, n_apps=args.apps)).reports
    report = screen(reports, min_score=args.min_score)

    print(f"{'rank':>4} {'score':>6} {'package':<40} kinds / headline")
    for rank, entry in enumerate(report.top(args.top), start=1):
        print(f"{rank:>4} {entry.score:>6.1f} {entry.package:<40} "
              f"{','.join(entry.kinds)}: {entry.headline}")
    if args.csv:
        with open(args.csv, "w", encoding="utf-8") as handle:
            handle.write(report.to_csv())
        print(f"wrote {args.csv}")
    return 0


def cmd_bootstrap(args: argparse.Namespace) -> int:
    from repro.corpus.sentences import generate_labeled_sentences
    from repro.policy.bootstrap import Bootstrapper, top_n_patterns

    train, _val = generate_labeled_sentences()
    bootstrapper = Bootstrapper(train)
    scored = bootstrapper.score(bootstrapper.run())
    if args.save:
        from repro.policy.pattern_store import save_patterns
        save_patterns(scored, args.save)
        print(f"saved {len(scored)} patterns to {args.save}")
    print(f"learned {len(scored)} patterns; top {args.top}:")
    print(f"{'chain':<30} {'category':<10} {'pos':>5} {'neg':>5} "
          f"{'score':>7}")
    for sp in scored[: args.top]:
        chain = ">".join(sp.pattern.chain)
        category = sp.pattern.category.value if sp.pattern.category \
            else "-"
        print(f"{chain:<30} {category:<10} {sp.pos:>5} {sp.neg:>5} "
              f"{sp.score:>7.2f}")
    _ = top_n_patterns(scored, args.top)
    return 0


def cmd_genpolicy(args: argparse.Namespace) -> int:
    from repro.policy.autoppg import generate_policy

    bundle = _load_bundle(args.bundle)
    print(generate_policy(bundle.apk, app_name=bundle.package))
    return 0


def cmd_serve(args: argparse.Namespace) -> int:
    config = service_config(args)
    if args.shards > 0:
        from repro.service.cluster import (
            ClusterConfig,
            ShardStartError,
            serve_cluster,
        )

        try:
            return serve_cluster(ClusterConfig(service=config,
                                               shards=args.shards))
        except ShardStartError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
    from repro.durability.journal import JournalError
    from repro.service.server import serve

    try:
        return serve(config)
    except JournalError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def cmd_export_corpus(args: argparse.Namespace) -> int:
    from repro.android.serialization import save_bundle
    from repro.corpus.appstore import CorpusSpec

    # per-index derivation: only this app is built (the planted
    # layout is bounded, so random access stays exact)
    spec = CorpusSpec()
    try:
        app = spec.app(args.index)
    except IndexError:
        print(f"index out of range (0..{len(spec) - 1})",
              file=sys.stderr)
        return 2
    save_bundle(app.bundle, args.path)
    print(f"wrote {app.package} to {args.path}")
    return 0


# -- serve flags <-> ServiceConfig ------------------------------------------
#
# Every ServiceConfig field, and every field of its checker recipe, is
# the dest of the ``serve`` flag of the same name (``lib_policies`` is
# ``--lib-policies``, ``checker.deadline`` is ``--deadline``), so the
# two functions below are each other's inverse; a round-trip test
# pins the pair.


def service_config(args: argparse.Namespace):
    """The :class:`~repro.service.runner.ServiceConfig` that parsed
    ``serve`` flags describe, for both ``serve`` modes."""
    from repro.service.runner import ServiceConfig

    return ServiceConfig(checker=_checker_options(args), **{
        f.name: getattr(args, f.name)
        for f in dataclasses.fields(ServiceConfig)
        if f.name != "checker"})


def serve_flags(config) -> list[str]:
    """The ``serve`` flags that describe *config* (the inverse of
    :func:`service_config`); a cluster front spawns each shard as
    ``serve`` with these."""
    flags: list[str] = []
    for section in (config, config.checker):
        for f in dataclasses.fields(section):
            value = getattr(section, f.name)
            if f.name != "checker" and value is not None:
                flags += ["--" + f.name.replace("_", "-"), str(value)]
    return flags


def _at_least(minimum: int):
    """An argparse ``type`` for an integer >= *minimum*; anything
    else is argparse's usage error (exit 2, one ``error:`` line)."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"invalid int value: {text!r}") from None
        if value < minimum:
            raise argparse.ArgumentTypeError(
                f"must be an integer >= {minimum}, got {value}")
        return value

    return parse


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="PPChecker: detect incomplete, incorrect, and "
                    "inconsistent Android privacy policies",
    )
    from repro import __version__

    parser.add_argument("--version", action="version",
                        version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_cache_dir(p: argparse.ArgumentParser) -> None:
        p.add_argument("--cache-dir", default=None,
                       help="persist stage artifacts in "
                            "<dir>/artifacts.sqlite, shared by every "
                            "process pointed at it (reruns skip "
                            "unchanged inputs)")

    def add_journal(p: argparse.ArgumentParser) -> None:
        p.add_argument("--journal", default=None, metavar="PATH",
                       help="checkpoint every finished app to this "
                            "write-ahead journal (crash-safe; see "
                            "--resume)")
        p.add_argument("--resume", action="store_true",
                       help="replay finished apps from --journal "
                            "and check only the rest; the final "
                            "report matches an uninterrupted run")

    def add_resilience(p: argparse.ArgumentParser,
                       batch: bool = False) -> None:
        p.add_argument("--max-retries", type=int, default=0,
                       help="retry a failing stage this many times "
                            "with exponential backoff (default: 0)")
        p.add_argument("--stage-timeout", type=float, default=None,
                       metavar="SECONDS",
                       help="cut off any single stage execution "
                            "after this many seconds")
        p.add_argument("--fault-plan", default=None, metavar="PATH",
                       help="inject faults from this JSON plan "
                            "(test/benchmark harness; see "
                            "repro.pipeline.faults)")
        p.add_argument("--deadline", type=float, default=None,
                       metavar="SECONDS",
                       help="wall-clock budget per check; stage "
                            "timeouts, retries, and backoff all fit "
                            "inside it, and expired work is shed "
                            "(the service answers 504), never left "
                            "half-running (default: unbounded)")
        p.add_argument("--retry-budget", type=float, default=None,
                       metavar="TOKENS",
                       help="capacity of the shared retry token "
                            "bucket; when dry, a failing stage is "
                            "terminal instead of retried, so a "
                            "brownout cannot amplify into a retry "
                            "storm (default: unlimited)")
        p.add_argument("--retry-budget-refill", type=float,
                       default=1.0, metavar="PER_SECOND",
                       help="tokens the retry budget regains per "
                            "second (default: 1.0)")
        if batch:
            p.add_argument("--keep-going", default=True,
                           action=argparse.BooleanOptionalAction,
                           help="quarantine failing apps and finish "
                                "the batch (--no-keep-going aborts "
                                "on the first failure)")

    check = sub.add_parser("check", help="check one app bundle")
    check.add_argument("bundle", help="path to a bundle JSON")
    check.add_argument("--json", action="store_true",
                       help="emit the report as JSON")
    check.add_argument("--lib-policies", default=None,
                       help="directory of <lib_id>.txt policies")
    check.add_argument("--fail-on-findings", action="store_true",
                       help="exit 1 when the report has findings "
                            "(for compliance CI jobs)")
    add_cache_dir(check)
    add_resilience(check)
    check.set_defaults(func=cmd_check)

    batch = sub.add_parser("batch-check",
                           help="check many app bundles at once")
    batch.add_argument("bundles", nargs="+",
                       help="paths to bundle JSONs")
    batch.add_argument("--json", default=None,
                       help="write all reports + pipeline stats to "
                            "this JSON path")
    batch.add_argument("--lib-policies", default=None,
                       help="directory of <lib_id>.txt policies")
    batch.add_argument("--fail-on-findings", action="store_true",
                       help="exit 1 when any report has findings "
                            "or any app is quarantined")
    add_cache_dir(batch)
    add_resilience(batch, batch=True)
    add_journal(batch)
    batch.set_defaults(func=cmd_batch_check)

    study = sub.add_parser("study", help="run the market study")
    study.add_argument("--apps", type=_at_least(1), default=1197,
                       help="corpus size; changing it regenerates a "
                            "*different* deterministic corpus "
                            "(default: 1197)")
    study.add_argument("--seed", type=int, default=2016)
    study.add_argument("--limit", type=_at_least(1), default=None,
                       metavar="N",
                       help="check only the first N apps of the "
                            "corpus without changing it (unlike "
                            "--apps, every checked report is "
                            "identical to the full run's)")
    study.add_argument("--json", default=None,
                       help="also write results to this JSON path")
    study.add_argument("--html", default=None,
                       help="also render an HTML dashboard here")
    study.add_argument("--shards", type=_at_least(0), default=0,
                       metavar="N",
                       help="fan the checks out over N worker "
                            "*processes*, shard k checking corpus "
                            "indices i with i %% N == k; the tables "
                            "are byte-identical to a single-process "
                            "run (default: 0 = in-process)")
    add_cache_dir(study)
    add_resilience(study, batch=True)
    add_journal(study)
    study.set_defaults(func=cmd_study)

    screen = sub.add_parser("screen",
                            help="rank questionable apps by severity")
    screen.add_argument("--apps", type=_at_least(1), default=1197)
    screen.add_argument("--seed", type=int, default=2016)
    screen.add_argument("--top", type=_at_least(1), default=20)
    screen.add_argument("--min-score", type=float, default=0.0)
    screen.add_argument("--csv", default=None,
                        help="also write the full worklist as CSV")
    screen.set_defaults(func=cmd_screen)

    bootstrap = sub.add_parser("bootstrap",
                               help="train pattern bootstrapping")
    bootstrap.add_argument("--top", type=_at_least(1), default=20)
    bootstrap.add_argument("--save", default=None,
                           help="persist the ranked patterns as JSON")
    bootstrap.set_defaults(func=cmd_bootstrap)

    genpolicy = sub.add_parser("genpolicy",
                               help="generate a policy from bytecode")
    genpolicy.add_argument("bundle", help="path to a bundle JSON")
    genpolicy.set_defaults(func=cmd_genpolicy)

    srv = sub.add_parser("serve",
                         help="run the long-running check service")
    srv.add_argument("--host", default="127.0.0.1",
                     help="bind address (default: 127.0.0.1)")
    srv.add_argument("--port", type=int, default=8742,
                     help="listen port; 0 binds an ephemeral port "
                          "(default: 8742)")
    srv.add_argument("--port-file", default=None, metavar="PATH",
                     help="write the actually-bound port here "
                          "(atomically, after the listener binds) -- "
                          "with --port 0 this is how supervisors and "
                          "tests find the service without a port race")
    srv.add_argument("--shards", type=_at_least(0), default=0,
                     metavar="N",
                     help="run N pipeline worker *processes* behind "
                          "a lightweight accept process that routes "
                          "jobs by content hash; --workers becomes "
                          "per-shard threads, every shard shares the "
                          "--cache-dir artifact store, and a dead "
                          "shard is respawned with its journal "
                          "replayed (default: 0 = single process)")
    srv.add_argument("--workers", type=_at_least(1), default=4,
                     help="check worker threads (default: 4)")
    srv.add_argument("--queue-size", type=_at_least(1), default=64,
                     help="job queue capacity; a full queue answers "
                          "429 + Retry-After (default: 64)")
    srv.add_argument("--lib-policies", default=None,
                     help="directory of <lib_id>.txt policies")
    srv.add_argument("--request-timeout", type=float, default=300.0,
                     metavar="SECONDS",
                     help="how long a synchronous /v1/check waits "
                          "before answering 504 (default: 300)")
    srv.add_argument("--drain-timeout", type=float, default=10.0,
                     metavar="SECONDS",
                     help="SIGTERM drain budget before queued jobs "
                          "are abandoned (default: 10)")
    srv.add_argument("--state-dir", default=None, metavar="DIR",
                     help="journal accepted jobs under this "
                          "directory and replay unfinished ones on "
                          "restart (default: in-memory only)")
    srv.add_argument("--max-redeliveries", type=int, default=3,
                     metavar="N",
                     help="deliveries a journaled job may burn "
                          "before restart recovery dead-letters it "
                          "(default: 3)")
    srv.add_argument("--completed-jobs", type=int, default=256,
                     metavar="N",
                     help="completed jobs kept resolvable by id and "
                          "content hash, per process (default: 256)")
    add_cache_dir(srv)
    add_resilience(srv)
    srv.set_defaults(func=cmd_serve)

    export = sub.add_parser("export-corpus",
                            help="serialize one corpus app")
    export.add_argument("index", type=int)
    export.add_argument("path")
    export.set_defaults(func=cmd_export_corpus)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
