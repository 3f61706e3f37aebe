"""CLI tests (in-process main() invocation)."""

import json

import pytest

from repro.android.serialization import save_bundle
from repro.cli import build_parser, main
from repro.core.checker import AppBundle

from tests.android.appbuilder import (
    LOCATION_API,
    PKG,
    add_activity,
    empty_apk,
    invoke,
)


@pytest.fixture
def bad_bundle_path(tmp_path):
    apk = empty_apk()
    add_activity(apk, instructions=[invoke(LOCATION_API, dest="v0")])
    bundle = AppBundle(package=PKG, apk=apk,
                       policy="We collect your email.",
                       description="An app.")
    path = str(tmp_path / "bundle.json")
    save_bundle(bundle, path)
    return path


@pytest.fixture
def clean_bundle_path(tmp_path):
    apk = empty_apk()
    add_activity(apk)
    bundle = AppBundle(package=PKG, apk=apk,
                       policy="We may collect your email address.",
                       description="An app.")
    path = str(tmp_path / "clean.json")
    save_bundle(bundle, path)
    return path


class TestCheck:
    def test_problem_app_exits_0_by_default(self, bad_bundle_path,
                                            capsys):
        assert main(["check", bad_bundle_path]) == 0
        out = capsys.readouterr().out
        assert "INCOMPLETE" in out

    def test_fail_on_findings_exits_1(self, bad_bundle_path, capsys):
        assert main(["check", bad_bundle_path,
                     "--fail-on-findings"]) == 1
        assert "INCOMPLETE" in capsys.readouterr().out

    def test_clean_app_exits_0(self, clean_bundle_path, capsys):
        assert main(["check", clean_bundle_path,
                     "--fail-on-findings"]) == 0
        assert "no problems" in capsys.readouterr().out

    def test_json_output(self, bad_bundle_path, capsys):
        main(["check", bad_bundle_path, "--json"])
        payload = json.loads(capsys.readouterr().out)
        assert payload["has_problem"]
        assert payload["incomplete"]

    def test_lib_policies_directory(self, tmp_path, capsys):
        from repro.android.dex import DexClass
        apk = empty_apk()
        add_activity(apk)
        apk.dex.add_class(DexClass(name="com.unity3d.player.Unity"))
        bundle = AppBundle(
            package=PKG, apk=apk,
            policy="We do not collect your location information.",
            description="A game.",
        )
        path = str(tmp_path / "b.json")
        save_bundle(bundle, path)
        libdir = tmp_path / "libs"
        libdir.mkdir()
        (libdir / "unity3d.txt").write_text(
            "We may receive your location information."
        )
        code = main(["check", path, "--lib-policies", str(libdir),
                     "--fail-on-findings"])
        assert code == 1
        assert "INCONSISTENT" in capsys.readouterr().out


class TestBatchCheck:
    def test_batch_over_two_bundles(self, bad_bundle_path,
                                    clean_bundle_path, capsys,
                                    tmp_path):
        out_json = str(tmp_path / "batch.json")
        code = main(["batch-check", bad_bundle_path,
                     clean_bundle_path, "--json", out_json])
        assert code == 0
        out = capsys.readouterr().out
        assert "2 apps checked, 1 with findings" in out
        assert "pipeline" in out
        with open(out_json) as handle:
            payload = json.load(handle)
        assert payload["schema_version"] == 1
        assert len(payload["reports"]) == 2
        assert "pipeline_stats" in payload
        assert payload["pipeline_stats"]["policy_analysis"][
            "executions"] == 2

    def test_fail_on_findings(self, bad_bundle_path):
        assert main(["batch-check", bad_bundle_path,
                     "--fail-on-findings"]) == 1

    def test_cache_dir_warm_rerun_hits(self, bad_bundle_path,
                                       tmp_path, capsys):
        cache = str(tmp_path / "cache")
        assert main(["batch-check", bad_bundle_path,
                     "--cache-dir", cache]) == 0
        capsys.readouterr()
        out_json = str(tmp_path / "warm.json")
        assert main(["batch-check", bad_bundle_path,
                     "--cache-dir", cache, "--json", out_json]) == 0
        with open(out_json) as handle:
            stats = json.load(handle)["pipeline_stats"]
        for stage in ("policy_analysis", "static_analysis", "detect"):
            assert stats[stage]["executions"] == 0
            assert stats[stage]["cache_hits"] == 1


class TestBadBundleFile:
    """A broken input is a typed exit 2 with one ``error:`` line --
    never a traceback, and never exit 1, which --fail-on-findings
    reserves for flagged apps."""

    @pytest.mark.parametrize("command", ["check", "batch-check"])
    @pytest.mark.parametrize("content,reason", [
        (None, "No such file"),
        ("{not json", "not JSON"),
        ('{"package": 3}', "not a bundle document"),
    ], ids=["missing", "not-json", "not-a-bundle"])
    def test_exits_2_with_one_error_line(self, command, content,
                                         reason, clean_bundle_path,
                                         tmp_path, capsys):
        path = tmp_path / "broken.json"
        if content is not None:
            path.write_text(content)
        args = [command, str(path), "--fail-on-findings"]
        if command == "batch-check":
            args.insert(1, clean_bundle_path)
        with pytest.raises(SystemExit) as exit_info:
            main(args)
        assert exit_info.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        (line,) = captured.err.splitlines()
        assert line.startswith(f"error: {path}: {reason}")

    @pytest.mark.parametrize("command", ["check", "batch-check"])
    def test_part_that_does_not_digest(self, command, clean_bundle_path,
                                       tmp_path, capsys):
        """A null policy decodes but has no digest, so the file has
        no bundle key: it is refused like any non-bundle document."""
        doc = json.loads(open(clean_bundle_path).read())
        doc["policy"] = None
        path = tmp_path / "null-policy.json"
        path.write_text(json.dumps(doc))
        args = [command, str(path)]
        if command == "batch-check":
            args.insert(1, clean_bundle_path)
        with pytest.raises(SystemExit) as exit_info:
            main(args)
        assert exit_info.value.code == 2
        (line,) = capsys.readouterr().err.splitlines()
        assert line.startswith(f"error: {path}: not a bundle document")


class TestUsageErrors:
    """A bad size, or a flag that no longer exists, is argparse's
    usage error: exit 2 with one ``error:`` line naming the flag,
    before any app is checked."""

    @pytest.mark.parametrize("args,flag", [
        (["study", "--apps", "-3"], "--apps"),
        (["study", "--apps", "0"], "--apps"),
        (["screen", "--apps", "-1"], "--apps"),
        (["study", "--limit", "-5"], "--limit"),
        (["study", "--limit", "0"], "--limit"),
        (["study", "--shards", "-1"], "--shards"),
        (["study", "--workers", "2"], "--workers"),
        (["batch-check", "app.json", "--workers", "2"], "--workers"),
    ], ids=["apps-negative", "apps-zero", "screen-apps-negative",
            "limit-negative", "limit-zero", "shards-negative",
            "study-workers", "batch-check-workers"])
    def test_exits_2_with_one_error_line(self, args, flag, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(args)
        assert exit_info.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        (line,) = [line for line in captured.err.splitlines()
                   if "error:" in line]
        assert flag in line

    @pytest.mark.parametrize("args,flag", [
        (["serve", "--workers", "0"], "--workers"),
        (["serve", "--queue-size", "0"], "--queue-size"),
        (["serve", "--shards", "-1"], "--shards"),
        (["screen", "--top", "-1"], "--top"),
        (["bootstrap", "--top", "-1"], "--top"),
        (["study", "--out", "results"], "--out"),
        (["study", "--out-shards", "2"], "--out-shards"),
        (["merge-results", "results"], "merge-results"),
    ], ids=["serve-workers-zero", "serve-queue-size-zero",
            "serve-shards-negative", "screen-top-negative",
            "bootstrap-top-negative", "study-out", "study-out-shards",
            "merge-results"])
    def test_refused_while_parsing(self, args, flag, capsys):
        """The same usage error from the parser alone, so a size or
        command it wrongly accepted could not start a service or a
        study here."""
        with pytest.raises(SystemExit) as exit_info:
            build_parser().parse_args(args)
        assert exit_info.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        (line,) = [line for line in captured.err.splitlines()
                   if "error:" in line]
        assert flag in line


class TestStudy:
    def test_small_study_runs(self, capsys, tmp_path):
        out_json = str(tmp_path / "study.json")
        out_html = str(tmp_path / "study.html")
        assert main(["study", "--apps", "64", "--json", out_json,
                     "--html", out_html]) == 0
        out = capsys.readouterr().out
        assert "Table III" in out
        with open(out_json) as handle:
            payload = json.load(handle)
        assert payload["schema_version"] == 1
        assert payload["summary"]["apps"] == 64
        with open(out_html) as handle:
            assert "PPChecker study report" in handle.read()

    def test_study_workers_and_cache_dir(self, capsys, tmp_path):
        serial_json = str(tmp_path / "serial.json")
        parallel_json = str(tmp_path / "parallel.json")
        assert main(["study", "--apps", "64",
                     "--json", serial_json]) == 0
        assert main(["study", "--apps", "64", "--shards", "2",
                     "--cache-dir", str(tmp_path / "cache"),
                     "--json", parallel_json]) == 0
        with open(serial_json) as handle:
            serial = json.load(handle)
        with open(parallel_json) as handle:
            parallel = json.load(handle)
        # the tables must be identical; only the telemetry may differ
        for payload in (serial, parallel):
            payload.pop("pipeline_stats")
            payload.pop("nlp_caches")
            payload.pop("telemetry")
        assert serial == parallel

    def test_screen_command(self, capsys):
        assert main(["screen", "--apps", "250", "--top", "5"]) == 0
        out = capsys.readouterr().out
        assert "score" in out


class TestVersion:
    def test_version_flag(self, capsys):
        from repro import __version__

        with pytest.raises(SystemExit) as excinfo:
            main(["--version"])
        assert excinfo.value.code == 0
        assert __version__ in capsys.readouterr().out


class TestOtherCommands:
    def test_bootstrap(self, capsys):
        assert main(["bootstrap", "--top", "3"]) == 0
        assert "patterns" in capsys.readouterr().out

    def test_genpolicy(self, bad_bundle_path, capsys):
        assert main(["genpolicy", bad_bundle_path]) == 0
        out = capsys.readouterr().out
        assert "Privacy Policy" in out
        assert "location" in out

    def test_export_corpus(self, tmp_path, capsys):
        path = str(tmp_path / "app.json")
        assert main(["export-corpus", "0", path]) == 0
        with open(path) as handle:
            payload = json.load(handle)
        assert payload["package"].startswith("com.example.")

    def test_export_corpus_bad_index(self, tmp_path):
        assert main(["export-corpus", "999999",
                     str(tmp_path / "x.json")]) == 2


class TestServeFlags:
    """``serve`` flags and :class:`ServiceConfig` map onto each other
    one way and back: the front spawns every shard from the rendered
    flags, so a field lost on the way would silently differ between
    ``serve`` and ``serve --shards``."""

    @staticmethod
    def parsed(flags):
        from repro.cli import build_parser, service_config

        return service_config(build_parser().parse_args(["serve",
                                                         *flags]))

    def test_every_field_survives_the_round_trip(self):
        from dataclasses import fields

        from repro.cli import serve_flags
        from repro.core.checker import CheckerOptions
        from repro.service.runner import ServiceConfig

        recipe = CheckerOptions(
            cache_dir="cache", max_retries=2, stage_timeout=0.5,
            fault_plan="faults.json", deadline=3.25, retry_budget=4.0,
            retry_budget_refill=0.75)
        config = ServiceConfig(
            host="0.0.0.0", port=0, port_file="serve.port", workers=7,
            queue_size=5, request_timeout=1.5, drain_timeout=2.5,
            completed_jobs=9, state_dir="state", max_redeliveries=1,
            lib_policies="libs", checker=recipe)
        for section, default in ((config, ServiceConfig()),
                                 (recipe, CheckerOptions())):
            for f in fields(section):
                assert getattr(section, f.name) \
                    != getattr(default, f.name), f.name
        assert self.parsed(serve_flags(config)) == config

    def test_defaults_survive_the_round_trip(self):
        from repro.cli import serve_flags
        from repro.service.runner import ServiceConfig

        assert self.parsed([]) == ServiceConfig()
        assert self.parsed(serve_flags(ServiceConfig())) \
            == ServiceConfig()
