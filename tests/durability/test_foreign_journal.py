"""A ``--journal`` or ``--state-dir`` file that is not a journal this
build wrote is refused with exit 2 and left byte-identical -- a user's
text file, an artifact cache, or an older build's JSONL journal is
never taken for a torn journal and overwritten (the ``foreign``
fixture lives in conftest.py).  Behind ``serve --shards`` the refusal
is just as fast, and no shard outlives the front."""

import json
import os
import random
import subprocess
import sys
import time

import pytest

from repro.cli import main

from tests.durability.test_journal import sha256
from tests.service.test_service import make_doc


def refused(args, path, capsys):
    digest = sha256(path)
    with pytest.raises(SystemExit) as exit_info:
        main(args)
    assert exit_info.value.code == 2
    assert f"error: {path}: not a journal" in capsys.readouterr().err
    assert sha256(path) == digest


@pytest.mark.parametrize("resume", [False, True],
                         ids=["fresh", "resume"])
def test_study_refuses_foreign_journal(foreign, resume, capsys):
    refused(["study", "--apps", "3", "--journal", foreign]
            + (["--resume"] if resume else []), foreign, capsys)


def test_batch_check_refuses_foreign_journal(foreign, tmp_path,
                                             capsys):
    bundle = tmp_path / "app.json"
    bundle.write_text(json.dumps(make_doc()))
    refused(["batch-check", str(bundle), "--journal", foreign],
            foreign, capsys)


def serve(state_dir, *flags):
    root = os.path.dirname(os.path.dirname(
        os.path.dirname(os.path.abspath(__file__))))
    env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
    return subprocess.run(
        [sys.executable, "-m", "repro.cli", "serve", "--port", "0",
         "--state-dir", state_dir, *flags],
        env=env, capture_output=True, text=True, timeout=120)


@pytest.mark.parametrize("name,content", [
    ("jobs.sqlite", b"garbage, not a database\n"),
    # an older build's journal: starting without it would drop every
    # job that build acknowledged
    ("jobs.jsonl", b'{"crc":"0","record":{"payload":{},"seq":1,'
                   b'"type":"meta"}}\n'),
])
def test_serve_refuses_foreign_state_dir(tmp_path, name, content):
    path = tmp_path / name
    path.write_bytes(content)
    result = serve(str(tmp_path))
    assert result.returncode == 2, result.stdout + result.stderr
    assert f"error: {path}:" in result.stderr
    assert path.read_bytes() == content
    assert sorted(os.listdir(tmp_path)) == [name]


def serve_processes_under(directory) -> list[int]:
    """Pids of live ``repro.cli serve`` processes whose command line
    names *directory* (every shard's ``--port-file`` lies in it)."""
    pids = []
    for entry in os.listdir("/proc"):
        try:
            with open(f"/proc/{entry}/cmdline", "rb") as handle:
                argv = handle.read().decode(errors="replace").split("\0")
        except OSError:  # not a pid, or it exited meanwhile
            continue
        if ("repro.cli" in argv and "serve" in argv
                and any(str(directory) in arg for arg in argv)):
            pids.append(int(entry))
    return pids


@pytest.mark.skipif(not os.path.isdir("/proc"), reason="needs /proc")
def test_sharded_serve_fails_fast_on_a_refused_shard_journal(tmp_path):
    """One shard refusing its journal fails the whole cluster at once:
    exit 2 with the shard's own reason on one ``error:`` line, the
    file untouched, and the shard that did start is stopped too."""
    path = tmp_path / "shard-1" / "jobs.sqlite"
    path.parent.mkdir()
    path.write_bytes(random.Random(0).randbytes(4096))
    digest = sha256(path)
    started = time.monotonic()
    result = serve(str(tmp_path), "--shards", "2")
    assert time.monotonic() - started < 10.0
    assert result.returncode == 2, result.stdout + result.stderr
    errors = [line for line in result.stderr.splitlines()
              if line.startswith("error:")]
    assert len(errors) == 1, result.stderr
    assert "shard-1" in errors[0]
    assert f"{path}: not a journal" in errors[0]
    assert "Traceback" not in result.stderr
    assert sha256(path) == digest
    assert serve_processes_under(tmp_path) == []
