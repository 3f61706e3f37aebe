"""A ``--journal`` or ``--state-dir`` file that is not a journal this
build wrote is refused with exit 2 and left byte-identical -- a user's
text file, an artifact cache, or an older build's JSONL journal is
never taken for a torn journal and overwritten (the ``foreign``
fixture lives in conftest.py)."""

import json
import os
import subprocess
import sys

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


def serve(state_dir):
    root = os.path.dirname(os.path.dirname(
        os.path.dirname(os.path.abspath(__file__))))
    env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
    return subprocess.run(
        [sys.executable, "-m", "repro.cli", "serve", "--port", "0",
         "--state-dir", state_dir],
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
