"""Shared fixtures for the journal suites."""

import pytest

from repro.pipeline.artifacts import SharedDiskStore


@pytest.fixture(params=["text", "jsonl", "artifacts"])
def foreign(request, tmp_path):
    """A file that is not a journal: a user's text file, an older
    build's JSONL journal, or an artifact cache."""
    if request.param == "artifacts":
        store = SharedDiskStore(str(tmp_path / "cache"), codecs={})
        store.put("stage", "digest", {"k": 1})
        store.close()
        return str(tmp_path / "cache" / "artifacts.sqlite")
    path = tmp_path / f"foreign.{request.param}"
    path.write_text({
        "text": "line one\nline two\n",
        "jsonl": '{"crc":"0","record":{"payload":{},"seq":1,'
                 '"type":"meta"}}\n',
    }[request.param])
    return str(path)
