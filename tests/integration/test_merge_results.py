"""``merge-results`` accepts only a shard directory that holds the run
its meta names: indices ``0..N-1``, each exactly once, each keyed by
its corpus package, every record decodable.  Anything else exits 2
with one ``error:`` line naming the shard file -- never a traceback,
and never a table folded from the wrong apps."""

import json
import os
import shutil

import pytest

from repro.cli import main
from repro.core.results import ShardedResultWriter, shard_name
from repro.core.study import run_study_streaming
from repro.corpus.appstore import CorpusSpec

N_APPS = 48
SHARDS = 4


@pytest.fixture(scope="module")
def run_dir(tmp_path_factory):
    spec = CorpusSpec(n_apps=N_APPS)
    out = str(tmp_path_factory.mktemp("merge") / "shards")
    meta = {"kind": "study", "seed": spec.seed, "apps": spec.n_apps}
    with ShardedResultWriter(out, meta, shards=SHARDS) as writer:
        run_study_streaming(spec, sinks=[writer])
    return out


def corrupt(run_dir, tmp_path, index, edit):
    """A copy of *run_dir* whose record *index* went through *edit*
    (a function of the record dict); returns (copy, shard path)."""
    copy = str(tmp_path / "copy")
    shutil.copytree(run_dir, copy)
    path = os.path.join(copy, shard_name(index % SHARDS))
    with open(path, encoding="utf-8") as handle:
        lines = handle.readlines()
    for number, line in enumerate(lines):
        record = json.loads(line)
        if record.get("index") == index:
            edit(record)
            lines[number] = json.dumps(
                record, sort_keys=True, separators=(",", ":")) + "\n"
            break
    else:
        raise AssertionError(f"no record {index}")
    with open(path, "w", encoding="utf-8") as handle:
        handle.writelines(lines)
    return copy, path


def merge(directory, capsys):
    code = main(["merge-results", directory])
    return code, capsys.readouterr()


def test_intact_run_merges(run_dir, capsys):
    code, out = merge(run_dir, capsys)
    assert code == 0
    assert "== study summary ==" in out.out


def set_field(key, value):
    def edit(record):
        record[key] = value
    return edit


def drop_package(record):
    del record["doc"]["package"]


CASES = {
    # index 45 (shard 1) rewritten to 0: index 0 twice, 45 missing
    "duplicated-index": (45, set_field("index", 0)),
    # a duplicate inside one shard: 44 and 40 both live in shard 0
    "duplicated-in-shard": (44, set_field("index", 40)),
    "non-integer-index": (5, set_field("index", "x")),
    # 47 and 99 share shard 3, so only the run meta can refuse it
    "out-of-range-index": (47, set_field("index", 99)),
    "foreign-key": (6, set_field("key", "com.example.other.app9999")),
    "missing-doc-package": (7, drop_package),
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_corrupt_shard_exits_2_naming_the_file(run_dir, tmp_path,
                                               capsys, case):
    index, edit = CASES[case]
    copy, path = corrupt(run_dir, tmp_path, index, edit)
    code, out = merge(copy, capsys)
    assert code == 2
    lines = out.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: "), out.err
    assert os.path.basename(path) in lines[0]
    assert "== study summary ==" not in out.out
