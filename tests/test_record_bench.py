"""The benchmark recorder's parsing of one perfbench run, and its children, on canned output."""

from __future__ import annotations

import importlib.util
import json
import subprocess

import pytest

from conftest import REPO_ROOT

spec = importlib.util.spec_from_file_location("record_bench", REPO_ROOT / "scripts" / "record_bench.py")
record_bench = importlib.util.module_from_spec(spec)
spec.loader.exec_module(record_bench)
spec = importlib.util.spec_from_file_location("perfbench_run", REPO_ROOT / "perfbench" / "run.py")
perfbench_run = importlib.util.module_from_spec(spec)
spec.loader.exec_module(perfbench_run)

ENVIRONMENT = {"workload": "share-heavy", "environment": {"python": "3.11.7", "bench_seed": 1}}
REPORT = {"workload": "share-heavy", "counters": {"messages": 32006}, "samples": {"wall_s": [0.1]}}
RESULT = {"correct": True, "attempted": 3, "failed": 0, "metrics": {"wall_s": 0.09}}


#: a committed tree: a nested module, a file that is not Python, and a
#: name that sorts after the package as a path but before it as a string
TREE = {
    "src/acshare/__init__.py": b"from .core import x\n",
    "src/acshare/core.py": b"x = 1\n",
    "src/acshare/sub/deep.py": b"y = 2\n",
    "src/acshare/data.txt": b"not hashed\n",
    "src/acshare-extra.py": b"z = 3\n",
}


def output(*lines) -> str:
    return "".join(json.dumps(line) + "\n" for line in lines)


def canned_git(argv) -> subprocess.CompletedProcess:
    """What ``git ls-tree -r -z --name-only`` and ``git show HEAD:path`` print for ``TREE``."""
    assert argv[:3] == ["git", "-C", str(record_bench.ROOT)]
    command = argv[3:]
    if command[0] == "ls-tree":
        stdout = b"".join(name.encode() + b"\0" for name in TREE)
    else:
        assert command[0] == "show" and command[1].startswith("HEAD:")
        stdout = TREE[command[1].removeprefix("HEAD:")]
    return subprocess.CompletedProcess(argv, 0, stdout, b"")


def write_tree(root):
    for name, content in TREE.items():
        path = root / name
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_bytes(content)
    return root / "src"


def test_head_source_hash_is_the_tree_walks_hash_of_the_committed_files(tmp_path, monkeypatch):
    monkeypatch.setattr(perfbench_run, "SRC", write_tree(tmp_path))
    monkeypatch.setattr(record_bench.subprocess, "run", lambda argv, **kwargs: canned_git(argv))
    assert record_bench.head_source_sha256() == perfbench_run._source_sha256()
    # one changed byte in a hashed file changes the hash
    (tmp_path / "src" / "acshare" / "sub" / "deep.py").write_bytes(b"y = 3\n")
    assert record_bench.head_source_sha256() != perfbench_run._source_sha256()


def test_a_failing_git_command_is_refused(monkeypatch):
    failed = subprocess.CompletedProcess([], 128, b"", b"fatal: not a git repository\n")
    monkeypatch.setattr(record_bench.subprocess, "run", lambda argv, **kwargs: failed)
    with pytest.raises(record_bench.RecordError, match="exit 128: fatal: not a git repository$"):
        record_bench.head_source_sha256()


def test_a_correct_run_keeps_its_three_lines():
    assert record_bench.parse_run(output(ENVIRONMENT, REPORT, RESULT)) == {
        "environment": ENVIRONMENT, "report": REPORT, "result": RESULT
    }


@pytest.mark.parametrize(
    "stdout, message",
    [
        (output(ENVIRONMENT, REPORT, {**RESULT, "correct": False}), "correct: False, failed: 0"),
        (output(ENVIRONMENT, REPORT, {**RESULT, "failed": 1}), "correct: True, failed: 1"),
        (output(ENVIRONMENT, REPORT), "the last line is not a result"),
        (output(ENVIRONMENT, RESULT, REPORT), "the last line is not a result"),
        (output(ENVIRONMENT, REPORT, RESULT, RESULT), "the last line is not a result"),
        (output(ENVIRONMENT, REPORT, [RESULT]), "the last line is not a result"),
        (output(ENVIRONMENT, REPORT) + "Traceback (most recent call last):\n", "a line is not JSON"),
        ("", "the last line is not a result"),
    ],
    ids=["incorrect", "failed", "no-result", "result-first", "four-lines", "list", "traceback", "empty"],
)
def test_a_failed_or_incomplete_run_is_refused(stdout, message):
    with pytest.raises(record_bench.RecordError, match=f"^{message}$"):
        record_bench.parse_run(stdout)


def test_every_child_writes_no_bytecode_and_each_entry_records_the_cache(tmp_path, monkeypatch):
    pycache = tmp_path / "__pycache__"
    calls = []

    def run(argv, **kwargs):
        if argv[0] == "git":
            return canned_git(argv)
        calls.append((argv, kwargs["env"]))
        pycache.mkdir(exist_ok=True)  # a child that writes a cache, though told not to
        script = argv[1]
        stdout = output(ENVIRONMENT, REPORT, RESULT) if script == "perfbench/run.py" else '{"run_s": 0.4}\n'
        return subprocess.CompletedProcess(argv, 0, stdout, "")

    monkeypatch.setattr(record_bench, "PYCACHE", pycache)
    monkeypatch.setattr(record_bench.subprocess, "run", run)
    monkeypatch.setenv("PYTHONDONTWRITEBYTECODE", "")
    document = record_bench.record()
    assert [env["PYTHONDONTWRITEBYTECODE"] for _, env in calls] == ["1"] * len(calls)
    entries = [
        entry for runs in document["perfbench"].values() for entry in runs.values()
    ] + list(document["scale_probe"].values())
    assert [entry["args"] for entry in entries] == [argv[1:] for argv, _ in calls]
    # each entry reads the cache as its run started, so only the first finds none
    assert [entry["pycache"] for entry in entries] == [False] + [True] * (len(calls) - 1)


@pytest.mark.parametrize("committed", [True, False], ids=["committed", "uncommitted"])
def test_the_record_says_whether_its_sources_are_heads(committed, tmp_path, monkeypatch):
    monkeypatch.setattr(perfbench_run, "SRC", write_tree(tmp_path))
    head = perfbench_run._source_sha256()
    source = head if committed else "0" * 64
    environment = {**ENVIRONMENT, "environment": {**ENVIRONMENT["environment"], "source_sha256": source}}

    def run(argv, **kwargs):
        if argv[0] == "git":
            return canned_git(argv)
        script = argv[1]
        stdout = output(environment, REPORT, RESULT) if script == "perfbench/run.py" else '{"run_s": 0.4}\n'
        return subprocess.CompletedProcess(argv, 0, stdout, "")

    monkeypatch.setattr(record_bench.subprocess, "run", run)
    document = record_bench.record()
    assert document["head_source_sha256"] == head
    assert document["source_matches_head"] is committed
