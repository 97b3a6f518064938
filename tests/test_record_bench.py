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

ENVIRONMENT = {"workload": "share-heavy", "environment": {"python": "3.11.7", "bench_seed": 1}}
REPORT = {"workload": "share-heavy", "counters": {"messages": 32006}, "samples": {"wall_s": [0.1]}}
RESULT = {"correct": True, "attempted": 3, "failed": 0, "metrics": {"wall_s": 0.09}}


def output(*lines) -> str:
    return "".join(json.dumps(line) + "\n" for line in lines)


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
