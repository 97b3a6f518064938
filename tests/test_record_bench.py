"""The benchmark recorder's parsing of one perfbench run, on canned output."""

from __future__ import annotations

import importlib.util
import json

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
