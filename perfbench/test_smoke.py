"""Smoke test of the benchmark harness at tiny sizes.

Run from the root of a checkout: python3 -m pytest perfbench
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))
import run  # noqa: E402

run.locate_package()
import measure  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())

TINY_SCENARIO = workloads.Workload("tiny", ("cleveland",), (64,), n_genuine=2, max_records=3)
TINY_SWEEP = workloads.Workload("tiny-sweep", ("swiss",), (64,), n_genuine=1, sweep_seeds=1)


def _declared(section: str) -> dict:
    return {metric["name"]: metric["unit"] for metric in SPEC[section]}


def _emitted(result: dict) -> dict:
    return {name: metric["unit"] for name, metric in result["metrics"].items()}


@pytest.mark.parametrize("workload", [TINY_SCENARIO, TINY_SWEEP], ids=lambda w: w.name)
@pytest.mark.parametrize("trace, section", [(False, "end_to_end"), (True, "per_layer")])
def test_every_declared_metric_is_emitted_with_its_unit(tmp_path, workload, trace, section):
    result, report = measure.measure(workload, 7, 0.05, trace, tmp_path)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    assert _emitted(result) == _declared(section)
    assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())
    assert report["failed_share"] == 0


def test_declared_workloads_exist():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)


def _run_once(workload, tmp_path):
    inputs = workloads.prepare(workload, 7, measure.DATA_DIR)
    output = workloads.run_pass(workload, inputs, tmp_path, measure.DATA_DIR)
    return inputs, output


def test_flipped_recovered_payload_is_reported_failed(tmp_path):
    inputs, output = _run_once(TINY_SCENARIO, tmp_path)
    assert workloads.check(TINY_SCENARIO, inputs, output).failed == 0
    user = output.transcript.world.users[0]
    first = user.recovered[0]
    user.recovered[0] = bytes([first[0] ^ 1]) + first[1:]
    verdict = workloads.check(TINY_SCENARIO, inputs, output)
    assert verdict.failed == 1 and verdict.problems


def test_wrong_outcome_stage_is_reported_failed(tmp_path):
    inputs, output = _run_once(TINY_SCENARIO, tmp_path)
    outcomes = output.transcript.outcomes
    name = output.transcript.world.users[1].name
    outcomes[name] = type(outcomes[name])(status="REJECTED", stage="validation")
    assert workloads.check(TINY_SCENARIO, inputs, output).failed == 1


def test_altered_sweep_row_is_reported_failed(tmp_path):
    inputs, output = _run_once(TINY_SWEEP, tmp_path)
    assert workloads.check(TINY_SWEEP, inputs, output).failed == 0
    text = output.path.read_text()
    output.path.write_text(text.replace(",1.0000,", ",0.0000,"))
    verdict = workloads.check(TINY_SWEEP, inputs, output)
    assert verdict.failed == 1 and verdict.problems


def test_tracer_restores_every_binding():
    import acshare
    from acshare import entities, primitives, protocol

    before = (primitives.expand, protocol.expand, entities.recover_payload, acshare.Transcript.append)
    with Tracer():
        assert protocol.expand is not before[1]
        assert entities.recover_payload is not before[2]
    after = (primitives.expand, protocol.expand, entities.recover_payload, acshare.Transcript.append)
    assert after == before
