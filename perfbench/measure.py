"""Measurement loop: set-up probes, timed passes, traced passes, metrics.

End-to-end metrics come from untraced passes, scaled to a reference
machine speed by calibration gauges taken between them. A traced run
alternates untraced and traced passes, so the difference of their
medians is the tracing overhead, and every deterministic counter of a
traced pass must equal the untraced one.
"""

from __future__ import annotations

import gc
import hashlib
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

import workloads
from tracer import CAPTURE_TARGETS, STAGES, Tracer

HERE = Path(__file__).resolve().parent
DATA_DIR = HERE.parent / "data"

#: passes, and set-up probes, measured even when the time budget is spent sooner
MIN_PASSES = 7

#: :func:`calibration_seconds` on the machine the end-to-end timings are
#: expressed on: a 2-vCPU Xeon VM at 2.1 GHz, with no other tenant busy
REFERENCE_CALIBRATION_S = 0.03
CALIBRATION_ROUNDS = 50_000
#: set-up probes per timed pass, each between two calibration gauges
PROBES_PER_PASS = 2

#: spans reported with call count and self time
CALLS_AND_SELF = (
    "primitives.keystream",
    "primitives.expand",
    "primitives.frame_concat",
    "primitives.mod_reduce",
    "protocol.recover_payload",
    "protocol.make_cipher_bundle",
    "protocol.validation_messages",
    "protocol.access_query",
    "protocol.registration_digest",
    "netsim.transmit",
    "entities.transcript.append",
    "dataset.record_to_payload",
)


@dataclass
class Tally:
    """Principals attempted and failed over every checked pass of a run."""

    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)

    def add(self, verdict: workloads.Verdict) -> None:
        self.attempted += verdict.attempted
        self.failed += verdict.failed
        for problem in verdict.problems:
            print(f"FAILED: {problem}", file=sys.stderr)
        self.problems += verdict.problems


def counters(verdict: workloads.Verdict, counts: Counter | None = None) -> dict:
    """Deterministic counters of one pass: its output, and messages when counted."""
    out: dict = {}
    if counts is not None:
        out["messages"] = sum(n for key, n in counts.items() if key.startswith("msgs."))
        out.update(sorted(counts.items()))
    out["output_bytes"] = verdict.output_bytes
    out["output_sha256"] = verdict.output_sha256
    out["memory_bytes"] = verdict.memory_bytes
    return out


def _compare(verdict: workloads.Verdict, reference: dict, current: dict, label: str) -> None:
    for key, value in current.items():
        if key in reference and reference[key] != value:
            verdict.fail_pass(f"{label} pass: {key} = {value}, first pass gave {reference[key]}")


def setup_seconds(workload: workloads.Workload) -> float:
    """Cold set-up time of a fresh interpreter, as it measured itself."""
    command = [
        sys.executable,
        str(HERE / "setup_probe.py"),
        str(workload.max_records or 0),
        *workload.datasets,
    ]
    done = subprocess.run(command, capture_output=True, text=True, timeout=60, check=True)
    return float(done.stdout)


def layer_metrics(tracer: Tracer, verdict: workloads.Verdict, scenario: bool) -> dict:
    """Per-layer figures of one traced pass, as {name: (value, unit)}."""
    spans, counts = tracer.spans, tracer.counts
    out = {}
    for name in CALLS_AND_SELF:
        out[f"{name}.calls"] = (spans[name].calls, "count")
        out[f"{name}.self_s"] = (spans[name].self_s, "s")
    out["primitives.keystream.bytes"] = (counts["keystream_bytes"], "bytes")
    out["netsim.apply_adversary.calls"] = (spans["netsim.apply_adversary"].calls, "count")
    for channel in ("PUBLIC", "PRIVATE"):
        total = sum(counts[f"msgs.{stage}.{channel}"] for stage in STAGES)
        out[f"netsim.msgs.{channel.lower()}"] = (total, "count")
    out["netsim.wire_bytes"] = (counts["wire_bytes"], "bytes")
    for stage in STAGES:
        out[f"entities.stage.{stage}.s"] = (spans[f"entities.stage.{stage}"].total_s, "s")
        msgs = counts[f"msgs.{stage}.PUBLIC"] + counts[f"msgs.{stage}.PRIVATE"]
        out[f"entities.stage.{stage}.msgs"] = (msgs, "count")
    out["entities.transcript.to_jsonl.s"] = (spans["entities.transcript.to_jsonl"].total_s, "s")
    out["entities.transcript.jsonl_bytes"] = (verdict.output_bytes if scenario else 0, "bytes")
    out["dataset.load_dataset.s"] = (spans["dataset.load_dataset"].total_s, "s")
    out["bench.run_sweep.cells"] = (counts["sweep_cells"], "count")
    out["bench.measure_memory.calls"] = (spans["bench.measure_memory"].calls, "count")
    out["bench.measure_memory.s"] = (spans["bench.measure_memory"].total_s, "s")
    out["bench.memory_bytes"] = (verdict.memory_bytes, "bytes")
    return out


def calibration_seconds() -> float:
    """Time of a fixed mix of interpreter, dict and hashlib work: the machine's speed now.

    The host shares its cores with other tenants, and its speed changes by
    up to 2x within seconds. A timing divided by this gauge, taken around
    it, changes far less.
    """
    table = {}
    start = time.perf_counter()
    for i in range(CALIBRATION_ROUNDS):
        table[i & 1023] = hashlib.sha256(i.to_bytes(8, "big")).digest()
    return time.perf_counter() - start


def _timed_pass(workload, inputs, work_dir) -> tuple[float, workloads.Output]:
    gc.collect()  # start every pass without the previous one's garbage
    start = time.perf_counter()
    output = workloads.run_pass(workload, inputs, work_dir, DATA_DIR)
    return time.perf_counter() - start, output


def _middle_mean(values: list[float]) -> float:
    """Mean of the middle half of ``values``."""
    ordered = sorted(values)
    cut = len(ordered) // 4
    return statistics.fmean(ordered[cut : len(ordered) - cut])


def _spread(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {"n": len(values), "median": median, "q1": q1, "q3": q3, "min": min(values), "max": max(values)}


def measure(
    workload: workloads.Workload,
    bench_seed: int,
    seconds: float,
    trace: bool,
    work_dir: Path,
) -> tuple[dict, dict]:
    """Run one workload; returns the result line and a report of how it was made."""
    tally = Tally()
    inputs = workloads.prepare(workload, bench_seed, DATA_DIR)
    scenario = not workload.sweep_seeds

    # An untimed first pass warms up and counts every transcript it produces.
    with Tracer(CAPTURE_TARGETS) as capture:
        output = workloads.run_pass(workload, inputs, work_dir, DATA_DIR)
    verdict = workloads.check(workload, inputs, output)
    tally.add(verdict)
    reference = counters(verdict, capture.counts)
    del output

    walls: list[float] = []
    setups: list[float] = []  # at the reference speed
    gauges: list[float] = []
    traced_walls: list[float] = []
    samples: list[dict] = []
    deadline = time.perf_counter() + seconds
    while len(walls) < MIN_PASSES or time.perf_counter() < deadline:
        for _ in range(0 if trace else PROBES_PER_PASS):
            before = calibration_seconds()
            probe = setup_seconds(workload)
            after = calibration_seconds()
            gauges += [before, after]
            setups.append(probe * 2 * REFERENCE_CALIBRATION_S / (before + after))
        wall, output = _timed_pass(workload, inputs, work_dir)
        walls.append(wall)
        verdict = workloads.check(workload, inputs, output)
        _compare(verdict, reference, counters(verdict), "timed")
        tally.add(verdict)
        del output
        if not trace:
            continue
        gc.collect()
        with Tracer() as tracer:
            traced_inputs = workloads.prepare(workload, bench_seed, DATA_DIR)
            start = time.perf_counter()
            output = workloads.run_pass(workload, traced_inputs, work_dir, DATA_DIR)
            traced_walls.append(time.perf_counter() - start)
        verdict = workloads.check(workload, traced_inputs, output)
        _compare(verdict, reference, counters(verdict, tracer.counts), "traced")
        sample = layer_metrics(tracer, verdict, scenario)
        if samples:
            _compare(verdict, samples[0], {k: v for k, v in sample.items() if v[1] != "s"}, "traced")
        samples.append(sample)
        tally.add(verdict)
        del output

    report = {"counters": reference, "wall_s_raw": _spread(walls), "walls": walls}
    if trace:
        for missing in tracer.missing:
            print(f"warning: trace target {missing} not found; its metrics read 0", file=sys.stderr)
        metrics = {
            name: (statistics.median(s[name][0] for s in samples) if unit == "s" else value, unit)
            for name, (value, unit) in samples[0].items()
        }
        overhead = statistics.median(traced_walls) - statistics.median(walls)
        metrics["trace.overhead_s"] = (overhead, "s")
        report["traced_wall_s_raw"] = _spread(traced_walls)
    else:
        # The host switches between a fast and a slow speed, up to 2x apart,
        # as other tenants come and go. A pass spans both, a gauge mostly one.
        # Means of passes and of gauges both grow with the time spent at the
        # slow speed, so their ratio cancels it, where medians would flip
        # between the two speeds. Only the middle half is averaged, so that
        # one stalled pass does not move the figure.
        wall_s = _middle_mean(walls) * REFERENCE_CALIBRATION_S / _middle_mean(gauges)
        metrics = {
            "wall_s": (wall_s, "s"),
            "messages_per_s": (reference["messages"] / wall_s, "msg/s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB"),
            # a probe is as short as a gauge, so each is scaled by its own pair
            "setup_s": (statistics.median(setups), "s"),
        }
        report.update(
            setup_s=_spread(setups),
            calibration_s=_spread(gauges),
            setups=setups,
            gauges=gauges,
        )
    report["failed_share"] = tally.failed / tally.attempted
    result = {
        "correct": not tally.problems,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    return result, report
