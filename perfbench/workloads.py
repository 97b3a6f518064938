"""The benchmark's workloads: their inputs, one pass, and its checks.

A pass drives the package the way the command line does. A scenario
workload runs ``run_scenario`` and writes and hashes the JSONL
transcript, as ``acshare run`` does; a sweep workload runs
``run_sweep`` and writes the CSV, as ``acshare bench`` does. The checks
run after a pass, outside its timer, and judge every principal against
what its class must end with.
"""

from __future__ import annotations

import csv
import hashlib
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

from acshare import bench, dataset, netsim
from acshare.netsim import AdversaryClass, AdversarySpec, ScenarioConfig

#: (status, stage) each principal class must end with
EXPECTED_END = {
    AdversaryClass.NONE: ("ACCEPTED", "sharing"),
    AdversaryClass.WRONG_PASSWORD: ("REJECTED", "setup"),
    AdversaryClass.FORGED_PRIVATE_KEY: ("REJECTED", "access"),
    AdversaryClass.TAMPER_VALIDATION: ("REJECTED", "validation"),
    AdversaryClass.TAMPER_CIPHERTEXT: ("INTEGRITY_FAILURE", "sharing"),
    AdversaryClass.REPLAY_QUERY: ("REJECTED", "validation"),
}

ADVERSARY_CLASSES = tuple(cls for cls in AdversaryClass if cls is not AdversaryClass.NONE)


@dataclass(frozen=True)
class Workload:
    """Sizes of one workload.

    ``sweep_seeds`` > 0 makes it a sweep over datasets x key lengths x
    that many seeds; otherwise it is one scenario over the first dataset
    and key length.
    """

    name: str
    datasets: tuple[str, ...]
    key_lengths: tuple[int, ...]
    n_genuine: int
    adversaries_per_class: int = 0
    max_records: int | None = None
    sweep_seeds: int = 0


WORKLOADS = {
    w.name: w
    for w in (
        # Sharing dominates: 100 users each recover all 303 payloads.
        Workload("share-heavy", ("cleveland",), (256,), n_genuine=100),
        # Control-plane stages and PUBLIC delivery dominate; at 64 bytes
        # expand and mod_reduce take their multi-block paths.
        Workload(
            "adversary-battery",
            ("cleveland",),
            (512,),
            n_genuine=500,
            adversaries_per_class=100,
            max_records=4,
        ),
        # Independent cells, owner-side encryption as costly as recovery,
        # and widths on both sides of expand's 32-byte boundary.
        Workload(
            "keylength-sweep",
            ("cleveland", "hungarian", "swiss"),
            netsim.KEY_LENGTH_BITS,
            n_genuine=1,
            sweep_seeds=8,
        ),
    )
}


@dataclass
class Inputs:
    """Everything the package receives for one workload."""

    payloads: dict[str, list[bytes]]
    configs: list[ScenarioConfig]  # a sweep's cells, in run_sweep's order
    seeds: list[int]


@dataclass
class Output:
    path: Path
    sha256: str = ""  # as the package reported it; scenario workloads only
    transcript: object | None = None  # scenario workloads only


@dataclass
class Verdict:
    """Result of checking one pass."""

    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    memory_bytes: int = 0
    output_bytes: int = 0
    output_sha256: str = ""

    def fail_pass(self, problem: str) -> None:
        """A fault in the pass as a whole discredits every principal in it."""
        self.problems.append(problem)
        self.failed = self.attempted


def scenario_seed(workload: Workload, bench_seed: int, index: int) -> int:
    """64-bit scenario seed, derived from the benchmark seed without the package."""
    token = f"{workload.name}/{bench_seed}/{index}".encode("ascii")
    return int.from_bytes(hashlib.sha256(token).digest()[:8], "big")


def prepare(workload: Workload, bench_seed: int, data_dir: Path) -> Inputs:
    """Parse the datasets, serialize payloads and build the scenario configs."""
    payloads = {}
    for spec in workload.datasets:
        name, path = dataset.resolve_dataset(spec, data_dir)
        records = dataset.load_dataset(path, variant=name)[: workload.max_records]
        payloads[name] = [dataset.record_to_payload(record) for record in records]
    adversaries = tuple(
        AdversarySpec(cls=cls, count=workload.adversaries_per_class)
        for cls in ADVERSARY_CLASSES
        if workload.adversaries_per_class
    )
    seeds = [
        scenario_seed(workload, bench_seed, i) for i in range(max(1, workload.sweep_seeds))
    ]
    configs = [
        ScenarioConfig(
            n_genuine=workload.n_genuine,
            adversaries=adversaries,
            dataset=name,
            key_length_bits=bits,
            seed=seed,
            max_records=workload.max_records,
        )
        for name in payloads
        for bits in workload.key_lengths
        for seed in seeds
    ]
    if not workload.sweep_seeds:
        configs = configs[:1]
    return Inputs(payloads=payloads, configs=configs, seeds=seeds)


def run_pass(workload: Workload, inputs: Inputs, out_dir: Path, data_dir: Path) -> Output:
    """One timed unit of work, ending with its output written."""
    if workload.sweep_seeds:
        path = out_dir / "sweep.csv"
        rows = bench.run_sweep(
            list(workload.datasets),
            key_lengths=workload.key_lengths,
            seeds=inputs.seeds,
            n_genuine=workload.n_genuine,
            max_records=workload.max_records,
            data_dir=data_dir,
        )
        bench.write_csv(rows, path)
        return Output(path=path)
    config = inputs.configs[0]
    transcript, _summary = netsim.run_scenario(config, payloads=inputs.payloads[config.dataset])
    path = out_dir / "transcript.jsonl"
    transcript.write(path)
    return Output(path=path, sha256=transcript.content_hash(), transcript=transcript)


def read_output(path: Path) -> tuple[int, str]:
    """Size and sha256 of a written output file."""
    data = path.read_bytes()
    return len(data), hashlib.sha256(data).hexdigest()


def check(workload: Workload, inputs: Inputs, output: Output) -> Verdict:
    """Judge one pass's output; run outside the timer."""
    if workload.sweep_seeds:
        return _check_sweep(workload, inputs, output)
    return _check_scenario(inputs, output)


def _check_scenario(inputs: Inputs, output: Output) -> Verdict:
    config = inputs.configs[0]
    payloads = inputs.payloads[config.dataset]
    transcript = output.transcript
    world = transcript.world
    expected_roster = Counter({AdversaryClass.NONE: config.n_genuine})
    for spec in config.adversaries:
        expected_roster[spec.cls] += spec.count
    verdict = Verdict(attempted=sum(expected_roster.values()))
    verdict.output_bytes, verdict.output_sha256 = read_output(output.path)
    for user in world.users:
        outcome = transcript.outcomes.get(user.name)
        got = None if outcome is None else (outcome.status, outcome.stage)
        want = EXPECTED_END[user.adversary]
        if got != want:
            verdict.failed += 1
            verdict.problems.append(f"{user.name} ({user.adversary.name}) ended {got}, expected {want}")
        elif user.adversary is AdversaryClass.NONE and user.recovered != payloads:
            verdict.failed += 1
            verdict.problems.append(f"{user.name} recovered payloads differ from the inputs")

    roster = Counter(user.adversary for user in world.users)
    if roster != expected_roster:
        verdict.fail_pass(f"roster {dict(roster)} differs from the configured {dict(expected_roster)}")
    measured = bench.measure_memory(config, transcript)
    closed_form = bench.expected_memory_bytes(config, [len(p) for p in payloads])
    ledger = world.cloud.store.accounted_bytes() + 2 * config.width
    if not measured == closed_form == ledger:
        verdict.fail_pass(
            f"memory: measured {measured}, closed form {closed_form}, store ledger {ledger}"
        )
    verdict.memory_bytes = measured
    if verdict.output_sha256 != output.sha256:
        verdict.fail_pass(
            f"written transcript hashes to {verdict.output_sha256}, reported {output.sha256}"
        )
    return verdict


def _check_sweep(workload: Workload, inputs: Inputs, output: Output) -> Verdict:
    verdict = Verdict(attempted=len(inputs.configs) * workload.n_genuine)
    verdict.output_bytes, verdict.output_sha256 = read_output(output.path)
    with output.path.open(newline="", encoding="ascii") as handle:
        rows = list(csv.DictReader(handle))
    if len(rows) != len(inputs.configs):
        verdict.fail_pass(f"{len(rows)} CSV rows for {len(inputs.configs)} cells")
        return verdict
    for row, config in zip(rows, inputs.configs):
        sizes = [len(p) for p in inputs.payloads[config.dataset]]
        expected = {
            "dataset": config.dataset,
            "key_length_bits": str(config.key_length_bits),
            "memory_bytes": str(bench.expected_memory_bytes(config, sizes)),
            "genuine_detection_rate": "1.0000",
            "seed": str(config.seed),
        }
        if row == expected:
            verdict.memory_bytes += int(row["memory_bytes"])
        else:
            verdict.failed += workload.n_genuine
            verdict.problems.append(f"sweep row {row} differs from {expected}")
    return verdict
