"""Benchmarks: stored-byte accounting and detection-rate sweeps.

The memory figure is the canonical stored state after a run, measured
two independent ways. ``measure_memory`` walks the transcript and adds
up what actually landed in the stores; ``expected_memory_bytes`` is a
closed form over the scenario alone. The two must agree exactly, which
pins down both the protocol's storage behaviour and the accounting.

Accounted state: the generation centre's parameter pair, the server's
provisioned parameter, registered credentials, stored private and
session keys, and each uploaded bundle (wrapped ciphertext plus payload
digest). Working copies held only to recompute checks are not counted.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

from .dataset import load_dataset, record_to_payload, resolve_dataset
from .entities import CLOUD_NAME, run_protocol
from .netsim import (
    KEY_LENGTH_BITS,
    AdversaryClass,
    AdversarySpec,
    ConfigError,
    OutcomeSummary,
    ScenarioConfig,
    principal_roster,
    summarize,
)
from .wire import (
    KIND_CIPHER_UPLOAD,
    KIND_KEY_STORE,
    KIND_PROVISION,
    KIND_REGISTER,
    KIND_SESSION_STORE,
    Transcript,
)

HEADER = "dataset,key_length_bits,memory_bytes,genuine_detection_rate,seed"

#: digest width produced by the payload integrity hash
PAYLOAD_DIGEST_BYTES = 32

#: framing overhead inside one wrapped bundle (two 4-byte length prefixes)
WRAP_OVERHEAD_BYTES = 8


class UndefinedRateError(ConfigError):
    """The detection rate over zero genuine principals is undefined.

    A configuration error: a sweep with no genuine principals can never
    yield a rate.
    """


@dataclass(frozen=True)
class BenchRow:
    dataset: str
    key_length_bits: int
    memory_bytes: int
    genuine_detection_rate: float
    seed: int

    def to_csv(self) -> str:
        return (
            f"{self.dataset},{self.key_length_bits},{self.memory_bytes},"
            f"{self.genuine_detection_rate:.4f},{self.seed}"
        )


def genuine_detection_rate(summary: OutcomeSummary) -> float:
    """Fraction of genuine principals that completed all six stages."""
    if summary.genuine_total == 0:
        raise UndefinedRateError("no genuine principals in the scenario")
    return summary.genuine_complete / summary.genuine_total


def measure_memory(config: ScenarioConfig, transcript: Transcript) -> int:
    """Accounted stored bytes, reconstructed from the transcript.

    Only messages the server actually received count; session grants
    overwrite rather than accumulate, mirroring the store.
    """
    width = config.key_length_bits // 8
    total = 2 * width  # the generation centre holds its parameter pair
    provisioned = False
    credentials: dict[bytes, int] = {}
    private_keys: dict[bytes, int] = {}
    session_keys: dict[bytes, int] = {}
    bundle_bytes = 0
    for message in transcript.messages:
        if message.recipient != CLOUD_NAME:
            continue
        if message.kind == KIND_PROVISION:
            provisioned = True
        elif message.kind == KIND_REGISTER:
            user_id = message.fields["user_id"]
            credentials[user_id] = len(user_id) + len(message.fields["password"])
        elif message.kind == KIND_KEY_STORE:
            private_keys[message.fields["user_id"]] = len(message.fields["private_key"])
        elif message.kind == KIND_SESSION_STORE:
            session_keys[message.fields["user_id"]] = len(message.fields["session_key"])
        elif message.kind == KIND_CIPHER_UPLOAD:
            bundle_bytes += len(message.fields["wrapped"]) + len(
                message.fields["payload_digest"]
            )
    if provisioned:
        total += width  # the server keeps the provisioned parameter
    total += sum(credentials.values())
    total += sum(private_keys.values())
    total += sum(session_keys.values())
    total += bundle_bytes
    return total


def expected_memory_bytes(config: ScenarioConfig, payload_sizes: Sequence[int]) -> int:
    """Closed-form prediction of ``measure_memory`` for a scenario.

    Per registering principal: its id and password; plus a private and
    a session key when it reaches a grant (genuine, validation- and
    ciphertext-tampering classes), only the private key when its query
    is refused (forged keys), and nothing further when registration
    itself fails (wrong passwords). Replaying outsiders never register.
    Each bundle stores the payload, the stripped owner key, two length
    prefixes, and the payload digest.
    """
    width = config.key_length_bits // 8
    total = 2 * width
    roster = principal_roster(config)
    registering = [entry for entry in roster if entry[1] is not AdversaryClass.REPLAY_QUERY]
    if registering:
        total += width
    for name, cls, _ in registering:
        total += len(name.encode("ascii")) + width
        if cls in (
            AdversaryClass.NONE,
            AdversaryClass.TAMPER_VALIDATION,
            AdversaryClass.TAMPER_CIPHERTEXT,
        ):
            total += 2 * width  # private key stored at keygen, session key at grant
        elif cls is AdversaryClass.FORGED_PRIVATE_KEY:
            total += width  # private key stored, but the query never matches
        # WRONG_PASSWORD never passes registration, so no keys are stored
    for size in payload_sizes:
        total += size + width + WRAP_OVERHEAD_BYTES + PAYLOAD_DIGEST_BYTES
    return total


def run_sweep(
    datasets: Sequence[str],
    *,
    key_lengths: Sequence[int] = KEY_LENGTH_BITS,
    seeds: Sequence[int] = (0,),
    n_genuine: int = 1,
    adversaries: Sequence[AdversarySpec] = (),
    max_records: int | None = None,
    data_dir: str | Path = "data",
) -> list[BenchRow]:
    """One protocol run per (dataset, key length, seed), in that order."""
    rows = []
    for spec in datasets:
        name, path = resolve_dataset(spec, data_dir)
        records = load_dataset(path, variant=name)
        if max_records is not None:
            records = records[:max_records]
        payloads = [record_to_payload(record) for record in records]
        for bits in key_lengths:
            for seed in seeds:
                config = ScenarioConfig(
                    n_genuine=n_genuine,
                    adversaries=tuple(adversaries),
                    dataset=name,
                    key_length_bits=bits,
                    seed=seed,
                    max_records=max_records,
                )
                transcript = run_protocol(config, payloads)
                summary = summarize(transcript, config)
                rows.append(
                    BenchRow(
                        dataset=name,
                        key_length_bits=bits,
                        memory_bytes=measure_memory(config, transcript),
                        genuine_detection_rate=genuine_detection_rate(summary),
                        seed=seed,
                    )
                )
    return rows


def render_csv(rows: Sequence[BenchRow]) -> str:
    return "\n".join([HEADER] + [row.to_csv() for row in rows]) + "\n"


def write_csv(rows: Sequence[BenchRow], path: str | Path) -> None:
    Path(path).write_text(render_csv(rows), encoding="ascii")
