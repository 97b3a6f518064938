"""Benchmarks: stored-byte accounting and detection-rate sweeps.

The memory figure is the canonical stored state after a run, measured
three independent ways that must agree exactly: ``measure_memory``
applies ``PERSISTED`` to the transcript, ``expected_memory_bytes``
applies ``STORED_KEYS`` to the scenario, and ``CloudStore.accounted_bytes``
is the server's own ledger, to which the centre's parameter pair is added.

Accounted state: the generation centre's parameter pair, the server's
provisioned parameter, registered credentials, stored private and
session keys, and each uploaded bundle (wrapped ciphertext plus payload
digest). Working copies held only to recompute checks are not counted.
"""

from __future__ import annotations

from pathlib import Path
from typing import NamedTuple, Sequence

from .dataset import resolve_dataset
from .entities import CLOUD_NAME
from .netsim import (
    KEY_LENGTH_BITS,
    AdversaryClass,
    AdversarySpec,
    ConfigError,
    ScenarioConfig,
    load_payloads,
    principal_roster,
    run_scenario,
)
from .primitives import DIGEST_WIDTH
from .wire import (
    KIND_CIPHER_UPLOAD,
    KIND_KEY_STORE,
    KIND_PROVISION,
    KIND_REGISTER,
    KIND_SESSION_STORE,
    Transcript,
)

#: framing overhead inside one wrapped bundle (two 4-byte length prefixes)
WRAP_OVERHEAD_BYTES = 8


class BenchRow(NamedTuple):
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


HEADER = ",".join(BenchRow._fields)


#: the fields the server stores from each message kind it keeps, per user id
PERSISTED = {
    KIND_PROVISION: ("s",),
    KIND_REGISTER: ("user_id", "password"),
    KIND_KEY_STORE: ("private_key",),
    KIND_SESSION_STORE: ("session_key",),
}

#: width-sized keys the server ends up holding for each class that registers
STORED_KEYS = {
    AdversaryClass.NONE: 2,  # private key at keygen, session key at grant
    AdversaryClass.TAMPER_VALIDATION: 2,
    AdversaryClass.TAMPER_CIPHERTEXT: 2,
    AdversaryClass.FORGED_PRIVATE_KEY: 1,  # its query never matches, so no grant
    AdversaryClass.WRONG_PASSWORD: 0,  # it never passes registration
}


def measure_memory(config: ScenarioConfig, transcript: Transcript) -> int:
    """Accounted stored bytes, reconstructed from the transcript.

    Only messages the server received count: each ``PERSISTED`` kind is
    kept per user id, a later one overwriting the earlier as the store
    does, and every uploaded bundle adds to the total. The untampered
    shares that runs hold are skipped unread, since no share is stored.
    """
    stored: dict[tuple[str, bytes | None], int] = {}
    bundle_bytes = 0
    for message in transcript.kept_messages():
        if message.recipient != CLOUD_NAME:
            continue
        fields = message.fields
        if message.kind == KIND_CIPHER_UPLOAD:
            bundle_bytes += len(fields["wrapped"]) + len(fields["payload_digest"])
        elif message.kind in PERSISTED:
            kept = map(fields.__getitem__, PERSISTED[message.kind])
            stored[message.kind, fields.get("user_id")] = sum(map(len, kept))
    # the generation centre holds its parameter pair
    return 2 * config.width + sum(stored.values()) + bundle_bytes


def expected_memory_bytes(config: ScenarioConfig, payload_sizes: Sequence[int]) -> int:
    """Closed-form prediction of ``measure_memory`` for a scenario.

    Per registering principal: its id and password, plus the
    ``STORED_KEYS`` count of width-sized keys for its class; a class
    missing from that table raises ``KeyError``. Replaying outsiders
    never register. Each bundle stores the payload, the stripped owner
    key, two length prefixes, and the payload digest.
    """
    width = config.width
    total = 2 * width
    roster = principal_roster(config)
    registering = [entry for entry in roster if entry[1] is not AdversaryClass.REPLAY_QUERY]
    if registering:
        total += width  # the server keeps the provisioned parameter
    for name, cls, _ in registering:
        total += len(name.encode("ascii")) + width * (1 + STORED_KEYS[cls])
    for size in payload_sizes:
        total += size + width + WRAP_OVERHEAD_BYTES + DIGEST_WIDTH
    return total


def plan_sweep(
    datasets: Sequence[str],
    *,
    key_lengths: Sequence[int] = KEY_LENGTH_BITS,
    seeds: Sequence[int] = (0,),
    n_genuine: int = 1,
    adversaries: Sequence[AdversarySpec] = (),
    max_records: int | None = None,
    data_dir: str | Path = "data",
) -> list[tuple[ScenarioConfig, list[bytes]]]:
    """Every cell of a sweep with its payloads: one per (dataset, key length, seed), in that order.

    Every cell's configuration is built, and so checked, before any
    dataset is read, and every dataset is read before this returns, so
    a bad sweep fails before its first run.
    """
    if n_genuine == 0:
        raise ConfigError("no genuine principals in the scenario")  # no rate to report
    sources = [resolve_dataset(spec, data_dir) for spec in datasets]
    for name, _ in sources:  # each name is written unquoted into the ASCII CSV's dataset column
        if not name.isascii() or set(name) & set(',"\r\n'):
            raise ConfigError(
                f"dataset name {name!r} must be ASCII with no comma, quote or line break; "
                "pass NAME=PATH instead"
            )
    cells = [
        [
            ScenarioConfig(
                n_genuine=n_genuine,
                adversaries=tuple(adversaries),
                dataset=name,
                key_length_bits=bits,
                seed=seed,
                max_records=max_records,
            )
            for bits in key_lengths
            for seed in seeds
        ]
        for name, _ in sources
    ]
    payload_sets = [load_payloads(name, path, max_records) for name, path in sources]
    return [
        (config, payloads) for configs, payloads in zip(cells, payload_sets) for config in configs
    ]


def run_cells(cells: Sequence[tuple[ScenarioConfig, list[bytes]]]) -> list[BenchRow]:
    """One protocol run and CSV row per planned cell, in order."""
    rows = []
    for config, payloads in cells:
        transcript, summary = run_scenario(config, payloads)
        rows.append(
            BenchRow(
                dataset=config.dataset,
                key_length_bits=config.key_length_bits,
                memory_bytes=measure_memory(config, transcript),
                genuine_detection_rate=summary.genuine_rate,
                seed=config.seed,
            )
        )
    return rows


def run_sweep(datasets: Sequence[str], **options) -> list[BenchRow]:
    """Plan a sweep with :func:`plan_sweep`, which takes ``options``, and run its cells."""
    return run_cells(plan_sweep(datasets, **options))


def render_csv(rows: Sequence[BenchRow]) -> str:
    return "\n".join([HEADER] + [row.to_csv() for row in rows]) + "\n"


def write_csv(rows: Sequence[BenchRow], path: str | Path) -> None:
    Path(path).write_text(render_csv(rows), encoding="ascii", newline="")
