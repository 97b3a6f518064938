"""Network delivery, adversaries, and scenario configuration.

The network model is deliberately small: every message is delivered,
and recorded, the moment it is sent, on a PUBLIC or a PRIVATE channel.
PUBLIC messages can be observed by eavesdroppers and, for the
ciphertext-tampering class, substituted with a flipped copy in flight;
the original line stays in the transcript marked as tampered,
immediately followed by the delivered copy. PRIVATE messages are ideal:
never observed, never modified, and no adversary annotation may ever
reference one.

Adversarial principals each carry exactly one behaviour class:

    WRONG_PASSWORD      registers with a corrupted password, so the
                        digest it later presents cannot match the store
    FORGED_PRIVATE_KEY  discards its issued private key and fabricates
                        a random one, corrupting its access query
    TAMPER_VALIDATION   flips a byte of its own validation pair before
                        sending (it does not hold the genuine secrets)
    TAMPER_CIPHERTEXT   has its data share flipped on the public channel
    REPLAY_QUERY        registers nothing; re-injects an access query it
                        observed on the public channel
    NONE                genuine principal, no interference

The first three corrupt the adversary's own emissions (a principal that
lacks a secret cannot send the right value); the last two act on the
public channel. Private channels stay inviolable either way.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from enum import Enum
from pathlib import Path
from typing import Mapping, Sequence

from .primitives import Rng, to_int
from .wire import (
    ACCEPTED,
    KIND_ACCESS_QUERY,
    KIND_DATA_SHARE,
    OUTCOME_STATUSES,
    PRIVATE,
    PUBLIC,
    Message,
    Transcript,
)

#: key lengths the benchmarks sweep, in bits
KEY_LENGTH_BITS = (64, 128, 256, 512)

GENUINE_LABEL = "genuine"


class ConfigError(ValueError):
    """A scenario or command configuration is invalid."""


class AdversaryClass(Enum):
    NONE = "NONE"
    WRONG_PASSWORD = "WRONG_PASSWORD"
    FORGED_PRIVATE_KEY = "FORGED_PRIVATE_KEY"
    TAMPER_VALIDATION = "TAMPER_VALIDATION"
    TAMPER_CIPHERTEXT = "TAMPER_CIPHERTEXT"
    REPLAY_QUERY = "REPLAY_QUERY"

    @classmethod
    def parse(cls, token: str) -> "AdversaryClass":
        try:
            return cls[token.strip().upper()]
        except KeyError:
            raise ConfigError(f"unknown adversary class {token!r}") from None


@dataclass(frozen=True)
class AdversarySpec:
    """One adversary class with a principal count and a flip budget."""

    cls: AdversaryClass
    count: int
    flips: int = 1


@dataclass(frozen=True)
class ScenarioConfig:
    """Population, dataset, and width for one protocol run.

    ``dataset`` is a variant name or file path resolved by the caller;
    ``max_records`` optionally truncates the payload set, which keeps
    large trial batteries fast.
    """

    n_genuine: int
    adversaries: tuple[AdversarySpec, ...]
    dataset: str
    key_length_bits: int
    seed: int
    max_records: int | None = None

    _JSON_KEYS = frozenset(
        {"n_genuine", "adversaries", "dataset", "key_length_bits", "seed", "max_records"}
    )

    def __post_init__(self) -> None:
        if self.n_genuine < 0:
            raise ConfigError(f"n_genuine must be >= 0, got {self.n_genuine}")
        if self.key_length_bits not in KEY_LENGTH_BITS:
            raise ConfigError(
                f"key_length_bits must be one of {KEY_LENGTH_BITS}, got {self.key_length_bits}"
            )
        if not 0 <= self.seed <= Rng.SEED_MASK:
            raise ConfigError(f"seed must fit in 64 unsigned bits, got {self.seed}")
        if not self.dataset:
            raise ConfigError("dataset must be a non-empty name or path")
        if self.max_records is not None and self.max_records < 1:
            raise ConfigError(f"max_records must be >= 1, got {self.max_records}")
        for spec in self.adversaries:
            if spec.cls is AdversaryClass.NONE:
                raise ConfigError("NONE is not an adversary entry; raise n_genuine instead")
            if spec.count < 0:
                raise ConfigError(f"adversary count must be >= 0, got {spec.count}")
            if spec.flips < 1:
                raise ConfigError(f"flips must be >= 1, got {spec.flips}")
        replaying = sum(
            s.count for s in self.adversaries if s.cls is AdversaryClass.REPLAY_QUERY
        )
        if replaying and self.n_genuine < 1:
            raise ConfigError("REPLAY_QUERY adversaries need at least one genuine user to observe")

    @property
    def width(self) -> int:
        return self.key_length_bits // 8

    @classmethod
    def from_json(cls, doc: Mapping) -> "ScenarioConfig":
        if not isinstance(doc, Mapping):
            raise ConfigError("scenario document must be a JSON object")
        unknown = set(doc) - cls._JSON_KEYS
        if unknown:
            raise ConfigError(f"unknown scenario keys: {sorted(unknown)}")
        missing = {"n_genuine", "adversaries", "dataset", "key_length_bits", "seed"} - set(doc)
        if missing:
            raise ConfigError(f"missing scenario keys: {sorted(missing)}")
        adversaries = []
        entries = doc["adversaries"]
        if not isinstance(entries, Sequence) or isinstance(entries, (str, bytes)):
            raise ConfigError("adversaries must be a list of {class, count} objects")
        for entry in entries:
            if not isinstance(entry, Mapping) or not {"class", "count"} <= set(entry):
                raise ConfigError("each adversary entry needs 'class' and 'count'")
            extra = set(entry) - {"class", "count", "flips"}
            if extra:
                raise ConfigError(f"unknown adversary keys: {sorted(extra)}")
            adversaries.append(
                AdversarySpec(
                    cls=AdversaryClass.parse(str(entry["class"])),
                    count=_as_int(entry["count"], "count"),
                    flips=_as_int(entry.get("flips", 1), "flips"),
                )
            )
        return cls(
            n_genuine=_as_int(doc["n_genuine"], "n_genuine"),
            adversaries=tuple(adversaries),
            dataset=str(doc["dataset"]),
            key_length_bits=_as_int(doc["key_length_bits"], "key_length_bits"),
            seed=_as_int(doc["seed"], "seed"),
            max_records=(
                None if doc.get("max_records") is None else _as_int(doc["max_records"], "max_records")
            ),
        )

    @classmethod
    def from_file(cls, path: str | Path) -> "ScenarioConfig":
        text = Path(path).read_text(encoding="utf-8")
        try:
            doc = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"malformed scenario JSON in {path}: {exc}") from exc
        return cls.from_json(doc)


def _as_int(value, label: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"{label} must be an integer, got {value!r}")
    return value


def principal_roster(config: ScenarioConfig) -> list[tuple[str, AdversaryClass, int]]:
    """Deterministic (name, class, flips) list for a scenario.

    Genuine users come first, then adversaries grouped in configuration
    order. Names are fixed-format so closed-form accounting can predict
    their byte lengths.
    """
    roster = [(f"user-{i:03d}", AdversaryClass.NONE, 1) for i in range(config.n_genuine)]
    for spec in config.adversaries:
        token = spec.cls.name.lower()
        for j in range(spec.count):
            roster.append((f"adv-{token}-{j:03d}", spec.cls, spec.flips))
    return roster


def _flip_into(fields: dict, name: str, rng: Rng, span: int | None, flips: int) -> list[dict]:
    """Flip ``flips`` bytes of ``fields[name]`` in place, within ``span``.

    Every flip XORs a nonzero value, so each chosen byte is guaranteed
    to change. Returns deterministic notes for the annotation.
    """
    data = bytearray(fields[name])
    limit = len(data) if span is None else min(span, len(data))
    notes = []
    for _ in range(flips):
        idx = to_int(rng.take(4)) % limit
        delta = (rng.take(1)[0] % 255) + 1
        data[idx] ^= delta
        notes.append({"field": name, "byte_index": idx, "xor": delta})
    fields[name] = bytes(data)
    return notes


def apply_adversary(
    cls: AdversaryClass,
    fields: dict[str, bytes],
    rng: Rng,
    *,
    width: int | None = None,
    flips: int = 1,
) -> tuple[dict[str, bytes], dict | None]:
    """Adversarially modified copy of ``fields`` and its annotation.

    The input dict is never mutated; the annotation describes what
    happened. The caller decides where to invoke this (at emission for
    the self-corrupting classes, in flight for ciphertext tampering).
    A replay acts on a whole observed message, so it is not handled here.
    """
    if cls is AdversaryClass.NONE:
        return fields, None
    fields = dict(fields)
    if cls is AdversaryClass.WRONG_PASSWORD:
        notes = _flip_into(fields, "password", rng, None, flips)
        return fields, {"adversary": cls.name, "flips": notes}
    if cls is AdversaryClass.FORGED_PRIVATE_KEY:
        if width is None:
            raise ValueError("FORGED_PRIVATE_KEY needs the key width")
        fields["private_key"] = rng.take(width)
        return fields, {
            "adversary": cls.name,
            "note": "issued key discarded, random key fabricated",
        }
    if cls is AdversaryClass.TAMPER_VALIDATION:
        notes = []
        for _ in range(flips):
            # the flip lands anywhere across the concatenated pair
            v1_len = len(fields["v1"])
            joint = to_int(rng.take(4)) % (v1_len + len(fields["v2"]))
            target = "v1" if joint < v1_len else "v2"
            local = joint if joint < v1_len else joint - v1_len
            data = bytearray(fields[target])
            delta = (rng.take(1)[0] % 255) + 1
            data[local] ^= delta
            fields[target] = bytes(data)
            notes.append({"field": target, "byte_index": local, "xor": delta})
        return fields, {"adversary": cls.name, "flips": notes}
    if cls is AdversaryClass.TAMPER_CIPHERTEXT:
        if width is None:
            raise ValueError("TAMPER_CIPHERTEXT needs the key width")
        # the trailing frame holds the stripped owner key, which is not
        # integrity-bound; the adversary aims at the data-bearing prefix
        span = max(1, len(fields["wrapped"]) - (width + 4))
        notes = _flip_into(fields, "wrapped", rng, span, flips)
        return fields, {"adversary": cls.name, "flips": notes}
    raise ConfigError(f"unhandled adversary class {cls}")


class Network:
    """Immediate delivery over PUBLIC and PRIVATE channels into a transcript.

    ``transmit`` records a message the moment it is sent and returns it
    as delivered; nothing is ever queued. PRIVATE messages are recorded
    exactly as sent. On PUBLIC, an access query is marked as observed
    by every replaying outsider, and a data share bound for a
    ciphertext tamperer records two lines: the original marked as
    tampered, then the flipped copy that is delivered.
    """

    def __init__(
        self,
        transcript: Transcript,
        rng: Rng,
        adversaries: Mapping[str, tuple[AdversaryClass, int]] | None = None,
        width: int | None = None,
    ) -> None:
        self.transcript = transcript
        self.rng = rng
        self.width = width
        adversaries = adversaries or {}
        self.replayers = [
            name for name, (cls, _) in adversaries.items() if cls is AdversaryClass.REPLAY_QUERY
        ]
        #: flip budget of each ciphertext tamperer, by name
        self.tamperers = {
            name: flips
            for name, (cls, flips) in adversaries.items()
            if cls is AdversaryClass.TAMPER_CIPHERTEXT
        }
        self.observed_queries: list[Message] = []

    def transmit(
        self,
        stage: str,
        sender: str,
        recipient: str,
        channel: str,
        kind: str,
        fields: dict[str, bytes],
        annotation: dict | None = None,
    ) -> Message:
        append = self.transcript.append
        if channel == PRIVATE:
            # ideal channel: recorded exactly as sent, never touched
            return append(stage, sender, recipient, channel, kind, fields, annotation)
        if channel != PUBLIC:
            raise ValueError(f"channel must be PUBLIC or PRIVATE, got {channel!r}")
        if kind == KIND_ACCESS_QUERY and annotation is None and self.replayers:
            message = append(
                stage, sender, recipient, channel, kind, fields, {"observed_by": self.replayers}
            )
            self.observed_queries.append(message)
            return message
        flips = self.tamperers.get(recipient)
        if kind == KIND_DATA_SHARE and flips is not None:
            marked = {**(annotation or {}), "tampered_in_flight": True}
            original = append(stage, sender, recipient, channel, kind, fields, marked)
            fields, note = apply_adversary(
                AdversaryClass.TAMPER_CIPHERTEXT, fields, self.rng, width=self.width, flips=flips
            )
            note["tampered_copy_of_step"] = original.step
            return append(stage, sender, recipient, channel, kind, fields, note)
        return append(stage, sender, recipient, channel, kind, fields, annotation)


@dataclass
class OutcomeSummary:
    """Outcome counts per principal class for one scenario run."""

    per_class: dict[str, dict[str, int]]
    genuine_total: int
    genuine_complete: int

    def format_lines(self) -> list[str]:
        lines = []
        for label, counts in self.per_class.items():
            total = sum(counts.values())
            parts = [f"{status} {counts[status]}/{total}" for status in OUTCOME_STATUSES if counts[status]]
            lines.append(f"{label}: " + (", ".join(parts) if parts else "0 principals"))
        if self.genuine_total:
            rate = self.genuine_complete / self.genuine_total
            lines.append(
                f"genuine detection rate: {rate:.4f} ({self.genuine_complete}/{self.genuine_total})"
            )
        return lines


def summarize(transcript: Transcript, config: ScenarioConfig) -> OutcomeSummary:
    """Partition per-principal outcomes by adversary class."""
    per_class: dict[str, dict[str, int]] = {}
    for name, cls, _ in principal_roster(config):
        label = GENUINE_LABEL if cls is AdversaryClass.NONE else cls.name
        bucket = per_class.setdefault(label, {status: 0 for status in OUTCOME_STATUSES})
        outcome = transcript.outcomes[name]
        if outcome.status not in bucket:
            raise ValueError(f"unknown outcome status {outcome.status!r} for {name}")
        bucket[outcome.status] += 1
    complete = per_class.get(GENUINE_LABEL, {}).get(ACCEPTED, 0)
    return OutcomeSummary(
        per_class=per_class,
        genuine_total=config.n_genuine,
        genuine_complete=complete,
    )


def run_scenario(
    config: ScenarioConfig,
    *,
    data_dir: str | Path = "data",
    payloads: Sequence[bytes] | None = None,
):
    """Load payloads, run the protocol, and aggregate outcomes.

    Returns ``(transcript, summary)``. ``payloads`` overrides dataset
    loading when the caller already holds serialized records.
    """
    if payloads is None:
        from .dataset import load_dataset, record_to_payload, resolve_dataset

        name, path = resolve_dataset(config.dataset, data_dir)
        records = load_dataset(path, variant=name)
        if config.max_records is not None:
            records = records[: config.max_records]
        payloads = [record_to_payload(record) for record in records]
    from .entities import run_protocol  # late import; entities builds on this module

    transcript = run_protocol(config, payloads)
    return transcript, summarize(transcript, config)
