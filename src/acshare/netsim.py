"""Network delivery, adversaries, and scenario configuration.

The network model is deliberately small: every message is delivered,
and recorded, the moment it is sent, on a PUBLIC or a PRIVATE channel.
PUBLIC messages can be observed by eavesdroppers; PRIVATE messages are
never observed, and no annotation on another line references one.

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

The table ``CORRUPTS`` is the one place a class is tied to the message
kind it corrupts, and ``Network.transmit`` applies it to every message
sent from or to an adversarial principal. On PRIVATE, the adversarial
end's value is recorded as sent: what it emits, or what it holds. On
PUBLIC, the message is tampered in flight: the original line stays in
the transcript marked as tampered, immediately followed by the
delivered copy. A replay resends a whole observed message, so it is
not in the table.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass
from enum import Enum
from pathlib import Path
from typing import Mapping, Sequence

from .dataset import load_dataset, record_to_payload, resolve_dataset
from .primitives import Rng, to_int
from .wire import (
    ACCEPTED,
    KIND_ACCESS_QUERY,
    KIND_DATA_SHARE,
    KIND_KEY_ISSUE,
    KIND_REGISTER,
    KIND_VALIDATE,
    OUTCOME_STATUSES,
    PRIVATE,
    PUBLIC,
    Message,
    Transcript,
)

#: key lengths the benchmarks sweep, in bits
KEY_LENGTH_BITS = (64, 128, 256, 512)

MAX_FLIPS = 64  # each flip adds a note to its line's annotation

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


#: the one message kind each corrupting class alters, sent from or to
#: the adversarial principal
CORRUPTS = {
    AdversaryClass.WRONG_PASSWORD: KIND_REGISTER,
    # the principal throws the issued key away on receipt and keeps a
    # fabricated one; the transcript line shows what it holds
    AdversaryClass.FORGED_PRIVATE_KEY: KIND_KEY_ISSUE,
    AdversaryClass.TAMPER_VALIDATION: KIND_VALIDATE,
    AdversaryClass.TAMPER_CIPHERTEXT: KIND_DATA_SHARE,
}


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

    def __post_init__(self) -> None:
        if self.n_genuine < 0:
            raise ConfigError(f"n_genuine must be >= 0, got {self.n_genuine}")
        if self.key_length_bits not in KEY_LENGTH_BITS:
            raise ConfigError(
                f"key_length_bits must be one of {KEY_LENGTH_BITS}, got {self.key_length_bits}"
            )
        if not 0 <= self.seed <= Rng.SEED_MASK:
            raise ConfigError(f"seed must fit in 64 unsigned bits, got {self.seed}")
        if not isinstance(self.dataset, str) or not self.dataset or "\0" in self.dataset:
            raise ConfigError(f"dataset must be a non-empty name or path, got {self.dataset!r}")
        if self.max_records is not None and self.max_records < 1:
            raise ConfigError(f"max_records must be >= 1, got {self.max_records}")
        for spec in self.adversaries:
            if spec.cls is AdversaryClass.NONE:
                raise ConfigError("NONE is not an adversary entry; raise n_genuine instead")
            if spec.count < 0:
                raise ConfigError(f"adversary count must be >= 0, got {spec.count}")
            if not 1 <= spec.flips <= MAX_FLIPS:
                raise ConfigError(f"flips must be in 1..{MAX_FLIPS}, got {spec.flips}")
        replaying = any(s.count for s in self.adversaries if s.cls is AdversaryClass.REPLAY_QUERY)
        if replaying and self.n_genuine < 1:
            raise ConfigError("REPLAY_QUERY adversaries need at least one genuine user to observe")

    @property
    def width(self) -> int:
        return self.key_length_bits // 8

    @classmethod
    def from_json(cls, doc: Mapping) -> "ScenarioConfig":
        if not isinstance(doc, Mapping):
            raise ConfigError("scenario document must be a JSON object")
        schema = dataclasses.fields(cls)
        unknown = set(doc) - {f.name for f in schema}
        if unknown:
            raise ConfigError(f"unknown scenario keys: {sorted(unknown)}")
        missing = {f.name for f in schema if f.default is dataclasses.MISSING} - set(doc)
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
            dataset=doc["dataset"],
            key_length_bits=_as_int(doc["key_length_bits"], "key_length_bits"),
            seed=_as_int(doc["seed"], "seed"),
            max_records=(
                None if doc.get("max_records") is None else _as_int(doc["max_records"], "max_records")
            ),
        )

    @classmethod
    def from_file(cls, path: str | Path) -> "ScenarioConfig":
        try:
            doc = json.loads(Path(path).read_text(encoding="utf-8"))
        except (ValueError, RecursionError) as exc:  # bad UTF-8, bad JSON, oversized ints
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
    their byte lengths. A class listed twice numbers on, so names are distinct.
    """
    roster = [(f"user-{i:03d}", AdversaryClass.NONE, 1) for i in range(config.n_genuine)]
    for i, spec in enumerate(config.adversaries):
        token = spec.cls.name.lower()
        first = sum(earlier.count for earlier in config.adversaries[:i] if earlier.cls is spec.cls)
        for j in range(first, first + spec.count):
            roster.append((f"adv-{token}-{j:03d}", spec.cls, spec.flips))
    return roster


def _flip_into(
    fields: dict, names: tuple[str, ...], rng: Rng, span: int | None, flips: int
) -> list[dict]:
    """Flip ``flips`` bytes of the named fields in place, within ``span``.

    The fields are read as one string, in the order named, so a flip
    lands anywhere across them; ``span`` bounds it to a prefix of that
    string. A byte's delta is redrawn while it equals the XOR already
    applied to that byte, so no chosen byte ever returns to its original
    value. Returns deterministic notes, each naming the field and the
    index within it, for the annotation.
    """
    data = {name: bytearray(fields[name]) for name in names}
    total = sum(len(buffer) for buffer in data.values())
    limit = total if span is None else min(span, total)
    applied: dict[int, int] = {}  # running XOR of each flipped position
    notes = []
    for _ in range(flips):
        idx = to_int(rng.take(4)) % limit
        delta = (rng.take(1)[0] % 255) + 1
        while delta == applied.get(idx, 0):
            delta = (rng.take(1)[0] % 255) + 1
        applied[idx] = applied.get(idx, 0) ^ delta
        for name, buffer in data.items():
            if idx < len(buffer):
                break
            idx -= len(buffer)
        buffer[idx] ^= delta
        notes.append({"field": name, "byte_index": idx, "xor": delta})
    fields.update((name, bytes(buffer)) for name, buffer in data.items())
    return notes


def apply_adversary(
    cls: AdversaryClass,
    fields: dict[str, bytes],
    rng: Rng,
    *,
    width: int,
    flips: int = 1,
) -> tuple[dict[str, bytes], dict | None]:
    """Adversarially modified copy of ``fields`` and its annotation.

    The input dict is never mutated; the annotation describes what
    happened. Its only caller is ``Network.transmit``, on the kind
    ``CORRUPTS`` names for ``cls``, just before the altered line is
    recorded. A replay acts on a whole observed message, so it is not
    handled here.
    """
    if cls is AdversaryClass.NONE:
        return fields, None
    fields = dict(fields)
    if cls is AdversaryClass.WRONG_PASSWORD:
        notes = _flip_into(fields, ("password",), rng, None, flips)
        return fields, {"adversary": cls.name, "flips": notes}
    if cls is AdversaryClass.FORGED_PRIVATE_KEY:
        fields["private_key"] = rng.take(width)
        return fields, {
            "adversary": cls.name,
            "note": "issued key discarded, random key fabricated",
        }
    if cls is AdversaryClass.TAMPER_VALIDATION:
        notes = _flip_into(fields, ("v1", "v2"), rng, None, flips)
        return fields, {"adversary": cls.name, "flips": notes}
    if cls is AdversaryClass.TAMPER_CIPHERTEXT:
        # the trailing frame holds the stripped owner key, which is not
        # integrity-bound; the adversary aims at the data-bearing prefix
        span = max(1, len(fields["wrapped"]) - (width + 4))
        notes = _flip_into(fields, ("wrapped",), rng, span, flips)
        return fields, {"adversary": cls.name, "flips": notes}
    raise ConfigError(f"unhandled adversary class {cls}")


class Network:
    """Immediate delivery over PUBLIC and PRIVATE channels into a transcript.

    ``transmit`` records a message the moment it is sent and returns it
    as delivered; nothing is ever queued. ``adversaries`` maps each
    adversarial principal to its class and flip budget, and ``transmit``
    applies ``CORRUPTS`` to every message: on PRIVATE it records the
    adversarial end's value as sent; on PUBLIC it records the original,
    marked as tampered in flight, then the altered copy that is
    delivered. An access query on PUBLIC is marked as observed by every
    replaying outsider.
    """

    def __init__(
        self,
        transcript: Transcript,
        rng: Rng,
        adversaries: Mapping[str, tuple[AdversaryClass, int]],
        width: int,
    ) -> None:
        self.transcript = transcript
        self.rng = rng
        self.width = width
        self.adversaries = adversaries
        self.replayers = [
            name for name, (cls, _) in adversaries.items() if cls is AdversaryClass.REPLAY_QUERY
        ]
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
        if channel != PUBLIC and channel != PRIVATE:
            raise ValueError(f"channel must be PUBLIC or PRIVATE, got {channel!r}")
        append = self.transcript.append
        # a principal only ever talks to the cloud or the kgc, so at
        # most one end of a message is adversarial
        cls, flips = self.adversaries.get(sender) or self.adversaries.get(recipient) or (None, 0)
        if CORRUPTS.get(cls) == kind:
            if channel == PUBLIC:
                marked = {**(annotation or {}), "tampered_in_flight": True}
                original = append(stage, sender, recipient, channel, kind, fields, marked)
            fields, annotation = apply_adversary(cls, fields, self.rng, width=self.width, flips=flips)
            if channel == PUBLIC:
                annotation["tampered_copy_of_step"] = original.step
        elif channel == PUBLIC and kind == KIND_ACCESS_QUERY and annotation is None and self.replayers:
            message = append(
                stage, sender, recipient, channel, kind, fields, {"observed_by": self.replayers}
            )
            self.observed_queries.append(message)
            return message
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


def load_payloads(name: str, path: str | Path, max_records: int | None) -> list[bytes]:
    """Serialized records of one dataset file, truncated to ``max_records``.

    A dataset with no records is a configuration error: every genuine
    principal would complete the sharing stage with nothing shared.
    """
    records = load_dataset(path, variant=name)[:max_records]
    if not records:
        raise ConfigError(f"dataset {name} at {path} has no records")
    return [record_to_payload(record) for record in records]


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
        name, path = resolve_dataset(config.dataset, data_dir)
        payloads = load_payloads(name, path, config.max_records)
    from .entities import run_protocol  # late import; entities builds on this module

    transcript = run_protocol(config, payloads)
    return transcript, summarize(transcript, config)
