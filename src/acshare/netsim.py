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
    TAMPER_VALIDATION   computes its validation pair from its own
                        granted session key; the pair is flipped as sent
    TAMPER_CIPHERTEXT   has its data share flipped on the public channel
    REPLAY_QUERY        registers nothing; re-injects an access query it
                        observed on the public channel
    NONE                genuine principal, no interference

The table ``CORRUPTS`` is the one place a class is tied to the message
kind and the fields it corrupts; ``Network`` reads it once, into its
table of the principals whose messages of that kind it alters. On PRIVATE,
the adversarial end's value is recorded as sent: what it emits, or what
it holds. On PUBLIC, the message is tampered in flight: the original
line stays in the transcript marked as tampered, immediately followed
by the delivered copy. A replay resends the first observed access
query whole, so it is not in the table.

``run_scenario(config, payloads)`` runs the protocol and summarises it;
``summarize`` reads the run's own principals, ``transcript.world.users``.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass
from enum import Enum
from pathlib import Path
from typing import Mapping, Sequence

from .dataset import load_dataset, record_to_payload
from .primitives import Rng
from .wire import (
    ACCEPTED,
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
MAX_PRINCIPALS = 10_000  # the roster is built whole, before any stage runs

GENUINE_LABEL = "genuine"


class ConfigError(ValueError):
    """A scenario or command configuration is invalid."""


def _as_int(value, label: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"{label} must be an integer, got {value!r}")
    return value


class AdversaryClass(Enum):
    NONE = "NONE"
    WRONG_PASSWORD = "WRONG_PASSWORD"
    FORGED_PRIVATE_KEY = "FORGED_PRIVATE_KEY"
    TAMPER_VALIDATION = "TAMPER_VALIDATION"
    TAMPER_CIPHERTEXT = "TAMPER_CIPHERTEXT"
    REPLAY_QUERY = "REPLAY_QUERY"

    @classmethod
    def parse(cls, token: str) -> "AdversaryClass":
        if not isinstance(token, str):  # a scenario file can hold any JSON value
            raise ConfigError(f"adversary class must be a string, got {token!r}")
        try:
            return cls[token.strip().upper()]
        except KeyError:
            raise ConfigError(f"unknown adversary class {token!r}") from None


#: (kind, fields) per corrupting class: the one message kind it alters,
#: sent from or to the adversarial principal, and the fields it alters
CORRUPTS = {
    AdversaryClass.WRONG_PASSWORD: (KIND_REGISTER, ("password",)),
    # the principal throws the issued key away on receipt and keeps a
    # fabricated one; the transcript line shows what it holds
    AdversaryClass.FORGED_PRIVATE_KEY: (KIND_KEY_ISSUE, ("private_key",)),
    AdversaryClass.TAMPER_VALIDATION: (KIND_VALIDATE, ("v1", "v2")),
    AdversaryClass.TAMPER_CIPHERTEXT: (KIND_DATA_SHARE, ("wrapped",)),
}


@dataclass(frozen=True)
class AdversarySpec:
    """One adversary class with a principal count and a flip budget."""

    cls: AdversaryClass
    count: int
    flips: int = 1

    def __post_init__(self) -> None:
        if self.cls is AdversaryClass.NONE:
            raise ConfigError("NONE is not an adversary entry; raise n_genuine instead")
        if _as_int(self.count, "count") < 0:
            raise ConfigError(f"adversary count must be >= 0, got {self.count}")
        if not 1 <= _as_int(self.flips, "flips") <= MAX_FLIPS:
            raise ConfigError(f"flips must be in 1..{MAX_FLIPS}, got {self.flips}")


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
        if _as_int(self.n_genuine, "n_genuine") < 0:
            raise ConfigError(f"n_genuine must be >= 0, got {self.n_genuine}")
        if _as_int(self.key_length_bits, "key_length_bits") not in KEY_LENGTH_BITS:
            raise ConfigError(
                f"key_length_bits must be one of {KEY_LENGTH_BITS}, got {self.key_length_bits}"
            )
        if not 0 <= _as_int(self.seed, "seed") <= Rng.SEED_MASK:
            raise ConfigError(f"seed must fit in 64 unsigned bits, got {self.seed}")
        if not isinstance(self.dataset, str) or not self.dataset or "\0" in self.dataset:
            raise ConfigError(f"dataset must be a non-empty name or path, got {self.dataset!r}")
        if self.max_records is not None and _as_int(self.max_records, "max_records") < 1:
            raise ConfigError(f"max_records must be >= 1, got {self.max_records}")
        population = self.n_genuine + sum(spec.count for spec in self.adversaries)
        if population > MAX_PRINCIPALS:
            raise ConfigError(f"at most {MAX_PRINCIPALS} principals, got {population}")
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
            kind = AdversaryClass.parse(entry["class"])
            adversaries.append(AdversarySpec(kind, entry["count"], entry.get("flips", 1)))
        return cls(**{**doc, "adversaries": tuple(adversaries)})

    @classmethod
    def from_file(cls, path: str | Path) -> "ScenarioConfig":
        try:
            doc = json.loads(Path(path).read_text(encoding="utf-8"))
        except (ValueError, RecursionError) as exc:  # bad UTF-8, bad JSON, oversized ints
            raise ConfigError(f"malformed scenario JSON in {path}: {exc}") from exc
        return cls.from_json(doc)


def principal_roster(config: ScenarioConfig) -> list[tuple[str, AdversaryClass, int]]:
    """Deterministic (name, class, flips) list for a scenario.

    Genuine users come first, then adversaries grouped in configuration
    order. Names are fixed-format so closed-form accounting can predict
    their byte lengths. A class listed twice numbers on, so names are distinct.
    """
    roster = [(f"user-{i:03d}", AdversaryClass.NONE, 1) for i in range(config.n_genuine)]
    numbered = dict.fromkeys(AdversaryClass, 0)  # principals of each class so far
    for spec in config.adversaries:
        token = spec.cls.name.lower()
        first = numbered[spec.cls]
        numbered[spec.cls] += spec.count
        for j in range(first, first + spec.count):
            roster.append((f"adv-{token}-{j:03d}", spec.cls, spec.flips))
    return roster


def apply_adversary(
    cls: AdversaryClass,
    fields: dict[str, bytes],
    rng: Rng,
    *,
    width: int,
    flips: int = 1,
) -> tuple[dict[str, bytes], dict | None]:
    """Adversarially modified copy of ``fields`` and its annotation.

    The input dict is never mutated, and the copy keeps its key order.
    Its only caller is ``Network.transmit``, on the kind ``CORRUPTS``
    names for ``cls``, just before the altered line is recorded; the
    row's fields are the ones altered. A replay acts on a whole observed
    message, so it is not handled here.

    A flipping class flips ``flips`` bytes of the named fields, read as
    one string in the order named, so a flip lands anywhere across them.
    A byte's delta is redrawn while it equals the XOR already applied to
    that byte, so no chosen byte ever returns to its original value.
    Each flip leaves a deterministic note naming the field and the index
    within it.
    """
    _, names = CORRUPTS[cls]
    if cls is AdversaryClass.FORGED_PRIVATE_KEY:
        changed = {name: rng.take(width) for name in names}
        note = {"adversary": cls.name, "note": "issued key discarded, random key fabricated"}
        return {**fields, **changed}, note
    data = {name: bytearray(fields[name]) for name in names}
    limit = total = sum(len(buffer) for buffer in data.values())
    if cls is AdversaryClass.TAMPER_CIPHERTEXT:
        # the trailing frame holds the stripped owner key, which is not
        # integrity-bound; the adversary aims at the data-bearing prefix
        limit = max(1, total - (width + 4))
    applied: dict[int, int] = {}  # running XOR of each flipped position
    notes = []
    for _ in range(flips):
        idx = int.from_bytes(rng.take(4), "big") % limit
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
    changed = {name: bytes(buffer) for name, buffer in data.items()}
    return {**fields, **changed}, {"adversary": cls.name, "flips": notes}


class Network:
    """Immediate delivery over PUBLIC and PRIVATE channels into its own transcript.

    ``transmit`` records each message as sent and returns it as
    delivered; nothing is ever queued. The table ``corrupting``, built
    once, maps each principal whose class has a ``CORRUPTS`` row to
    ``(kind, cls, flips)``; only its messages of that kind are altered,
    as the module describes. Honest messages go straight to ``append``.
    """

    def __init__(
        self, rng: Rng, adversaries: Mapping[str, tuple[AdversaryClass, int]], width: int
    ) -> None:
        self.transcript = Transcript()
        self.rng = rng
        self.width = width
        self.corrupting = {
            name: (CORRUPTS[cls][0], cls, flips)
            for name, (cls, flips) in adversaries.items() if cls in CORRUPTS
        }
        self.replayers = [
            name for name, (cls, _) in adversaries.items() if cls is AdversaryClass.REPLAY_QUERY
        ]
        # the annotation of every access query, which the replayers observe
        self.observed_note = {"observed_by": self.replayers} if self.replayers else None
        self.observed_query: Message | None = None  # the one a replay resends

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
        # at most one end is adversarial: a principal only talks to the cloud or the kgc
        table = self.corrupting
        if (hit := table and (table.get(sender) or table.get(recipient))) and hit[0] == kind:
            _, cls, flips = hit
            if channel == PUBLIC:
                marked = {**(annotation or {}), "tampered_in_flight": True}
                original = self.transcript.append(stage, sender, recipient, channel, kind, fields, marked)
            fields, annotation = apply_adversary(cls, fields, self.rng, width=self.width, flips=flips)
            if channel == PUBLIC:
                annotation["tampered_copy_of_step"] = original.step
        return self.transcript.append(stage, sender, recipient, channel, kind, fields, annotation)


@dataclass
class OutcomeSummary:
    """Outcome counts per principal class for one scenario run."""

    per_class: dict[str, dict[str, int]]

    @property
    def genuine_total(self) -> int:
        return sum(self.per_class.get(GENUINE_LABEL, {}).values())

    @property
    def genuine_complete(self) -> int:
        return self.per_class.get(GENUINE_LABEL, {}).get(ACCEPTED, 0)

    @property
    def genuine_rate(self) -> float:
        """Fraction of genuine principals that completed all six stages."""
        return self.genuine_complete / self.genuine_total

    def format_lines(self) -> list[str]:
        lines = []
        for label, counts in self.per_class.items():
            total = sum(counts.values())
            parts = [f"{status} {counts[status]}/{total}" for status in OUTCOME_STATUSES if counts[status]]
            lines.append(f"{label}: " + ", ".join(parts))
        if self.genuine_total:
            lines.append(
                f"genuine detection rate: {self.genuine_rate:.4f} "
                f"({self.genuine_complete}/{self.genuine_total})"
            )
        return lines


def summarize(transcript: Transcript) -> OutcomeSummary:
    """Partition outcomes by adversary class over the run's own principals, in roster order."""
    per_class: dict[str, dict[str, int]] = {}
    for user in transcript.world.users:
        label = GENUINE_LABEL if user.adversary is AdversaryClass.NONE else user.adversary.name
        bucket = per_class.setdefault(label, {status: 0 for status in OUTCOME_STATUSES})
        bucket[transcript.outcomes[user.name].status] += 1
    return OutcomeSummary(per_class)


def load_payloads(name: str, path: str | Path, max_records: int | None) -> list[bytes]:
    """Serialized records of one dataset file, truncated to ``max_records``.

    A dataset with no records is a configuration error: every genuine
    principal would complete the sharing stage with nothing shared.
    """
    records = load_dataset(path, variant=name)[:max_records]
    if not records:
        raise ConfigError(f"dataset {name} at {path} has no records")
    return [record_to_payload(record) for record in records]


def run_scenario(config: ScenarioConfig, payloads: Sequence[bytes]):
    """Run the protocol over ``payloads`` and summarise it: ``(transcript, summary)``."""
    from .entities import run_protocol  # late import; entities builds on this module

    transcript = run_protocol(config, payloads)
    return transcript, summarize(transcript)
