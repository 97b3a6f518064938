"""Wire format: channels, message kinds, messages, outcomes, transcripts.

Every transmission of a run is one :class:`Message` in a
:class:`Transcript`, and ``Transcript.append`` is the only place a
message is built: it numbers the message by its position, so a step is
fixed once and never copied. The JSON-lines form of a transcript is the
byte-level record of a run; one seed always reproduces one byte stream.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from pathlib import Path

PUBLIC = "PUBLIC"
PRIVATE = "PRIVATE"

# message kinds
KIND_PROVISION = "PROVISION"
KIND_REGISTER = "REGISTER"
KIND_REGISTER_DIGEST = "REGISTER_DIGEST"
KIND_REGISTER_ACCEPTED = "REGISTER_ACCEPTED"
KIND_REGISTER_REJECTED = "REGISTER_REJECTED"
KIND_KEY_ISSUE = "KEY_ISSUE"
KIND_KEY_STORE = "KEY_STORE"
KIND_CIPHER_UPLOAD = "CIPHER_UPLOAD"
KIND_ACCESS_QUERY = "ACCESS_QUERY"
KIND_ACCESS_ACCEPTED = "ACCESS_ACCEPTED"
KIND_ACCESS_REJECTED = "ACCESS_REJECTED"
KIND_SESSION_REQUEST = "SESSION_REQUEST"
KIND_SESSION_KEY = "SESSION_KEY"
KIND_SESSION_STORE = "SESSION_STORE"
KIND_VALIDATE = "VALIDATE"
KIND_VALIDATE_ACCEPTED = "VALIDATE_ACCEPTED"
KIND_VALIDATE_REJECTED = "VALIDATE_REJECTED"
KIND_DATA_REQUEST = "DATA_REQUEST"
KIND_DATA_SHARE = "DATA_SHARE"

# per-principal outcome statuses
ACCEPTED = "ACCEPTED"
REJECTED = "REJECTED"
INTEGRITY_FAILURE = "INTEGRITY_FAILURE"
OUTCOME_STATUSES = (ACCEPTED, REJECTED, INTEGRITY_FAILURE)


@dataclass(frozen=True)
class Message:
    """One transmission, exactly as it crossed its channel.

    ``step`` is the message's 1-based position in its transcript.
    ``fields`` maps field names to raw byte values; the JSON form
    renders them as lowercase hex.
    """

    step: int
    stage: str
    sender: str
    recipient: str
    channel: str
    kind: str
    fields: dict[str, bytes]
    annotation: dict | None = None

    def to_json(self) -> str:
        doc = {
            "step": self.step,
            "phase": self.stage,
            "from": self.sender,
            "to": self.recipient,
            "channel": self.channel,
            "kind": self.kind,
            "fields": {name: value.hex() for name, value in self.fields.items()},
        }
        if self.annotation is not None:
            doc["annotation"] = self.annotation
        return json.dumps(doc, separators=(",", ":"))


@dataclass(frozen=True)
class Outcome:
    """Terminal status of one principal.

    Rejections carry the stage, a reason, and the mismatching value
    pair in hex so the verdict can be rechecked from the transcript.
    """

    status: str
    stage: str
    reason: str | None = None
    mismatch: tuple[str, str] | None = None
    recovered: int = 0


class Transcript:
    """Ordered message log plus per-principal outcomes.

    ``world`` holds the final agent states once a run has finished.
    """

    def __init__(self) -> None:
        self.messages: list[Message] = []
        self.outcomes: dict[str, Outcome] = {}
        self.world = None

    def append(
        self,
        stage: str,
        sender: str,
        recipient: str,
        channel: str,
        kind: str,
        fields: dict[str, bytes],
        annotation: dict | None = None,
    ) -> Message:
        """Record one message as the next step and return it."""
        message = Message(
            len(self.messages) + 1, stage, sender, recipient, channel, kind, fields, annotation
        )
        self.messages.append(message)
        return message

    def by_kind(self, kind: str) -> list[Message]:
        return [m for m in self.messages if m.kind == kind]

    def to_jsonl(self) -> str:
        return "".join(message.to_json() + "\n" for message in self.messages)

    def content_hash(self) -> str:
        return hashlib.sha256(self.to_jsonl().encode("ascii")).hexdigest()

    def write(self, path: str | Path) -> None:
        Path(path).write_text(self.to_jsonl(), encoding="ascii")
