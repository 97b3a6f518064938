"""Wire format: channels, message kinds, messages, outcomes, transcripts.

Every transmission of a run is one :class:`Message` in a
:class:`Transcript`, and ``Transcript.append`` is the only place a
message is built: it numbers the message by its position, so a step is
fixed once and never copied. The JSON-lines form of a transcript is the
byte-level record of a run; one seed always reproduces one byte stream.
"""

from __future__ import annotations

import functools
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

# JSON quoting of a name; the distinct names of a run are bounded by its roster
_quote = functools.cache(json.dumps)
_encode = json.JSONEncoder(separators=(",", ":")).encode


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
        """One compact JSON line, without its newline.

        The line equals ``json.dumps(doc, separators=(",", ":"))`` for
        ``doc = {"step": step, "phase": stage, "from": sender, "to":
        recipient, "channel": channel, "kind": kind, "fields": {name:
        value.hex()}}``, with ``"annotation": annotation`` added last
        when the annotation is not ``None``. It is formatted directly,
        without building ``doc``.
        """
        fields = ",".join(f'{_quote(name)}:"{value.hex()}"' for name, value in self.fields.items())
        note = "" if self.annotation is None else f',"annotation":{_encode(self.annotation)}'
        return (
            f'{{"step":{self.step},"phase":{_quote(self.stage)},"from":{_quote(self.sender)},'
            f'"to":{_quote(self.recipient)},"channel":{_quote(self.channel)},'
            f'"kind":{_quote(self.kind)},"fields":{{{fields}}}{note}}}'
        )


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
        self._jsonl = (0, b"")  # (message count, JSON lines of that many messages)

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

    def to_jsonl(self) -> bytes:
        """JSON lines of every message, one per line, as ASCII bytes.

        Messages are immutable once appended, so the bytes are kept and
        only messages appended since the last call are rendered; hashing
        and writing use the kept bytes without copying them.
        """
        count, data = self._jsonl
        if count < len(self.messages):
            text = "".join(message.to_json() + "\n" for message in self.messages[count:])
            data += text.encode("ascii")
            self._jsonl = (len(self.messages), data)
        return data

    def content_hash(self) -> str:
        return hashlib.sha256(self.to_jsonl()).hexdigest()

    def write(self, path: str | Path) -> None:
        Path(path).write_bytes(self.to_jsonl())
