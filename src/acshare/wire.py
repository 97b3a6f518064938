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
from typing import BinaryIO

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

#: messages per rendered chunk, and the most field texts a render memoises
RENDER_CHUNK = 1024


@dataclass(slots=True)
class Message:
    """One transmission, exactly as it crossed its channel.

    ``step`` is the message's 1-based position in its transcript.
    ``fields`` maps field names to raw byte values; the JSON form
    renders them as lowercase hex. No code assigns to a delivered
    message or mutates its ``fields`` dict (an adversary alters a
    copy), so a receiver may keep it and send it on, as the cloud does
    with each upload. The class is not frozen because a frozen
    dataclass sets each field through ``object.__setattr__``, which
    makes building one about four times as slow.
    """

    step: int
    stage: str
    sender: str
    recipient: str
    channel: str
    kind: str
    fields: dict[str, bytes]
    annotation: dict | None = None


def render_fields(fields: dict[str, bytes]) -> str:
    """The text inside a line's ``"fields":{…}``, each value in lowercase hex."""
    return ",".join(f'{_quote(name)}:"{value.hex()}"' for name, value in fields.items())


def format_line(message: Message, fields: str) -> str:
    """The JSON line of ``message`` around its field text ``fields``, with no newline.

    The line equals ``json.dumps(doc, separators=(",", ":"))`` for ``doc =
    {"step": step, "phase": stage, "from": sender, "to": recipient,
    "channel": channel, "kind": kind, "fields": {name: value.hex()}}``,
    with ``"annotation": annotation`` added last when it is not ``None``.
    """
    note = "" if message.annotation is None else f',"annotation":{_encode(message.annotation)}'
    return (
        f'{{"step":{message.step},"phase":{_quote(message.stage)},"from":{_quote(message.sender)},'
        f'"to":{_quote(message.recipient)},"channel":{_quote(message.channel)},'
        f'"kind":{_quote(message.kind)},"fields":{{{fields}}}{note}}}'
    )


@dataclass(frozen=True)
class Outcome:
    """Terminal status of one principal.

    Failures carry the stage and a reason; a gate rejection or a digest
    failure also carries its mismatching ``(actual, expected)`` hex pair.
    """

    status: str
    stage: str
    reason: str | None = None
    mismatch: tuple[str, str] | None = None


class _Discard:
    """A sink that keeps nothing, for a render that only hashes."""

    def write(self, data: bytes) -> int:
        return len(data)


class Transcript:
    """Ordered message log plus per-principal outcomes.

    ``world`` holds the final agent states once a run has finished.
    """

    def __init__(self) -> None:
        self.messages: list[Message] = []
        self.outcomes: dict[str, Outcome] = {}
        self.world = None
        self._digest = (0, hashlib.sha256().hexdigest())  # (message count, sha256 of its lines)

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

    def to_jsonl(self, sink: BinaryIO) -> str:
        """Write the JSON lines of every message to ``sink``; return their sha256.

        Each chunk of ``RENDER_CHUNK`` lines is written and hashed before
        the next is rendered, so no text of the whole transcript is kept,
        and the digest is recorded for ``content_hash``. A resent field
        dict's text comes from a memo of at most ``RENDER_CHUNK`` entries.
        """
        digest = hashlib.sha256()
        memo: dict[int, str] = {}  # by id: self.messages keeps each dict alive, unmutated
        for start in range(0, len(self.messages), RENDER_CHUNK):
            lines = []
            for message in self.messages[start : start + RENDER_CHUNK]:
                if (fields := memo.get(id(message.fields))) is None:
                    if len(memo) == RENDER_CHUNK:
                        memo.clear()
                    fields = memo[id(message.fields)] = render_fields(message.fields)
                lines.append(format_line(message, fields) + "\n")
            data = "".join(lines).encode("ascii")
            sink.write(data)
            digest.update(data)
        self._digest = (len(self.messages), digest.hexdigest())
        return self._digest[1]

    def content_hash(self) -> str:
        """sha256 of the JSON lines; rendered again only after an append."""
        count, digest = self._digest
        if count == len(self.messages):
            return digest
        return self.to_jsonl(_Discard())

    def write(self, path: str | Path) -> None:
        with open(path, "wb") as sink:
            self.to_jsonl(sink)
