"""Wire format: channels, message kinds, messages, outcomes, transcripts.

Every transmission of a run is one line of a :class:`Transcript`.
``Transcript.append`` numbers each message by its position, so a step
is fixed once and never copied, and returns it as a :class:`Message`.
The transcript keeps every line as that ``Message`` except the
untampered shares, which resend stored uploads in order from the
first: it keeps each unbroken run of them as one ``_Run``, and
``Transcript.messages`` builds a share's ``Message`` again from its run
when one is read, so ``append`` is not the only place a ``Message`` is
built. Keeping every share as its ``Message`` instead runs share-heavy
86% slower and takes the 10,000-user probe from 102 to 495 MiB
(README, Perf-only constructs). The JSON-lines form of a transcript is
the byte-level record of a run; one seed always reproduces one byte
stream.
"""

from __future__ import annotations

import functools
import hashlib
import json
from collections.abc import Iterator
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

# JSON quoting of a name; the distinct names of a run are bounded by its roster.
# Cached, as plain json.dumps costs adversary-battery 25% (README, Perf-only constructs)
_quote = functools.cache(json.dumps)
_encode = json.JSONEncoder(separators=(",", ":")).encode

#: messages per rendered chunk
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
    makes building one about four times as slow (frozen, share-heavy
    runs 53% slower: README, Perf-only constructs).
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


def render_note(annotation: dict | None) -> str:
    """The ``,"annotation":…`` text that ends a line; ``""`` for no annotation."""
    return "" if annotation is None else f',"annotation":{_encode(annotation)}'


def format_line(message: Message, fields: str, note: str) -> str:
    """The JSON line of ``message`` around its field and note texts, with no newline.

    ``fields`` is ``render_fields(message.fields)`` and ``note`` is
    ``render_note(message.annotation)``. The line equals
    ``json.dumps(doc, separators=(",", ":"))`` for ``doc = {"step": step,
    "phase": stage, "from": sender, "to": recipient, "channel": channel,
    "kind": kind, "fields": {name: value.hex()}}``, with ``"annotation":
    annotation`` added last when it is not ``None``.
    """
    return (
        f'{{"step":{message.step},"phase":{_quote(message.stage)},"from":{_quote(message.sender)},'
        f'"to":{_quote(message.recipient)},"channel":{_quote(message.channel)},'
        f'"kind":{_quote(message.kind)},"fields":{{{fields}}}{note}}}'
    )


@dataclass(frozen=True, slots=True)
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


class _Run:
    """Consecutive untampered ``DATA_SHARE`` lines that resend uploads in order.

    Line ``step + k`` resends upload ``k`` of its transcript, for each
    ``k`` below ``stop``; every line has the one header ``stage``,
    ``sender``, ``recipient`` and ``channel``, and no annotation. A
    plain class, not a dataclass, since building a dataclass adds to
    import time; the header is four fields, not a tuple, since
    ``append`` compares it once per share.
    """

    __slots__ = ("step", "stage", "sender", "recipient", "channel", "stop")

    def __init__(self, step: int, stage: str, sender: str, recipient: str, channel: str) -> None:
        self.step = step
        self.stage = stage
        self.sender = sender
        self.recipient = recipient
        self.channel = channel
        self.stop = 1

    def message(self, step: int, fields: dict[str, bytes]) -> Message:
        """The ``Message`` of this run's line ``step``, which resends ``fields``."""
        return Message(
            step, self.stage, self.sender, self.recipient, self.channel, KIND_DATA_SHARE, fields
        )


class _MessageView:
    """The messages of a transcript, in step order: a length and an iteration."""

    def __init__(self, transcript: "Transcript") -> None:
        self._transcript = transcript

    def __len__(self) -> int:
        return self._transcript._count

    def __iter__(self) -> Iterator[Message]:
        uploads = self._transcript._uploads
        for entry in self._transcript._entries:
            if type(entry) is Message:
                yield entry
                continue
            for step, fields in enumerate(uploads[: entry.stop], entry.step):
                yield entry.message(step, fields)


class Transcript:
    """Ordered message log plus per-principal outcomes.

    ``world`` holds the final agent states once a run has finished.
    """

    def __init__(self) -> None:
        self.outcomes: dict[str, Outcome] = {}
        self.world = None
        self._count = 0  # messages appended
        self._entries: list[Message | _Run] = []  # in step order
        self._uploads: list[dict[str, bytes]] = []  # fields of every CIPHER_UPLOAD, kept alive
        self._digest = (0, hashlib.sha256().hexdigest())  # (message count, sha256 of its lines)

    @property
    def messages(self) -> _MessageView:
        """Every message, in step order; a share held in a run is built again when read."""
        return _MessageView(self)

    def kept_messages(self) -> list[Message]:
        """Every message that no run holds, in step order: all but the untampered shares."""
        return [entry for entry in self._entries if type(entry) is Message]

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
        """Record one message as the next step and return it.

        A run is open while it is the last entry. An unannotated share
        extends the open run when its header is the run's and its fields
        dict is the upload after the run's last; one whose fields dict is
        the first upload opens a run. Every other message is kept as
        itself, and so closes the open run. The cloud resends every
        upload in order to each user it shares with, so on a protocol
        run each run covers all uploads.
        """
        self._count = step = self._count + 1
        message = Message(step, stage, sender, recipient, channel, kind, fields, annotation)
        if kind == KIND_DATA_SHARE and annotation is None and (uploads := self._uploads):
            run = self._entries[-1]  # an upload was kept, so there is one
            if (
                type(run) is _Run
                and run.stop < len(uploads)
                and fields is uploads[run.stop]
                and stage == run.stage
                and sender == run.sender
                and recipient == run.recipient
                and channel == run.channel
            ):
                run.stop += 1
                return message
            if fields is uploads[0]:
                self._entries.append(_Run(step, stage, sender, recipient, channel))
                return message
        elif kind == KIND_CIPHER_UPLOAD:
            self._uploads.append(fields)
        self._entries.append(message)
        return message

    def to_jsonl(self, sink: BinaryIO) -> str:
        """Write the JSON lines of every message to ``sink``; return their sha256.

        Each chunk of ``RENDER_CHUNK`` steps is written and hashed before
        the next is rendered, so no text of the whole transcript is kept,
        and the digest is recorded for ``content_hash``. Each upload's
        field text is rendered once per write with the line's end, as is
        each run's header. A run's lines in one chunk are one block of
        three pieces a line (its step, the header and that text), filled
        by slice assignment (without blocks share-heavy runs 6% slower:
        README, Perf-only constructs). A kept message's field text
        is rendered for its line, since a kept line seldom resends a field
        dict. Its note text is the last annotated kept line's when the two
        carry the one annotation dict, as the access queries of a run do
        (without that, adversary-battery runs 11% slower: README,
        Perf-only constructs).
        """
        digest = hashlib.sha256()
        texts = [(render_fields(fields) + "}}\n").encode("ascii") for fields in self._uploads]
        noted, note = None, ""  # the last annotation rendered, and its note text
        pieces: list[bytes] = []

        def flush() -> None:
            data = b"".join(pieces)
            pieces.clear()
            sink.write(data)
            digest.update(data)

        for entry in self._entries:
            if type(entry) is Message:
                if (annotation := entry.annotation) is not None and annotation is not noted:
                    noted, note = annotation, render_note(annotation)
                line = format_line(
                    entry, render_fields(entry.fields), "" if annotation is None else note
                )
                pieces.append((line + "\n").encode("ascii"))
                if not entry.step % RENDER_CHUNK:
                    flush()
                continue
            # the line of a share with step 0 and no fields, less '{"step":0' and '}}'
            line = format_line(entry.message(0, {}), "", "")
            header = line[len('{"step":0') : -2].encode("ascii")
            step, stop = entry.step, entry.step + entry.stop
            while step < stop:  # the run's lines up to the end of the open chunk
                end = min(stop, step + 1 + (-step % RENDER_CHUNK))
                block = [header] * (3 * (end - step))
                block[0::3] = [b'{"step":%d' % k for k in range(step, end)]
                block[2::3] = texts[step - entry.step : end - entry.step]
                pieces += block
                step = end
                if not (end - 1) % RENDER_CHUNK:
                    flush()
        flush()
        self._digest = (self._count, digest.hexdigest())
        return self._digest[1]

    def content_hash(self) -> str:
        """sha256 of the JSON lines; rendered again only after an append."""
        count, digest = self._digest
        if count == self._count:
            return digest
        return self.to_jsonl(_Discard())

    def write(self, path: str | Path) -> None:
        with open(path, "wb") as sink:
            self.to_jsonl(sink)
