"""Wire format: channels, message kinds, messages, outcomes, transcripts.

Every transmission of a run is one line of a :class:`Transcript`.
``Transcript.append`` numbers each message by its position, so a step
is fixed once and never copied, and returns it as a :class:`Message`.
The transcript keeps every line as that ``Message`` except the
untampered shares, which resend stored uploads in order: it keeps each
unbroken run of them as one ``_Run``, and ``Transcript.messages``
builds a share's ``Message`` again from its run when one is read, so
``append`` is not the only place a ``Message`` is built. The JSON-lines
form of a transcript is the byte-level record of a run; one
seed always reproduces one byte stream.
"""

from __future__ import annotations

import functools
import hashlib
import json
from bisect import bisect_right
from collections.abc import Iterator, Sequence
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

#: messages per rendered chunk, and the most note texts a render's memo keeps
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


class _Run:
    """Consecutive untampered ``DATA_SHARE`` lines that resend uploads in order.

    Line ``step + k`` resends upload ``first + k`` of its transcript, for
    each ``k`` below ``stop - first``; every line has the one header
    ``stage``, ``sender``, ``recipient`` and ``channel``, and no
    annotation. A plain class, not a dataclass, since building a
    dataclass adds to import time; the header is four fields, not a
    tuple, since ``append`` compares it once per share.
    """

    __slots__ = ("step", "stage", "sender", "recipient", "channel", "first", "stop")

    def __init__(
        self, step: int, stage: str, sender: str, recipient: str, channel: str, first: int
    ) -> None:
        self.step = step
        self.stage = stage
        self.sender = sender
        self.recipient = recipient
        self.channel = channel
        self.first = first
        self.stop = first + 1

    def message(self, step: int, fields: dict[str, bytes]) -> Message:
        """The ``Message`` of this run's line ``step``, which resends ``fields``."""
        return Message(
            step, self.stage, self.sender, self.recipient, self.channel, KIND_DATA_SHARE, fields
        )


class _MessageView(Sequence[Message]):
    """The messages of a transcript as a read-only sequence, in step order."""

    def __init__(self, transcript: "Transcript") -> None:
        self._transcript = transcript

    def __len__(self) -> int:
        return self._transcript._count

    def __getitem__(self, index):
        steps = range(1, len(self) + 1)[index]  # raises IndexError as a list would
        if isinstance(steps, range):
            return [self._message(step) for step in steps]
        return self._message(steps)

    def _message(self, step: int) -> Message:
        entries = self._transcript._entries
        entry = entries[bisect_right(entries, step, key=lambda entry: entry.step) - 1]
        if type(entry) is Message:
            return entry
        return entry.message(step, self._transcript._uploads[entry.first + step - entry.step])

    def __iter__(self) -> Iterator[Message]:
        uploads = self._transcript._uploads
        for entry in self._transcript._entries:
            if type(entry) is Message:
                yield entry
                continue
            for step, fields in enumerate(uploads[entry.first : entry.stop], entry.step):
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
        self._run: _Run | None = None  # the last run opened
        # while that run is open: the upload that extends it, and the ones after
        self._next: dict[str, bytes] | None = None
        self._rest: Iterator[dict[str, bytes]] = iter(())
        self._digest = (0, hashlib.sha256().hexdigest())  # (message count, sha256 of its lines)

    @property
    def messages(self) -> Sequence[Message]:
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

        An unannotated share extends the open run when its header is the
        run's and its fields dict is the upload after the run's last. Any
        other message closes the run. An unannotated share that extends
        no run opens one at the first upload that is its fields dict, if
        there is one; every other message is kept as itself.
        """
        self._count = step = self._count + 1
        message = Message(step, stage, sender, recipient, channel, kind, fields, annotation)
        if (
            fields is self._next
            and annotation is None
            and kind == KIND_DATA_SHARE
            and stage == (run := self._run).stage
            and sender == run.sender
            and recipient == run.recipient
            and channel == run.channel
        ):
            run.stop += 1
            self._next = next(self._rest, None)
            return message
        self._next = None
        if kind == KIND_CIPHER_UPLOAD:
            self._uploads.append(fields)
        elif kind == KIND_DATA_SHARE and annotation is None:
            # the cloud streams every user's shares from the first upload,
            # so this scan stops at once on a protocol run
            first = next((i for i, upload in enumerate(self._uploads) if upload is fields), None)
            if first is not None:
                self._run = _Run(step, stage, sender, recipient, channel, first)
                self._entries.append(self._run)
                self._rest = iter(self._uploads[first + 1 :])
                self._next = next(self._rest, None)
                return message
        self._entries.append(message)
        return message

    def to_jsonl(self, sink: BinaryIO) -> str:
        """Write the JSON lines of every message to ``sink``; return their sha256.

        Each chunk of ``RENDER_CHUNK`` lines is written and hashed before
        the next is rendered, so no text of the whole transcript is kept,
        and the digest is recorded for ``content_hash``. Each upload's
        field text is rendered once per write, as is each run's header;
        a share in a run is written as its step, the header, the text and
        the line's end. A kept message's field text is rendered for its
        line, since a kept line seldom resends a field dict; its
        annotation, which many queries share, takes its note text from a
        memo of at most ``RENDER_CHUNK`` entries.
        """
        digest = hashlib.sha256()
        texts = [render_fields(fields).encode("ascii") for fields in self._uploads]
        notes: dict[int, str] = {}  # by id: self._entries keeps each note alive, unmutated
        pieces: list[bytes] = []
        room = RENDER_CHUNK  # lines the open chunk still takes

        def flush() -> None:
            data = b"".join(pieces)
            pieces.clear()
            sink.write(data)
            digest.update(data)

        for entry in self._entries:
            if type(entry) is Message:
                if (note := notes.get(id(entry.annotation))) is None:
                    if len(notes) == RENDER_CHUNK:
                        notes.clear()
                    note = notes[id(entry.annotation)] = render_note(entry.annotation)
                line = format_line(entry, render_fields(entry.fields), note)
                pieces.append((line + "\n").encode("ascii"))
                room -= 1
                if not room:
                    flush()
                    room = RENDER_CHUNK
                continue
            # the line of a share with step 0 and no fields, less '{"step":0' and '}}'
            line = format_line(entry.message(0, {}), "", "")
            header = line[len('{"step":0') : -2].encode("ascii")
            step = entry.step
            for text in texts[entry.first : entry.stop]:
                pieces += (b'{"step":%d' % step, header, text, b"}}\n")
                step += 1
                room -= 1
                if not room:
                    flush()
                    room = RENDER_CHUNK
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
