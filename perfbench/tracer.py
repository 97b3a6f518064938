"""Per-layer tracing of acshare from outside the package.

A :class:`Tracer` replaces functions with timing wrappers for the length
of a ``with`` block and puts every original back on exit. A name
imported with ``from .x import y`` is a separate binding in each module
that imports it, and a caller looks up its own module's binding, so a
module-level function is wrapped at every binding in the ``acshare``
modules that holds it. A method is wrapped on its class.

Each wrapper records calls, inclusive time and self time: its span's
duration minus the time covered by wrapped callees. A hook may count
the work a call produced (bytes, messages, cells) from its result.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from collections import Counter
from dataclasses import dataclass
from typing import Any, Callable, NamedTuple

PACKAGE = "acshare"

Hook = Callable[[Counter, Any], None]


class Target(NamedTuple):
    """One function to wrap: its span name, defining module and attribute."""

    span: str
    module: str
    attr: str  # "function" or "Class.method"
    hook: Hook | None = None


@dataclass
class Span:
    """Aggregate of every call to one wrapped function."""

    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0


def count_message(counts: Counter, message) -> None:
    """Count one transcript message by (stage, channel), and its field bytes."""
    counts[f"msgs.{message.stage}.{message.channel}"] += 1
    counts["wire_bytes"] += sum(len(value) for value in message.fields.values())


def count_transcript(counts: Counter, transcript) -> None:
    for message in transcript.messages:
        count_message(counts, message)


def _count_len(key: str) -> Hook:
    """Hook adding the length of each result (bytes, rows) to ``counts[key]``."""

    def hook(counts: Counter, result) -> None:
        counts[key] += len(result)

    return hook


STAGES = ("setup", "keygen", "encryption", "access", "validation", "sharing")

#: every wrapped function of the traced run, by layer
LAYER_TARGETS = (
    Target("primitives.keystream", "acshare.primitives", "keystream", _count_len("keystream_bytes")),
    Target("primitives.expand", "acshare.primitives", "expand"),
    Target("primitives.frame_concat", "acshare.primitives", "frame_concat"),
    Target("primitives.mod_reduce", "acshare.primitives", "mod_reduce"),
    Target("protocol.recover_payload", "acshare.protocol", "recover_payload"),
    Target("protocol.make_cipher_bundle", "acshare.protocol", "make_cipher_bundle"),
    Target("protocol.validation_messages", "acshare.protocol", "validation_messages"),
    Target("protocol.access_query", "acshare.protocol", "access_query"),
    Target("protocol.registration_digest", "acshare.protocol", "registration_digest"),
    Target("netsim.transmit", "acshare.netsim", "Network.transmit"),
    Target("netsim.apply_adversary", "acshare.netsim", "apply_adversary"),
    Target("entities.stage.setup", "acshare.entities", "setup_phase"),
    Target("entities.stage.keygen", "acshare.entities", "keygen_phase"),
    Target("entities.stage.encryption", "acshare.entities", "encryption_phase"),
    # a replayed query is served by the access stage too
    Target("entities.stage.access", "acshare.entities", "access_control_phase"),
    Target("entities.stage.access", "acshare.entities", "replay_access"),
    Target("entities.stage.validation", "acshare.entities", "validation_phase"),
    Target("entities.stage.sharing", "acshare.entities", "data_sharing_phase"),
    Target("entities.transcript.append", PACKAGE, "Transcript.append", count_message),
    Target("entities.transcript.to_jsonl", PACKAGE, "Transcript.to_jsonl"),
    Target("dataset.load_dataset", "acshare.dataset", "load_dataset"),
    Target("dataset.record_to_payload", "acshare.dataset", "record_to_payload"),
    Target("bench.run_sweep", "acshare.bench", "run_sweep", _count_len("sweep_cells")),
    Target("bench.measure_memory", "acshare.bench", "measure_memory"),
)

#: the untraced runs wrap only this, to count the transcripts a pass produced
CAPTURE_TARGETS = (Target("run_protocol", "acshare.entities", "run_protocol", count_transcript),)


def _resolve(module_name: str, attr: str) -> tuple[object, str, Callable]:
    owner: object = importlib.import_module(module_name)
    *parents, leaf = attr.split(".")
    for parent in parents:
        owner = getattr(owner, parent)
    return owner, leaf, getattr(owner, leaf)


def _bindings(function: Callable) -> list[tuple[object, str]]:
    """Every (module, name) in the package whose value is ``function``."""
    found = []
    for name, module in list(sys.modules.items()):
        if module is None or not (name == PACKAGE or name.startswith(PACKAGE + ".")):
            continue
        for attr, value in vars(module).items():
            if value is function:
                found.append((module, attr))
    return found


class Tracer:
    """Context manager that wraps ``targets`` and aggregates their spans."""

    def __init__(self, targets=LAYER_TARGETS) -> None:
        self.targets = tuple(targets)
        self.spans: dict[str, Span] = {target.span: Span() for target in self.targets}
        self.counts: Counter = Counter()
        self.missing: list[str] = []
        self._stack: list[float] = []
        self._originals: list[tuple[object, str, Callable]] = []

    def __enter__(self) -> "Tracer":
        try:
            for target in self.targets:
                try:
                    owner, leaf, original = _resolve(target.module, target.attr)
                except (ImportError, AttributeError):
                    self.missing.append(f"{target.module}.{target.attr}")
                    continue
                holders = [(owner, leaf)] if isinstance(owner, type) else _bindings(original)
                wrapper = self._wrap(target, original)
                for holder, attr in holders:
                    self._originals.append((holder, attr, original))
                    setattr(holder, attr, wrapper)
        except BaseException:
            self._restore()
            raise
        return self

    def __exit__(self, *exc_info) -> None:
        self._restore()

    def _restore(self) -> None:
        while self._originals:
            holder, attr, original = self._originals.pop()
            setattr(holder, attr, original)

    def _wrap(self, target: Target, function: Callable) -> Callable:
        span = self.spans[target.span]
        stack = self._stack
        counts = self.counts
        hook = target.hook
        clock = time.perf_counter

        @functools.wraps(function)
        def traced(*args, **kwargs):
            stack.append(0.0)  # time covered by wrapped callees
            start = clock()
            try:
                result = function(*args, **kwargs)
            finally:
                elapsed = clock() - start
                children = stack.pop()
                span.calls += 1
                span.total_s += elapsed
                span.self_s += elapsed - children
                if stack:
                    stack[-1] += elapsed
            if hook is not None:
                hook(counts, result)
            return result

        return traced
