"""Deterministic simulation of a cloud access-control and data-sharing protocol.

Everything in the protocol is a fixed-width byte string derived through
hashing, masking, and width-bounded modular arithmetic, so whole runs
reproduce byte for byte from a single seed. See the README for the
layout. Each name is imported from the module that defines it, so an
import loads only the modules it names and their dependencies. The
root binds one name, ``Transcript``, for the benchmark's tracer, which
resolves ``acshare.Transcript.append``; it imports ``wire`` on first
read (PEP 562), so ``import acshare.dataset`` loads no transcript code.
"""


def __getattr__(name: str):
    if name == "Transcript":
        from .wire import Transcript

        return Transcript
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
