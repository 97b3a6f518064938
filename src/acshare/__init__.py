"""Deterministic simulation of a cloud access-control and data-sharing protocol.

Everything in the protocol is a fixed-width byte string derived through
hashing, masking, and width-bounded modular arithmetic, so whole runs
reproduce byte for byte from a single seed. See the README for the
layout. Each name is imported from the module that defines it, so an
import loads only the modules it names and their dependencies.
"""

from .wire import Transcript  # perfbench/tracer.py resolves acshare.Transcript.append
