"""Every function the benchmark traces exists in the package."""

from __future__ import annotations

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
from tracer import CAPTURE_TARGETS, LAYER_TARGETS, Tracer  # noqa: E402


def test_every_trace_target_resolves():
    # the benchmark only warns on a missing target, whose metrics then read 0
    with Tracer(LAYER_TARGETS + CAPTURE_TARGETS) as tracer:
        pass
    assert tracer.missing == []
