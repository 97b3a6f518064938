"""Every function the benchmark traces exists in the package."""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))
from tracer import CAPTURE_TARGETS, LAYER_TARGETS, Tracer  # noqa: E402

from acshare.entities import run_protocol  # noqa: E402
from acshare.netsim import ScenarioConfig  # noqa: E402

from conftest import by_kind  # noqa: E402


def test_every_trace_target_resolves():
    # the benchmark only warns on a missing target, whose metrics then read 0
    with Tracer(LAYER_TARGETS + CAPTURE_TARGETS) as tracer:
        pass
    assert tracer.missing == []


def test_every_trace_target_resolves_in_a_fresh_interpreter():
    # this session has imported acshare.wire already, so only a fresh
    # interpreter shows the tracer reading acshare.Transcript through the root
    code = (
        "import json, sys\n"
        f"sys.path[:0] = [{str(ROOT / 'src')!r}, {str(ROOT / 'perfbench')!r}]\n"
        "from tracer import CAPTURE_TARGETS, LAYER_TARGETS, Tracer\n"
        "import acshare\n"
        "fresh = 'acshare.wire' not in sys.modules\n"
        "with Tracer(LAYER_TARGETS + CAPTURE_TARGETS) as tracer:\n"
        "    traced = acshare.Transcript.append\n"
        "original = acshare.Transcript.append\n"
        "print(json.dumps([fresh, tracer.missing, traced is not original, traced.__wrapped__ is original]))\n"
    )
    done = subprocess.run([sys.executable, "-I", "-c", code], capture_output=True, text=True, check=True)
    fresh, missing, wrapped, restored = json.loads(done.stdout)
    assert fresh and missing == [] and wrapped and restored


def test_tracer_sees_every_open():
    # opens after the first of a bundle are memo hits inside recover_payload,
    # and its span must still count one call per share
    config = ScenarioConfig(
        n_genuine=3, adversaries=(), dataset="tiny", key_length_bits=64, seed=2
    )
    with Tracer(LAYER_TARGETS) as tracer:
        transcript = run_protocol(config, [b"alpha", b"beta", b"gamma", b"beta"])
    shares = len(by_kind(transcript, "DATA_SHARE"))
    assert shares == 12
    assert tracer.spans["protocol.recover_payload"].calls == shares
    # one seal per upload, made inside the traced function
    assert tracer.spans["protocol.make_cipher_bundle"].calls == 4
