"""Every function the benchmark traces exists in the package."""

from __future__ import annotations

import json
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))
from tracer import CAPTURE_TARGETS, LAYER_TARGETS, Tracer, count_transcript  # noqa: E402

from acshare.entities import run_protocol  # noqa: E402
from acshare.netsim import CORRUPTS, AdversaryClass, AdversarySpec, ScenarioConfig  # noqa: E402
from acshare.protocol import (  # noqa: E402
    access_query,
    derive_session_key,
    registration_digest,
    validation_messages,
)

from conftest import ADVERSARY_CLASSES, by_kind  # noqa: E402


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
    done = subprocess.run([sys.executable, "-I", "-B", "-c", code], capture_output=True, text=True, check=True)
    fresh, missing, wrapped, restored = json.loads(done.stdout)
    assert fresh and missing == [] and wrapped and restored


def test_tracer_sees_every_open():
    # the first user opens each of its 4 shares, the other two reuse those
    # opens by position, and every share still crosses transmit and append
    config = ScenarioConfig(
        n_genuine=3, adversaries=(), dataset="tiny", key_length_bits=64, seed=2
    )
    with Tracer(LAYER_TARGETS) as tracer:
        transcript = run_protocol(config, [b"alpha", b"beta", b"gamma", b"beta"])
    assert len(by_kind(transcript, "DATA_SHARE")) == 12
    assert tracer.spans["protocol.recover_payload"].calls == 4
    # 12 shares and 3 requests appended in the sharing stage, each one transmitted
    assert tracer.counts["msgs.sharing.PUBLIC"] == 12 + 3
    spans = tracer.spans
    assert spans["netsim.transmit"].calls == spans["entities.transcript.append"].calls
    assert spans["entities.transcript.append"].calls == len(transcript.messages)
    # one seal per upload, made inside the traced function
    assert tracer.spans["protocol.make_cipher_bundle"].calls == 4


@pytest.mark.parametrize("classes", [ADVERSARY_CLASSES, ()], ids=["battery", "honest"])
def test_tracer_counts_every_delivery_and_tamper(classes):
    # transmit is wrapped on its class, so the fast path an honest message
    # takes is still counted; a PUBLIC tamper appends its original as well
    config = ScenarioConfig(
        n_genuine=2,
        adversaries=tuple(AdversarySpec(cls, 1) for cls in classes),
        dataset="tiny",
        key_length_bits=64,
        seed=2,
    )
    with Tracer(LAYER_TARGETS) as tracer:
        transcript = run_protocol(config, [b"alpha", b"beta", b"gamma", b"beta"])
    messages = list(transcript.messages)
    originals = [m for m in messages if (m.annotation or {}).get("tampered_in_flight")]
    names = {cls.name for cls in CORRUPTS}
    corrupted = [m for m in messages if (m.annotation or {}).get("adversary") in names]
    assert len(originals) == (AdversaryClass.TAMPER_CIPHERTEXT in classes)
    assert len(corrupted) == len(CORRUPTS.keys() & set(classes))
    assert tracer.spans["entities.transcript.append"].calls == len(messages)
    assert tracer.spans["netsim.transmit"].calls == len(messages) - len(originals)
    assert tracer.spans["netsim.apply_adversary"].calls == len(corrupted)


@pytest.mark.parametrize("n_genuine, per_class", [(2, 1), (3, 2)])
def test_each_gate_value_is_derived_once_per_distinct_input(n_genuine, per_class):
    # the server's derivation just after the requester's reuses it on equal
    # bytes, and only a differing input is derived again
    config = ScenarioConfig(
        n_genuine=n_genuine,
        adversaries=tuple(AdversarySpec(cls, per_class) for cls in ADVERSARY_CLASSES),
        dataset="tiny",
        key_length_bits=64,
        seed=2,
    )
    payloads = [b"alpha", b"beta", b"gamma", b"delta"]
    # each derivation keeps its last call, and a miss is a computation
    derivations = (registration_digest, access_query, validation_messages)
    for derivation in (*derivations, derive_session_key):
        derivation.cache_clear()
    with Tracer(LAYER_TARGETS) as tracer:
        run_protocol(config, payloads)
    n = per_class
    registered = n_genuine + 4 * n  # every class but the replayer
    keyed = n_genuine + 3 * n  # a wrong password stops at setup
    validating = n_genuine + 2 * n  # a forged key stops at access
    assert {derivation.__name__: derivation.cache_info().misses for derivation in derivations} == {
        # each registrant's, and the server's for each wrong password
        "registration_digest": registered + n,
        # each keyed user's, the server's for each forged key, and the first
        # replay's; the replays come last, so each later one repeats it
        "access_query": keyed + n + 1,
        # each validating user's, and the server's for each replayer's guessed nonce
        "validation_messages": validating + n,
    }
    untraced = Counter()
    count_transcript(untraced, run_protocol(config, payloads))
    del tracer.counts["keystream_bytes"]
    assert tracer.counts == untraced
