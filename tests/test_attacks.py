"""Known weaknesses of the bundle format, pinned as attacks that must fail.

Every test here is a strict xfail: it fails today because the attack
works, and the suite turns red the moment a fix makes an attack fail, so
the fix has to remove the marker. See the README's "Known weaknesses".
"""

from __future__ import annotations

import hashlib
import itertools

import pytest

from acshare.entities import run_protocol
from acshare.netsim import Network, ScenarioConfig, load_payloads
from acshare.primitives import Rng, xor_bytes
from acshare.protocol import (
    IntegrityError,
    make_cipher_bundle,
    new_system_params,
    recover_payload,
)

from conftest import by_kind

FRAME_PREFIX = 4  # length prefix in front of the encrypted payload inside ``wrapped``


@pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason="every bundle of a run is sealed with one keystream and one mask",
)
def test_known_record_reveals_no_other_upload(data_dir):
    payloads = load_payloads("cleveland", data_dir / "cleveland.csv", None)
    config = ScenarioConfig(
        n_genuine=1, adversaries=(), dataset="cleveland", key_length_bits=256, seed=0
    )
    transcript = run_protocol(config, payloads)
    messages = by_kind(transcript, "CIPHER_UPLOAD")
    assert {m.channel for m in messages} == {"PUBLIC"}
    uploads = [m.fields for m in messages]

    # the eavesdropper knows one record, the longest, and sees its upload
    known = max(range(len(payloads)), key=lambda i: len(payloads[i]))
    plain = payloads[known]
    start = FRAME_PREFIX
    pad = xor_bytes(uploads[known]["wrapped"][start : start + len(plain)], plain)
    revealed = 0
    for i, fields in enumerate(uploads):
        if i == known:
            continue
        # wrapped = 4 + |payload| + 4 + width bytes, so the length is public
        length = len(fields["wrapped"]) - 2 * FRAME_PREFIX - config.width
        guess = xor_bytes(fields["wrapped"][start : start + length], pad[:length])
        revealed += guess == payloads[i]
    assert revealed == 0, f"{revealed} of {len(uploads) - 1} other uploads decrypted"


@pytest.mark.xfail(
    strict=True, raises=AssertionError, reason="the owner-key frame is not integrity-bound"
)
def test_flipped_owner_key_frame_is_refused(sample_payload):
    params = new_system_params(Rng(7), 32)
    wrapped, payload_digest = make_cipher_bundle(
        sample_payload, params, owner_key=bytes(range(32))
    )
    tampered = wrapped[:-1] + bytes([wrapped[-1] ^ 0x01])
    try:
        recover_payload(tampered, payload_digest, params)
    except IntegrityError:
        return
    raise AssertionError("a bundle with a flipped owner-key frame still opened")


@pytest.fixture(scope="module")
def cleveland(data_dir):
    return load_payloads("cleveland", data_dir / "cleveland.csv", None)


def run_with_patched_shares(payloads, monkeypatch, patch):
    """Cleveland x 2 genuine users at 256-bit, seed 0, with user-001's shares patched in flight.

    ``patch(index, uploads)`` gives the fields delivered as user-001's
    ``index``-th PUBLIC ``DATA_SHARE``, from the fields of every upload.
    """
    uploads, index = [], itertools.count()
    transmit = Network.transmit

    def patched(net, stage, sender, recipient, channel, kind, fields, annotation=None):
        if kind == "CIPHER_UPLOAD":
            uploads.append(fields)
        elif kind == "DATA_SHARE" and recipient == "user-001" and channel == "PUBLIC":
            fields = patch(next(index), uploads)
        return transmit(net, stage, sender, recipient, channel, kind, fields, annotation)

    monkeypatch.setattr(Network, "transmit", patched)
    config = ScenarioConfig(
        n_genuine=2, adversaries=(), dataset="cleveland", key_length_bits=256, seed=0
    )
    return run_protocol(config, payloads)


def assert_no_silent_corruption(transcript, payloads):
    """user-001 either fails loudly or ends ACCEPTED with every payload right."""
    if transcript.outcomes["user-001"].status != "ACCEPTED":
        return
    recovered = transcript.world.user("user-001").recovered
    wrong = sum(got != want for got, want in zip(recovered, payloads, strict=True))
    assert wrong == 0, f"user-001 ended ACCEPTED with {wrong} wrong payloads"


@pytest.mark.xfail(strict=True, raises=AssertionError, reason="a bundle carries no index")
def test_swapped_shares_are_refused(cleveland, monkeypatch):
    swap = {0: 1, 1: 0}
    transcript = run_with_patched_shares(
        cleveland, monkeypatch, lambda i, uploads: uploads[swap.get(i, i)]
    )
    assert_no_silent_corruption(transcript, cleveland)


@pytest.mark.xfail(strict=True, raises=AssertionError, reason="a bundle carries no index")
def test_repeated_share_is_refused(cleveland, monkeypatch):
    transcript = run_with_patched_shares(cleveland, monkeypatch, lambda i, uploads: uploads[0])
    assert_no_silent_corruption(transcript, cleveland)


@pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason="the payload digest is an unkeyed hash of a malleable ciphertext's plaintext",
)
def test_forged_share_is_refused(cleveland, monkeypatch):
    target = 5

    def forge(i, uploads):
        if i != target:
            return uploads[i]
        # the forger knows the longest record, and with it the shared pad
        known = max(range(len(cleveland)), key=lambda k: len(cleveland[k]))
        plain = cleveland[known]
        start = FRAME_PREFIX
        pad = xor_bytes(uploads[known]["wrapped"][start : start + len(plain)], plain)
        wrapped = uploads[target]["wrapped"]
        length = len(cleveland[target])  # public: the upload's length gives it away
        chosen = (b"forged " * length)[:length]
        forged = xor_bytes(chosen, pad[:length])
        return {
            "wrapped": wrapped[:start] + forged + wrapped[start + length :],
            "payload_digest": hashlib.sha256(chosen).digest(),
        }

    transcript = run_with_patched_shares(cleveland, monkeypatch, forge)
    assert_no_silent_corruption(transcript, cleveland)
