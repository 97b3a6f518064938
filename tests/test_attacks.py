"""Known weaknesses of the bundle format, pinned as attacks that must fail.

Both tests are strict xfails: they fail today because the attack works,
and the suite turns red the moment a fix makes an attack fail, so the
fix has to remove the marker. See the README's "Known weaknesses".
"""

from __future__ import annotations

import pytest

from acshare.entities import run_protocol
from acshare.netsim import ScenarioConfig, load_payloads
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
