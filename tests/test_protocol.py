from __future__ import annotations

import ast
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from acshare.primitives import (
    InvalidWidthError,
    Rng,
    digest,
    frame_concat,
    frame_split,
    keystream,
    sym_encrypt,
)
from acshare.protocol import (
    IntegrityError,
    SystemParams,
    access_query,
    derive_data_key,
    derive_private_key,
    derive_session_key,
    make_cipher_bundle,
    new_system_params,
    recover_payload,
    registration_digest,
    validation_messages,
)

from conftest import StubRng
from reference import (
    ref_access_query,
    ref_cipher_bundle,
    ref_private_key,
    ref_recover_payload,
    ref_registration_digest,
    ref_session_key,
    ref_validation_pair,
)

widths = st.sampled_from((1, 8, 16, 32, 64))
ids = st.binary(min_size=1, max_size=40)


def fixed(width):
    return st.binary(min_size=width, max_size=width)


@st.composite
def mutated(draw, wrapped, length):
    """``wrapped`` flipped (often in a length prefix), cut, extended or replaced."""
    kind = draw(st.sampled_from(("flip", "truncate", "extend", "short")))
    if kind == "truncate":
        return wrapped[: draw(st.integers(0, len(wrapped) - 1))]
    if kind == "extend":
        return wrapped + draw(st.binary(min_size=1, max_size=12))
    if kind == "short":
        return draw(st.binary(max_size=7))
    prefixes = [*range(4), *range(4 + length, 8 + length)]
    corrupt = bytearray(wrapped)
    for _ in range(draw(st.integers(1, 3))):
        index = draw(st.sampled_from(prefixes) | st.integers(0, len(wrapped) - 1))
        corrupt[index] ^= draw(st.integers(1, 255))
    return bytes(corrupt)


# one frozen tuple, all six derived values computed with the reference
# implementation and pinned here as literals
GOLDEN_INPUT = dict(
    user_id=b"user-000",
    password=bytes(range(16)),
    s=bytes.fromhex("00112233445566778899aabbccddeeff"),
    m=bytes.fromhex("ffeeddccbbaa99887766554433221100"),
    public_param=bytes.fromhex("0f1e2d3c4b5a69788796a5b4c3d2e1f0"),
    attribute=bytes.fromhex("a5a5a5a5a5a5a5a5a5a5a5a5a5a5a5a5"),
    nonce=bytes.fromhex("1234567890abcdef1234567890abcdef"),
)
GOLDEN_DIGEST = "cf1f8b10936e2a5a5edf8f0e738ed0c5"
GOLDEN_PRIVATE_KEY = "0ab9c3888f5d700acf4f1e53d1772334"
GOLDEN_QUERY = "858ca60cef329d7657ce7c5cb666a61f"
GOLDEN_SESSION_KEY = "ff0d586c57a09cd0cae1f0d64d3b2b99"
GOLDEN_V1 = "06b30906b2d81fd709954be4a7a45fbe"
GOLDEN_V2 = "121dcdb0c04e621ee9195c278eeb31c2"


class TestGoldenVectors:
    def test_registration_digest(self):
        g = GOLDEN_INPUT
        out = registration_digest(g["user_id"], g["password"], g["s"])
        assert out.hex() == GOLDEN_DIGEST

    def test_private_key(self):
        g = GOLDEN_INPUT
        out = derive_private_key(g["m"], g["public_param"], g["s"], g["attribute"])
        assert out.hex() == GOLDEN_PRIVATE_KEY

    def test_access_query(self):
        g = GOLDEN_INPUT
        out = access_query(
            bytes.fromhex(GOLDEN_DIGEST), g["user_id"], bytes.fromhex(GOLDEN_PRIVATE_KEY)
        )
        assert out.hex() == GOLDEN_QUERY

    def test_session_key(self):
        g = GOLDEN_INPUT
        out = derive_session_key(g["public_param"], g["m"], g["attribute"])
        assert out.hex() == GOLDEN_SESSION_KEY

    def test_validation_pair(self):
        g = GOLDEN_INPUT
        v1, v2 = validation_messages(
            g["user_id"],
            bytes.fromhex(GOLDEN_SESSION_KEY),
            g["s"],
            g["nonce"],
            bytes.fromhex(GOLDEN_PRIVATE_KEY),
            g["m"],
            g["attribute"],
        )
        assert v1.hex() == GOLDEN_V1
        assert v2.hex() == GOLDEN_V2


class TestOracleAgreement:
    @given(st.data(), widths, ids)
    def test_registration_digest(self, data, width, user_id):
        password = data.draw(fixed(width))
        s = data.draw(fixed(width))
        assert registration_digest(user_id, password, s) == ref_registration_digest(
            user_id, password, s, width
        )

    @given(st.data(), widths)
    def test_private_key(self, data, width):
        m, pp, s, a = (data.draw(fixed(width)) for _ in range(4))
        assert derive_private_key(m, pp, s, a) == ref_private_key(m, pp, s, a, width)

    @given(st.data(), widths, ids)
    def test_access_query(self, data, width, user_id):
        reg_digest = data.draw(fixed(width))
        private_key = data.draw(fixed(width))
        assert access_query(reg_digest, user_id, private_key) == ref_access_query(
            reg_digest, user_id, private_key, width
        )

    @given(st.data(), widths)
    def test_session_key(self, data, width):
        pp, m, a = (data.draw(fixed(width)) for _ in range(3))
        assert derive_session_key(pp, m, a) == ref_session_key(pp, m, a, width)

    @given(st.data(), widths, ids)
    def test_validation_pair(self, data, width, user_id):
        sk, s, nonce, pk, m, a = (data.draw(fixed(width)) for _ in range(6))
        pair = validation_messages(user_id, sk, s, nonce, pk, m, a)
        assert pair == ref_validation_pair(user_id, sk, s, nonce, pk, m, a, width)


class TestSystemParams:
    @given(st.integers(min_value=0, max_value=2**64 - 1), widths)
    def test_widths_and_distinctness(self, seed, width):
        params = new_system_params(Rng(seed), width)
        assert len(params.s) == width == len(params.m)
        assert params.s != params.m

    def test_m_is_redrawn_until_it_differs_from_s(self):
        s, m = bytes(8), b"\x01" * 8
        params = new_system_params(StubRng({8: [s, s, s, m]}), 8)
        assert (params.s, params.m) == (s, m)


class TestDataPipeline:
    @given(st.data(), widths, st.binary(min_size=1, max_size=400))
    def test_bundle_matches_oracle(self, data, width, payload):
        s, m, owner_key = (data.draw(fixed(width)) for _ in range(3))
        wrapped, payload_digest = make_cipher_bundle(payload, SystemParams(s, m), owner_key)
        assert (wrapped, payload_digest) == ref_cipher_bundle(payload, s, m, owner_key)
        assert recover_payload(wrapped, payload_digest, SystemParams(s, m)) == payload

    @given(
        st.data(),
        widths,
        st.lists(st.binary(min_size=1, max_size=400), min_size=1, max_size=12),
    )
    def test_reused_context_matches_oracle(self, data, width, payloads):
        # one SystemParams seals and opens every payload in drawn order, so
        # pads built for short and long masks alike serve later payloads
        s, m, owner_key = (data.draw(fixed(width)) for _ in range(3))
        params = SystemParams(s, m)
        for payload in payloads:
            wrapped, payload_digest = make_cipher_bundle(payload, params, owner_key)
            assert (wrapped, payload_digest) == ref_cipher_bundle(payload, s, m, owner_key)
            assert recover_payload(wrapped, payload_digest, params) == payload

    @given(
        st.data(),
        widths,
        st.lists(st.binary(min_size=1, max_size=80), min_size=1, max_size=4),
    )
    def test_mutated_open_matches_oracle(self, data, width, payloads):
        # one SystemParams seals every payload, then opens each bundle as sent
        # and once mutated; the oracle opens without a folded pad
        s, m, owner_key = (data.draw(fixed(width)) for _ in range(3))
        params = SystemParams(s, m)
        bundles = [make_cipher_bundle(payload, params, owner_key) for payload in payloads]
        sealed = {(len(wrapped), len(payload)) for (wrapped, _), payload in zip(bundles, payloads)}
        assert set(params._pads) == sealed
        handed = set()
        for (wrapped, payload_digest), payload in zip(bundles, payloads):
            assert recover_payload(wrapped, payload_digest, params) == payload
            corrupt = data.draw(mutated(wrapped, len(payload)))
            try:
                opened = ("ok", recover_payload(corrupt, payload_digest, params))
            except IntegrityError as exc:
                opened = (type(exc).__name__, str(exc))
            assert opened == ref_recover_payload(corrupt, payload_digest, s, m)
            handed.add(len(corrupt))
        assert sealed <= set(params._pads)
        assert {total for total, _ in params._pads} == handed | {total for total, _ in sealed}

    @given(
        st.data(),
        widths,
        st.lists(st.binary(min_size=1, max_size=80), min_size=1, max_size=4),
    )
    def test_memo_matches_oracle(self, data, width, payloads):
        # each mutated copy is opened before and after its original, twice
        # each, through one warm SystemParams; a failed open must not be memoised
        s, m, owner_key = (data.draw(fixed(width)) for _ in range(3))
        params = SystemParams(s, m)

        def opened(wrapped, payload_digest):
            before = dict(params._opened)
            try:
                payload = recover_payload(wrapped, payload_digest, params)
            except IntegrityError as exc:
                assert params._opened == before
                return type(exc).__name__, str(exc)
            assert params._opened[wrapped, payload_digest] is payload
            return "ok", payload

        for payload in payloads:
            wrapped, payload_digest = make_cipher_bundle(payload, params, owner_key)
            corrupt = data.draw(mutated(wrapped, len(payload)))
            for sent in (corrupt, wrapped, corrupt, wrapped):
                assert opened(sent, payload_digest) == ref_recover_payload(
                    sent, payload_digest, s, m
                )
            # the memoised bytes, advertised with another digest, still fail
            other = digest(payload_digest)
            with pytest.raises(IntegrityError) as caught:
                recover_payload(wrapped, other, params)
            assert caught.value.mismatch == (
                payload_digest.hex(),
                other.hex(),
            )

    @pytest.mark.parametrize("width", (1, 8, 32, 33))
    def test_first_prefix_clamp_boundary_matches_oracle(self, width):
        # the first length prefix of sealed bundles, overwritten to decode to
        # each side of the T - 8 clamp, and every total T up to 8 bytes
        rng = Rng(width)
        s, m, owner_key = rng.take(width), rng.take(width), rng.take(width)
        warm = SystemParams(s, m)
        prefix_key = int.from_bytes(keystream(derive_data_key(m, s), 4), "big")
        sent = []
        for payload in (b"\x07", rng.take(2), rng.take(40)):
            wrapped, payload_digest = make_cipher_bundle(payload, warm, owner_key)
            total = len(wrapped)
            decoded = (total - 9, total - 8, total - 7, total - 4, total, total + 1)
            for length in (*decoded, int.from_bytes(rng.take(4), "big")):
                prefix = (length ^ prefix_key).to_bytes(4, "big")
                sent.append((prefix + wrapped[4:], payload_digest))
            sent += [(wrapped[:cut], payload_digest) for cut in range(9)]
        for params in (SystemParams(s, m), warm):
            for wrapped, payload_digest in sent:
                try:
                    opened = ("ok", recover_payload(wrapped, payload_digest, params))
                except IntegrityError as exc:
                    opened = (type(exc).__name__, str(exc))
                assert opened == ref_recover_payload(wrapped, payload_digest, s, m)

    @pytest.mark.parametrize("width", (1, 8, 32, 64))
    def test_broken_prefix_falls_back_to_oracle_error(self, width):
        # a sealed bundle whose second length prefix decodes to k +- 1, 0 or
        # 2**32 - 1 (k the owner key's length), or whose first decodes to
        # T - 8 or past it, fails the straight-line open's check; its verdict
        # must be the oracle's, warm or fresh, and no failure may be memoised
        rng = Rng(100 + width)
        s, m, owner_key = rng.take(width), rng.take(width), rng.take(width)
        warm = SystemParams(s, m)
        sent = []
        for payload in (b"\x07", rng.take(5), rng.take(70)):
            wrapped, payload_digest = make_cipher_bundle(payload, warm, owner_key)
            assert recover_payload(wrapped, payload_digest, warm) == payload
            total, at = len(wrapped), len(payload) + 4
            stream = keystream(derive_data_key(m, s), total)
            for length in (width - 1, width + 1, 0, 2**32 - 1):
                prefix = (length ^ int.from_bytes(stream[at : at + 4], "big")).to_bytes(4, "big")
                sent.append((wrapped[:at] + prefix + wrapped[at + 4 :], payload_digest))
            first = ((total - 8) ^ int.from_bytes(stream[:4], "big")).to_bytes(4, "big")
            sent.append((first + wrapped[4:], payload_digest))
            # one past the clamp, over a last prefix that decodes to 0
            first = ((total - 7) ^ int.from_bytes(stream[:4], "big")).to_bytes(4, "big")
            sent.append((first + wrapped[4:-4] + stream[-4:], payload_digest))
        for params in (SystemParams(s, m), warm):
            for wrapped, payload_digest in sent:
                before = dict(params._opened)
                with pytest.raises(IntegrityError) as caught:
                    recover_payload(wrapped, payload_digest, params)
                assert params._opened == before
                expected = ref_recover_payload(wrapped, payload_digest, s, m)
                assert ("IntegrityError", str(caught.value)) == expected

    @given(st.data(), widths, st.binary(min_size=1, max_size=80))
    def test_owner_key_flip_opens_alike_warm_and_fresh(self, data, width, payload):
        # the trailing O_pk frame is not digest-bound (a strict xfail in
        # test_attacks.py), so a copy flipped there opens; it is memoised
        # under its own bytes, beside its original
        s, m, owner_key = (data.draw(fixed(width)) for _ in range(3))
        warm = SystemParams(s, m)
        wrapped, payload_digest = make_cipher_bundle(payload, warm, owner_key)
        assert recover_payload(wrapped, payload_digest, warm) == payload
        flipped = bytearray(wrapped)
        flipped[data.draw(st.integers(len(wrapped) - width, len(wrapped) - 1))] ^= data.draw(
            st.integers(1, 255)
        )
        flipped = bytes(flipped)
        for params in (warm, SystemParams(s, m)):
            assert recover_payload(flipped, payload_digest, params) == payload
        assert ref_recover_payload(flipped, payload_digest, s, m) == ("ok", payload)
        assert set(warm._opened) == {(wrapped, payload_digest), (flipped, payload_digest)}

    def test_empty_payload_rejected(self):
        with pytest.raises(InvalidWidthError, match="^refusing to encrypt an empty payload$"):
            make_cipher_bundle(b"", SystemParams(b"\x01" * 8, b"\x02" * 8), b"\x03" * 8)

    def test_decrypt_empty_is_empty(self):
        s, m = b"\x01" * 8, b"\x02" * 8
        wrapped = sym_encrypt(derive_data_key(m, s), frame_concat([b"", b"\x03" * 8]))
        assert recover_payload(wrapped, digest(b""), SystemParams(s, m)) == b""

    @given(st.data(), widths, st.binary(min_size=1, max_size=200))
    def test_wrap_length_relation(self, data, width, payload):
        rng = Rng(data.draw(st.integers(0, 2**32)))
        params = new_system_params(rng, width)
        owner_key = rng.take(width)
        wrapped, _ = make_cipher_bundle(payload, params, owner_key)
        assert len(wrapped) == len(payload) + width + 8
        fields = frame_split(sym_encrypt(derive_data_key(params.m, params.s), wrapped))
        assert len(fields) == 2
        assert fields[1] == owner_key

    def test_unwrap_rejects_garbage(self):
        s, m = b"\x01" * 8, b"\x02" * 8
        with pytest.raises(IntegrityError, match="^truncated length prefix at offset 0$"):
            recover_payload(b"\xff" * 3, digest(b""), SystemParams(s, m))
        three_fields = sym_encrypt(derive_data_key(m, s), frame_concat([b"a", b"b", b"c"]))
        with pytest.raises(IntegrityError, match="^expected 2 framed fields, found 3$"):
            recover_payload(three_fields, digest(b""), SystemParams(s, m))

    @given(st.data(), widths, st.binary(min_size=1, max_size=200))
    def test_bundle_round_trip(self, data, width, payload):
        rng = Rng(data.draw(st.integers(0, 2**32)))
        params = new_system_params(rng, width)
        owner_key = rng.take(width)
        wrapped, payload_digest = make_cipher_bundle(payload, params, owner_key)
        assert payload_digest == digest(payload)
        assert recover_payload(wrapped, payload_digest, params) == payload

    @given(st.data(), st.binary(min_size=1, max_size=80))
    def test_flips_never_return_wrong_payload(self, data, payload):
        width = 16
        rng = Rng(2024)
        params = new_system_params(rng, width)
        wrapped, payload_digest = make_cipher_bundle(payload, params, rng.take(width))
        # corrupt one byte anywhere in the data-bearing prefix
        span = len(wrapped) - width - 4
        index = data.draw(st.integers(0, span - 1))
        delta = data.draw(st.integers(1, 255))
        corrupt = bytearray(wrapped)
        corrupt[index] ^= delta
        with pytest.raises(IntegrityError):
            recover_payload(bytes(corrupt), payload_digest, params)

    def test_integrity_error_carries_both_digests(self):
        width = 16
        rng = Rng(5)
        params = new_system_params(rng, width)
        wrapped, _ = make_cipher_bundle(b"payload", params, rng.take(width))
        with pytest.raises(IntegrityError, match="does not match its advertised digest") as info:
            recover_payload(wrapped, digest(b"other"), params)
        assert info.value.mismatch == (digest(b"payload").hex(), digest(b"other").hex())


class TestValidationMessages:
    def test_nonce_width_enforced(self):
        g = GOLDEN_INPUT
        with pytest.raises(InvalidWidthError, match="differ in width"):
            validation_messages(
                g["user_id"],
                bytes.fromhex(GOLDEN_SESSION_KEY),
                g["s"],
                b"\x01",  # wrong width
                bytes.fromhex(GOLDEN_PRIVATE_KEY),
                g["m"],
                g["attribute"],
            )


class TestPrivateKey:
    def test_public_param_width_enforced(self):
        with pytest.raises(InvalidWidthError, match="differ in width"):
            derive_private_key(b"\x01" * 8, b"\x02" * 7, b"\x03" * 8, b"\x04" * 8)


class TestDataKey:
    def test_deterministic_and_order_sensitive(self):
        assert derive_data_key(b"m" * 8, b"s" * 8) == derive_data_key(b"m" * 8, b"s" * 8)
        assert derive_data_key(b"m" * 8, b"s" * 8) != derive_data_key(b"s" * 8, b"m" * 8)


class TestOracleIndependence:
    def test_reference_imports_only_hashlib_and_struct(self):
        source = Path(__file__).with_name("reference.py").read_text(encoding="utf-8")
        imported = set()
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.Import):
                imported.update(alias.name for alias in node.names)
            elif isinstance(node, ast.ImportFrom):
                imported.add("." * node.level + (node.module or ""))
        assert imported - {"hashlib", "struct"} == set()
