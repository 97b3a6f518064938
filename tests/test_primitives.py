from __future__ import annotations

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from acshare.primitives import (
    DIGEST_WIDTH,
    FramingError,
    InvalidWidthError,
    Rng,
    digest,
    effective_modulus,
    expand,
    first_of_pair,
    frame_concat,
    frame_pair,
    frame_split,
    keystream,
    mod_reduce,
    mul_mod_width,
    sym_encrypt,
    xor_bytes,
)

from reference import _fr, _grow, _rng_stream, _stream, ref_effective_modulus, ref_mod_reduce

short_bytes = st.binary(min_size=0, max_size=64)
nonempty_bytes = st.binary(min_size=1, max_size=64)
widths = st.sampled_from((8, 16, 32, 64))


class TestDigest:
    def test_empty_input_vector(self):
        assert digest(b"").hex() == (
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"
        )

    def test_abc_vector(self):
        assert digest(b"abc").hex() == (
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
        )

    def test_width(self):
        assert len(digest(b"anything")) == DIGEST_WIDTH


class TestFraming:
    def test_golden_encoding(self):
        assert frame_concat([b"AB", b"C"]).hex() == "0000000241420000000143"

    def test_split_boundaries_differ(self):
        assert frame_concat([b"AB", b"C"]) != frame_concat([b"A", b"BC"])

    def test_empty_list_rejected(self):
        with pytest.raises(ValueError):
            frame_concat([])

    def test_split_rejects_truncation(self):
        framed = frame_concat([b"hello"])
        with pytest.raises(FramingError):
            frame_split(framed[:-1])

    def test_split_rejects_overrun_length(self):
        with pytest.raises(FramingError):
            frame_split(b"\x00\x00\x00\x09ab")

    def test_split_rejects_empty(self):
        with pytest.raises(FramingError):
            frame_split(b"")

    @given(st.lists(short_bytes, min_size=1, max_size=6))
    def test_round_trip(self, fields):
        assert frame_split(frame_concat(fields)) == fields

    @given(st.lists(st.binary(max_size=300), min_size=1, max_size=6))
    @example([b""])
    @example([b"", b"x", b""])
    @example([bytes(256)])  # a length prefix that uses more than its last byte
    @example([b"", bytes(range(256)) * 2, b"tail"])
    def test_matches_oracle(self, fields):
        assert frame_concat(fields) == _fr(fields)

    @given(st.binary(max_size=300), st.binary(max_size=80))
    @example(b"", b"")
    def test_pair_matches_oracle(self, first, second):
        framed = frame_pair(first, second)
        assert framed == _fr([first, second])
        assert first_of_pair(framed) == first

    # any string: the first field exactly when frame_split finds two, else None
    @given(st.binary(max_size=24))
    @example(b"\x00\x00\x00\x00\x00\x00\x00")  # one byte short of two prefixes
    @example(b"\x00\x00\x00\x00\x00\x00\x00\x01")  # a second field overruns
    @example(b"\x00\x00\x00\x01a\x00\x00\x00\x00")  # (b"a", b"")
    @example(b"\x00\x00\x00\x00" * 3)  # three empty fields
    @example(b"\xff\xff\xff\xff" + bytes(8))  # the first prefix is 2**32 - 1
    def test_first_of_pair_agrees_with_split(self, framed):
        try:
            fields = frame_split(framed)
        except FramingError:
            fields = []
        expected = fields[0] if len(fields) == 2 else None
        assert first_of_pair(framed) == expected

    @given(st.binary(min_size=2, max_size=32), st.data())
    def test_injective_across_splits(self, blob, data):
        cut_a = data.draw(st.integers(0, len(blob)))
        cut_b = data.draw(st.integers(0, len(blob)))
        if cut_a != cut_b:
            assert frame_concat([blob[:cut_a], blob[cut_a:]]) != frame_concat(
                [blob[:cut_b], blob[cut_b:]]
            )


class TestExpand:
    def test_full_width_is_digest(self):
        assert expand(b"x", 32) == digest(b"x")

    def test_short_width_is_prefix(self):
        assert expand(b"x", 8) == digest(b"x")[:8]

    def test_wide_first_block(self):
        wide = expand(b"x", 64)
        assert wide[:32] == digest(frame_concat([b"x", b"\x00\x00\x00\x00"]))
        assert wide[32:] == digest(frame_concat([b"x", b"\x00\x00\x00\x01"]))

    def test_zero_width_rejected(self):
        with pytest.raises(InvalidWidthError):
            expand(b"x", 0)

    @given(short_bytes, widths)
    def test_width_contract(self, data, width):
        assert len(expand(data, width)) == width

    @given(short_bytes)
    def test_prefix_consistency(self, data):
        assert expand(data, 8) == expand(data, 32)[:8]


class TestCounterBlocks:
    # expand's multi-block branch and keystream share one counter stream;
    # lengths straddle the 32-byte digest size and span several blocks.
    # A frame's head is its data plus 8 bytes, and the frame is 4 more, so
    # data of 51, 52, 55, 56, 64, 119 and 120 bytes ends the frame or the
    # head just before or on a boundary of SHA-256's 64-byte blocks.

    @given(nonempty_bytes, st.integers(1, 300))
    @example(b"x", 1)
    @example(b"x", 31)
    @example(b"x", 32)
    @example(b"x", 33)
    @example(b"x", 63)
    @example(b"x", 64)
    @example(b"x", 65)
    @example(b"x", 96)
    @example(b"x", 128)
    @example(b"d" * 32, 64)
    @example(b"d" * 32, 96)
    @example(b"d" * 51, 64)
    @example(b"d" * 52, 64)
    @example(b"d" * 55, 64)
    @example(b"d" * 56, 64)
    @example(b"d" * 64, 64)
    @example(b"d" * 119, 64)
    @example(b"d" * 120, 64)
    def test_expand_matches_oracle(self, data, width):
        assert expand(data, width) == _grow(data, width)

    @given(nonempty_bytes, st.integers(1, 300))
    @example(b"k", 0)
    @example(b"k", 1)
    @example(b"k", 31)
    @example(b"k", 32)
    @example(b"k", 33)
    @example(b"k", 63)
    @example(b"k", 64)
    @example(b"k", 65)
    @example(b"k", 96)
    @example(b"k", 128)
    @example(b"k" * 32, 4)
    @example(b"k" * 32, 128)
    @example(b"k" * 56, 96)
    @example(b"k" * 51, 65)
    @example(b"k" * 52, 65)
    @example(b"k" * 55, 65)
    @example(b"k" * 56, 65)
    @example(b"k" * 64, 65)
    @example(b"k" * 119, 65)
    @example(b"k" * 120, 65)
    def test_keystream_matches_oracle(self, key, length):
        assert keystream(key, length) == _stream(key, length)


class TestXor:
    @given(st.binary(min_size=0, max_size=64), st.data())
    def test_involution(self, x, data):
        y = data.draw(st.binary(min_size=len(x), max_size=len(x)))
        assert xor_bytes(xor_bytes(x, y), y) == x

    @given(short_bytes)
    def test_zero_identity(self, x):
        assert xor_bytes(x, bytes(len(x))) == x

    def test_width_mismatch(self):
        with pytest.raises(InvalidWidthError, match="differ in width"):
            xor_bytes(b"ab", b"abc")


class TestModReduce:
    def test_single_byte_golden(self):
        assert mod_reduce(b"\x05", b"\x03") == b"\x02"

    def test_degenerate_zero_modulus(self):
        out = mod_reduce(b"\x05", b"\x00")
        assert len(out) == 1
        assert effective_modulus(b"\x00") > 1

    def test_degenerate_one_modulus(self):
        assert effective_modulus(b"\x01") > 1
        assert effective_modulus(b"\x00\x00\x00\x01") > 1

    def test_width_mismatch(self):
        with pytest.raises(InvalidWidthError, match="differ in width"):
            mod_reduce(b"\x01\x02", b"\x03")

    def test_empty_modulus_rejected(self):
        # an empty source reaches expand at width 0, which refuses it
        with pytest.raises(InvalidWidthError):
            effective_modulus(b"")
        with pytest.raises(InvalidWidthError):
            mod_reduce(b"", b"")

    @given(st.data(), widths)
    def test_result_below_modulus(self, data, width):
        x = data.draw(st.binary(min_size=width, max_size=width))
        src = data.draw(st.binary(min_size=width, max_size=width))
        out = mod_reduce(x, src)
        assert len(out) == width
        assert int.from_bytes(out, "big") < effective_modulus(src)

    @given(st.data(), widths)
    def test_matches_big_integer_oracle(self, data, width):
        x = data.draw(st.binary(min_size=width, max_size=width))
        src = data.draw(st.binary(min_size=width, max_size=width))
        assert mod_reduce(x, src) == ref_mod_reduce(x, src)
        assert effective_modulus(src) == ref_effective_modulus(src)


class TestMulModWidth:
    def test_identity(self):
        one = (1).to_bytes(4, "big")
        assert mul_mod_width(b"\xde\xad\xbe\xef", one) == b"\xde\xad\xbe\xef"

    def test_annihilator(self):
        assert mul_mod_width(b"\xde\xad\xbe\xef", bytes(4)) == bytes(4)

    def test_wraps_at_width(self):
        assert mul_mod_width(b"\x10", b"\x10") == b"\x00"

    def test_width_mismatch(self):
        with pytest.raises(InvalidWidthError, match="differ in width"):
            mul_mod_width(b"\x01", b"\x01\x02")

    def test_empty_operands_rejected(self):
        with pytest.raises(InvalidWidthError):
            mul_mod_width(b"", b"")

    @given(st.data(), widths)
    def test_commutative(self, data, width):
        x = data.draw(st.binary(min_size=width, max_size=width))
        y = data.draw(st.binary(min_size=width, max_size=width))
        assert mul_mod_width(x, y) == mul_mod_width(y, x)
        product = int.from_bytes(x, "big") * int.from_bytes(y, "big")
        assert int.from_bytes(mul_mod_width(x, y), "big") == product % (1 << (8 * width))


class TestStreamCipher:
    def test_keystream_prefix_stable(self):
        assert keystream(b"k", 10) == keystream(b"k", 64)[:10]

    def test_empty_key_rejected(self):
        with pytest.raises(InvalidWidthError):
            keystream(b"", 8)
        with pytest.raises(InvalidWidthError):
            sym_encrypt(b"", b"")  # even with nothing to encrypt

    def test_negative_length_rejected(self):
        with pytest.raises(InvalidWidthError):
            keystream(b"k", -1)

    def test_empty_plaintext(self):
        assert sym_encrypt(b"k", b"") == b""

    @given(nonempty_bytes, st.binary(min_size=0, max_size=256))
    def test_round_trip(self, key, plaintext):
        ciphertext = sym_encrypt(key, plaintext)
        assert len(ciphertext) == len(plaintext)
        assert sym_encrypt(key, ciphertext) == plaintext

    @given(nonempty_bytes, nonempty_bytes)
    def test_ciphertext_differs_from_plaintext_usually(self, key, plaintext):
        # a keystream byte can be zero, but never the whole stream
        if len(plaintext) >= 16:
            assert sym_encrypt(key, plaintext) != plaintext


class TestRng:
    def test_deterministic(self):
        assert Rng(7).take(32) == Rng(7).take(32)

    def test_seed_sensitivity(self):
        assert Rng(7).take(32) != Rng(8).take(32)

    def test_sequential_draws_differ(self):
        rng = Rng(0)
        assert rng.take(16) != rng.take(16)

    def test_seed_bounds(self):
        with pytest.raises(ValueError):
            Rng(-1)
        with pytest.raises(ValueError):
            Rng(2**64)
        Rng(2**64 - 1)

    @given(st.integers(min_value=0, max_value=2**64 - 1), widths)
    def test_width_contract(self, seed, width):
        assert len(Rng(seed).take(width)) == width

    def test_buffered_reads_match_fresh_reads(self):
        rng = Rng(3)
        combined = rng.take(5) + rng.take(11)
        assert combined == Rng(3).take(16)

    # widths either side of one and two 32-byte blocks, drawn in any mix
    @given(
        st.integers(min_value=0, max_value=2**64 - 1),
        st.lists(st.sampled_from((1, 31, 32, 33, 63, 64, 65)), min_size=1, max_size=8),
    )
    def test_mixed_widths_match_oracle(self, seed, takes):
        rng = Rng(seed)
        assert b"".join(rng.take(width) for width in takes) == _rng_stream(seed, sum(takes))
