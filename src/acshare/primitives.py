"""Byte-string algebra underneath the sharing protocol.

Every value the protocol touches is an immutable byte string of known
width. The helpers here give those strings just enough structure to
express the scheme: a hash, a deterministic width changer, an injective
concatenation, XOR, and two flavours of big-integer arithmetic over
big-endian digits. A hash-counter stream cipher and a seeded byte
generator round things out.

None of this is production cryptography. The stream cipher is
deterministic and unauthenticated on purpose: runs must replay byte for
byte, and tamper detection happens a level up through payload digests.
"""

from __future__ import annotations

import hashlib
import struct
from typing import Sequence

DIGEST_WIDTH = 32  # SHA-256 output size in bytes


class InvalidWidthError(ValueError):
    """A requested byte width is out of range for the operation."""


class WidthMismatchError(ValueError):
    """Two operands that must share a width do not."""


class FramingError(ValueError):
    """Length-prefixed framing cannot be parsed back into fields."""


def digest(data: bytes) -> bytes:
    """SHA-256 of ``data``, 32 bytes."""
    return hashlib.sha256(data).digest()


def _counter(i: int) -> bytes:
    # Counters enter hashes as framed 4-byte big-endian fields.
    return struct.pack(">I", i)


def frame_concat(fields: Sequence[bytes]) -> bytes:
    """Concatenate ``fields`` injectively.

    Each field is preceded by its length as a 4-byte big-endian prefix,
    so distinct field lists never collide the way plain concatenation
    would (b"AB"+b"C" versus b"A"+b"BC").
    """
    if not fields:
        raise ValueError("frame_concat needs at least one field")
    out = bytearray()
    for piece in fields:
        if len(piece) > 0xFFFFFFFF:
            raise InvalidWidthError("field too long for a 4-byte length prefix")
        out += struct.pack(">I", len(piece))
        out += piece
    return bytes(out)


def frame_split(framed: bytes) -> list[bytes]:
    """Recover the exact field list produced by :func:`frame_concat`."""
    fields: list[bytes] = []
    pos = 0
    total = len(framed)
    while pos < total:
        if total - pos < 4:
            raise FramingError(f"truncated length prefix at offset {pos}")
        (length,) = struct.unpack_from(">I", framed, pos)
        pos += 4
        if total - pos < length:
            raise FramingError(
                f"field of {length} bytes overruns data at offset {pos}"
            )
        fields.append(framed[pos : pos + length])
        pos += length
    if not fields:
        raise FramingError("no framed fields present")
    return fields


def expand(data: bytes, width: int) -> bytes:
    """Map ``data`` to exactly ``width`` bytes, deterministically.

    Widths up to the digest size take a prefix of ``digest(data)``.
    Larger widths concatenate digests of ``(data, counter)`` frames for
    counter 0, 1, 2, ... and truncate to ``width``.
    """
    if width < 1:
        raise InvalidWidthError(f"target width must be >= 1, got {width}")
    if width <= DIGEST_WIDTH:
        return digest(data)[:width]
    blocks = bytearray()
    i = 0
    while len(blocks) < width:
        blocks += digest(frame_concat([data, _counter(i)]))
        i += 1
    return bytes(blocks[:width])


def xor_bytes(x: bytes, y: bytes) -> bytes:
    """Bytewise XOR of two equal-width strings."""
    if len(x) != len(y):
        raise WidthMismatchError(f"xor operands differ in width: {len(x)} vs {len(y)}")
    n = len(x)
    if n == 0:
        return b""
    return (int.from_bytes(x, "big") ^ int.from_bytes(y, "big")).to_bytes(n, "big")


def to_int(data: bytes) -> int:
    """Big-endian integer value of ``data``."""
    return int.from_bytes(data, "big")


def from_int(value: int, width: int) -> bytes:
    """Big-endian encoding of ``value`` in exactly ``width`` bytes."""
    try:
        return value.to_bytes(width, "big")
    except OverflowError as exc:
        raise InvalidWidthError(f"{value} does not fit in {width} bytes") from exc


def effective_modulus(modulus_src: bytes) -> int:
    """Integer modulus actually used by :func:`mod_reduce`.

    A source reading 0 or 1 would make reduction degenerate, so such
    sources are replaced by expanding ``(source, counter)`` frames with
    counter = 1, 2, ... until the integer value exceeds 1.
    """
    if not modulus_src:
        raise InvalidWidthError("modulus source must be at least 1 byte wide")
    n = to_int(modulus_src)
    width = len(modulus_src)
    counter = 1
    while n <= 1:
        n = to_int(expand(frame_concat([modulus_src, _counter(counter)]), width))
        counter += 1
    return n


def mod_reduce(x: bytes, modulus_src: bytes) -> bytes:
    """Reduce ``x`` modulo the integer encoded by ``modulus_src``.

    Both operands must share a width and the result keeps it. Degenerate
    sources (integer value 0 or 1) are re-derived, see
    :func:`effective_modulus`.
    """
    if len(x) != len(modulus_src):
        raise WidthMismatchError(
            f"mod_reduce operands differ in width: {len(x)} vs {len(modulus_src)}"
        )
    return from_int(to_int(x) % effective_modulus(modulus_src), len(x))


def mul_mod_width(x: bytes, y: bytes) -> bytes:
    """Multiply as integers, truncated to the shared width.

    The product is taken modulo 2**(8*width), i.e. only the low
    ``width`` bytes survive.
    """
    if len(x) != len(y):
        raise WidthMismatchError(
            f"mul operands differ in width: {len(x)} vs {len(y)}"
        )
    if not x:
        raise InvalidWidthError("mul_mod_width needs width >= 1")
    width = len(x)
    return from_int((to_int(x) * to_int(y)) % (1 << (8 * width)), width)


def keystream(key: bytes, length: int) -> bytes:
    """Hash-counter keystream: digests of ``(key, 0)``, ``(key, 1)``, ...

    truncated to ``length`` bytes.
    """
    if not key:
        raise InvalidWidthError("keystream needs a non-empty key")
    if length < 0:
        raise InvalidWidthError("keystream length must be >= 0")
    out = bytearray()
    i = 0
    while len(out) < length:
        out += digest(frame_concat([key, _counter(i)]))
        i += 1
    return bytes(out[:length])


def sym_encrypt(key: bytes, plaintext: bytes) -> bytes:
    """XOR ``plaintext`` with the key's hash-counter stream.

    Length preserving; an empty plaintext maps to an empty ciphertext.
    Decryption is the same operation, see :func:`sym_decrypt`.
    """
    if not plaintext:
        return b""
    return xor_bytes(plaintext, keystream(key, len(plaintext)))


def sym_decrypt(key: bytes, ciphertext: bytes) -> bytes:
    """Inverse of :func:`sym_encrypt` (the cipher is an involution)."""
    return sym_encrypt(key, ciphertext)


class Rng:
    """Deterministic byte source seeded by a 64-bit unsigned integer.

    The stream concatenates SHA-256 digests of (seed, block counter),
    both packed as 8-byte big-endian words. Identical seeds always
    yield identical byte streams, across platforms and runs.
    """

    SEED_MASK = (1 << 64) - 1

    def __init__(self, seed: int) -> None:
        if not 0 <= seed <= self.SEED_MASK:
            raise InvalidWidthError(f"seed must fit in 64 unsigned bits, got {seed}")
        self.seed = seed
        self._block = 0
        self._buffer = bytearray()

    def take(self, width: int) -> bytes:
        """Next ``width`` bytes of the stream."""
        if width < 1:
            raise InvalidWidthError(f"width must be >= 1, got {width}")
        while len(self._buffer) < width:
            self._buffer += digest(struct.pack(">QQ", self.seed, self._block))
            self._block += 1
        out = bytes(self._buffer[:width])
        del self._buffer[:width]
        return out


def derive_seed(master_seed: int, *parts: int | bytes) -> int:
    """Child seed for an independent stream, bound to ``parts``.

    Used when several runs hang off one master seed (sweep cells,
    scenario batteries) and must not share a byte stream.
    """
    fields: list[bytes] = [struct.pack(">Q", master_seed & Rng.SEED_MASK)]
    for part in parts:
        fields.append(part if isinstance(part, bytes) else struct.pack(">Q", part))
    return to_int(digest(frame_concat(fields))[:8])
