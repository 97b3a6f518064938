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

# every length prefix and every counter is a 4-byte big-endian word
_U32 = struct.Struct(">I")
# a counter's own length prefix
_COUNTER_PREFIX = _U32.pack(_U32.size)


class InvalidWidthError(ValueError):
    """A byte width is out of range, or two operands' widths differ."""


class FramingError(ValueError):
    """Length-prefixed framing cannot be parsed back into fields."""


def digest(data: bytes) -> bytes:
    """SHA-256 of ``data``, 32 bytes."""
    return hashlib.sha256(data).digest()


def frame_concat(fields: Sequence[bytes]) -> bytes:
    """Concatenate ``fields`` injectively.

    Each field is preceded by its length as a 4-byte big-endian prefix,
    so distinct field lists never collide the way plain concatenation
    would (b"AB"+b"C" versus b"A"+b"BC").
    """
    if not fields:
        raise ValueError("frame_concat needs at least one field")
    return b"".join([_U32.pack(len(piece)) + piece for piece in fields])


def frame_split(framed: bytes) -> list[bytes]:
    """Recover the exact field list produced by :func:`frame_concat`."""
    fields: list[bytes] = []
    pos = 0
    total = len(framed)
    while pos < total:
        if total - pos < 4:
            raise FramingError(f"truncated length prefix at offset {pos}")
        (length,) = _U32.unpack_from(framed, pos)
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


def frame_pair(first: bytes, second: bytes) -> bytes:
    """``frame_concat([first, second])`` in one expression, which keeps
    keylength-sweep 3.5% faster (README, Perf-only constructs)."""
    return _U32.pack(len(first)) + first + _U32.pack(len(second)) + second


def first_of_pair(framed: bytes) -> bytes | None:
    """``first`` when ``framed`` is exactly ``frame_pair(first, second)``, else None.

    Reads only the two length prefixes; :func:`frame_split` names what is
    wrong with a string this refuses. Opening through ``frame_split``
    alone runs 5-14% slower on every workload (README, Perf-only constructs).
    """
    rest = len(framed) - 8
    if rest < 0:
        return None
    (length,) = _U32.unpack_from(framed)
    if length > rest or _U32.unpack_from(framed, length + 4)[0] != rest - length:
        return None
    return framed[4 : length + 4]


def _counter_blocks(data: bytes, length: int) -> bytes:
    """First ``length`` bytes of the digests of ``(data, 0)``, ``(data, 1)``, ... frames.

    Each frame is ``len(data) || data || len(counter) || counter``, and
    each counter adds one digest.
    """
    frame = _U32.pack(len(data)) + data + _COUNTER_PREFIX
    sha256 = hashlib.sha256
    out = b""
    for i in range(-(-length // DIGEST_WIDTH)):
        out += sha256(frame + _U32.pack(i)).digest()
    return out[:length]


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
    return _counter_blocks(data, width)


def xor_bytes(x: bytes, y: bytes) -> bytes:
    """Bytewise XOR of two equal-width strings."""
    if len(x) != len(y):
        raise InvalidWidthError(f"xor operands differ in width: {len(x)} vs {len(y)}")
    return (int.from_bytes(x, "big") ^ int.from_bytes(y, "big")).to_bytes(len(x), "big")


def effective_modulus(modulus_src: bytes) -> int:
    """Integer modulus actually used by :func:`mod_reduce`.

    A source reading 0 or 1 would make reduction degenerate, so such
    sources are replaced by expanding ``(source, counter)`` frames with
    counter = 1, 2, ... until the integer value exceeds 1.
    """
    n = int.from_bytes(modulus_src, "big")
    width = len(modulus_src)
    counter = 1
    while n <= 1:
        n = int.from_bytes(expand(frame_concat([modulus_src, _U32.pack(counter)]), width), "big")
        counter += 1
    return n


def mod_reduce(x: bytes, modulus_src: bytes) -> bytes:
    """Reduce ``x`` modulo the integer encoded by ``modulus_src``.

    Both operands must share a width and the result keeps it. Degenerate
    sources (integer value 0 or 1) are re-derived, see
    :func:`effective_modulus`.
    """
    if len(x) != len(modulus_src):
        raise InvalidWidthError(
            f"mod_reduce operands differ in width: {len(x)} vs {len(modulus_src)}"
        )
    return (int.from_bytes(x, "big") % effective_modulus(modulus_src)).to_bytes(len(x), "big")


def mul_mod_width(x: bytes, y: bytes) -> bytes:
    """Multiply as integers, truncated to the shared width.

    The product is taken modulo 2**(8*width), i.e. only the low
    ``width`` bytes survive.
    """
    if len(x) != len(y):
        raise InvalidWidthError(
            f"mul operands differ in width: {len(x)} vs {len(y)}"
        )
    if not x:
        raise InvalidWidthError("mul_mod_width needs width >= 1")
    width = len(x)
    product = int.from_bytes(x, "big") * int.from_bytes(y, "big")
    return (product % (1 << (8 * width))).to_bytes(width, "big")


def keystream(key: bytes, length: int) -> bytes:
    """Hash-counter keystream: digests of ``(key, 0)``, ``(key, 1)``, ...

    truncated to ``length`` bytes.
    """
    if not key:
        raise InvalidWidthError("keystream needs a non-empty key")
    if length < 0:
        raise InvalidWidthError("keystream length must be >= 0")
    return _counter_blocks(key, length)


def sym_encrypt(key: bytes, plaintext: bytes) -> bytes:
    """XOR ``plaintext`` with the key's hash-counter stream.

    Length preserving; an empty plaintext maps to an empty ciphertext.
    The cipher is an involution: decryption is the same operation.
    """
    return xor_bytes(plaintext, keystream(key, len(plaintext)))


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
