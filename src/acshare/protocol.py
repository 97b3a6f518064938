"""Key, query, and ciphertext derivations for the sharing scheme.

The scheme runs between a user, a data owner, a cloud server, and a key
generation centre (KGC). All parties hold two secret system parameters
``s`` and ``m`` of width L bytes, distributed over ideal private
channels. Every function below is pure: given the same inputs the
user-side and server-side computations agree byte for byte, which is
exactly what the server checks at each gate. No derivation takes L as
an argument: L is the width of its operands, which all share it.

Shapes, for width L (H is SHA-256, SE the hash-counter stream cipher,
``||`` length-prefixed concatenation, integers big-endian):

    registration digest  M    = expand(H(U_ID || s), L) xor expand(U_ps, L)
    private key          U_pk = m mod (P xor expand(s || a, L))
    data key             K_D  = H(m || s || "DATA")
    encrypted payload    D_E  = SE(K_D, D) xor expand(H(s || m), |D|)
    wrapped ciphertext   D_C  = SE(K_D, D_E || O_pk frame)
                              = frame(D, O_pk) xor Q(T, n)
    access query         q    = M * expand(H(U_ID || U_pk), L)  mod 2^(8L)
    session key          U_sk = expand(SE(K_K, P || H(m || a) frame), L)
    validation           v1   = expand(H(U_ID || U_sk || s), L) mod r
                         v2   = expand(H(U_ID || U_pk || m), L) mod expand(a, L)

where P is the per-principal public parameter, a the attribute vector,
r a per-round nonce, O_pk the data owner's private key, and
K_K = H(m || "KGC") the key the centre wraps session material under.

The three XORs of ``D_C`` fold into one pad. With ``ks`` the stream of
``K_D``, ``T = |D_C|`` and ``n = |D|``, both length prefixes stay
under ``ks`` alone:

    Q(T, n) = ks[:T] xor (0^4 || ks[:n] xor expand(H(s || m), n) || 0^(T-4-n))

The bundle format is two functions, each one XOR with ``Q``: the
owner's encryption phase, :func:`make_cipher_bundle` (``D_C`` and the
payload digest), and the user's data-sharing phase,
:func:`recover_payload` (its inverse plus the digest check). Both take
the run's :class:`SystemParams`, which every principal shares and which
keeps each ``Q``, so each is built once a run. Both run straight-line
on a sound bundle: sealing frames ``(D, O_pk)`` with :func:`frame_pair`,
and opening takes ``D`` back with :func:`first_of_pair`. Only a share
that does not frame exactly two fields goes through :func:`frame_split`,
which names what broke.

The four gate derivations (registration digest, access query, session
key, validation pair) each keep their last call (``lru_cache(maxsize=1)``).
A gate's two sides derive from equal bytes in every honest exchange, so
the server's derivation just after the requester's reuses its output;
one differing byte is computed. Deriving every value afresh costs
adversary-battery 21% (README, Perf-only constructs).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .primitives import (
    FramingError,
    InvalidWidthError,
    Rng,
    digest,
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

DATA_KEY_LABEL = b"DATA"
SESSION_KEY_LABEL = b"KGC"


class IntegrityError(ValueError):
    """A share does not open to a framed payload that matches its digest.

    ``mismatch`` is ``(actual, advertised)`` digest hex when the digest
    check failed, and ``None`` when the framing broke.
    """

    def __init__(self, message: str, mismatch: tuple[str, str] | None = None):
        super().__init__(message)
        self.mismatch = mismatch


@dataclass
class SystemParams:
    """Run-wide secret parameters, shared over private channels only.

    Every principal of a run holds the same object, so it also keeps the
    run's bundle state. A bundle is ``D_C = frame(D, O_pk) xor Q(T, n)``,
    and every bundle of a run is sealed under the same ``K_D`` and
    ``H(s || m)`` mask seed, so ``Q`` depends only on the two lengths:
    each ``Q(T, n)`` is built once, from ``keystream(K_D, T)`` and
    ``expand(H(s || m), n)``, and kept as an integer. ``prefix_key`` is
    ``ks[:4]`` as an integer, and ``_opened`` maps each
    ``(wrapped, payload_digest)`` whose digest check passed to its payload.
    Each pays (README, Perf-only constructs): without ``_pads``
    keylength-sweep runs 3.3 times as long, without ``prefix_key`` 6%
    longer, and without ``_opened`` share-heavy runs twice as long,
    while keylength-sweep, which opens each bundle once, runs 7% faster.
    """

    s: bytes
    m: bytes

    def __post_init__(self) -> None:
        self._data_key = derive_data_key(self.m, self.s)
        self._mask_seed = digest(frame_concat([self.s, self.m]))
        self._pads: dict[tuple[int, int], int] = {}
        self._opened: dict[tuple[bytes, bytes], bytes] = {}
        self.prefix_key = int.from_bytes(keystream(self._data_key, 4), "big")

    def bundle_pad(self, total: int, length: int) -> int:
        """``Q(total, length)`` as an integer; ``length <= total - 4``, or 0."""
        pad = self._pads.get((total, length))
        if pad is None:
            stream = keystream(self._data_key, total)
            pad = int.from_bytes(stream, "big")
            if length:
                mask = expand(self._mask_seed, length)
                inner = int.from_bytes(stream[:length], "big") ^ int.from_bytes(mask, "big")
                pad ^= inner << 8 * (total - 4 - length)
            self._pads[total, length] = pad
        return pad


def new_system_params(rng: Rng, width: int) -> SystemParams:
    """Sample distinct system parameters ``s`` and ``m`` at ``width``."""
    s = rng.take(width)
    m = rng.take(width)
    while m == s:  # distinct by contract; a collision is astronomically rare
        m = rng.take(width)
    return SystemParams(s=s, m=m)


@lru_cache(maxsize=1)
def registration_digest(user_id: bytes, password: bytes, s: bytes) -> bytes:
    """Digest binding a user's identity and password to parameter ``s``.

    The user submits this value at registration; the server recomputes
    it from the stored credentials. Neither direction reveals the
    password or ``s`` on its own.
    """
    width = len(s)
    bound = expand(digest(frame_concat([user_id, s])), width)
    masked = expand(password, width)
    return xor_bytes(bound, masked)


def derive_private_key(m: bytes, public_param: bytes, s: bytes, attribute: bytes) -> bytes:
    """Private key: ``m`` reduced modulo the masked public parameter."""
    mask = expand(frame_concat([s, attribute]), len(m))
    return mod_reduce(m, xor_bytes(public_param, mask))


def derive_data_key(m: bytes, s: bytes) -> bytes:
    """Symmetric data key shared by owner and authorized users."""
    return digest(frame_concat([m, s, DATA_KEY_LABEL]))


@lru_cache(maxsize=1)
def access_query(reg_digest: bytes, user_id: bytes, private_key: bytes) -> bytes:
    """Access query: registration digest times a key-bound factor."""
    factor = expand(digest(frame_concat([user_id, private_key])), len(reg_digest))
    return mul_mod_width(reg_digest, factor)


@lru_cache(maxsize=1)
def derive_session_key(public_param: bytes, m: bytes, attribute: bytes) -> bytes:
    """Session key issued after a successful access query.

    Deterministic in (public parameter, m, attribute): re-issuing for
    the same principal reproduces the same key.
    """
    wrap_key = digest(frame_concat([m, SESSION_KEY_LABEL]))
    body = frame_concat([public_param, digest(frame_concat([m, attribute]))])
    return expand(sym_encrypt(wrap_key, body), len(m))


@lru_cache(maxsize=1)
def validation_messages(
    user_id: bytes,
    session_key: bytes,
    s: bytes,
    nonce: bytes,
    private_key: bytes,
    m: bytes,
    attribute: bytes,
) -> tuple[bytes, bytes]:
    """Pair ``(v1, v2)`` of check values the server recomputes from stored state.

    ``v1`` binds the session key and ``s`` under the round nonce;
    ``v2`` binds the private key and ``m`` under the attribute vector.
    """
    width = len(s)
    v1 = mod_reduce(expand(digest(frame_concat([user_id, session_key, s])), width), nonce)
    v2 = mod_reduce(
        expand(digest(frame_concat([user_id, private_key, m])), width),
        expand(attribute, width),
    )
    return v1, v2


def make_cipher_bundle(
    payload: bytes, params: SystemParams, owner_key: bytes
) -> tuple[bytes, bytes]:
    """Owner-side pipeline: encrypt, wrap, and fingerprint one payload.

    Returns ``(wrapped, payload_digest)``. Empty payloads are refused: a
    zero-length ciphertext would be indistinguishable from a missing
    one. The wrapped ciphertext is 8 bytes (two length prefixes) longer
    than the payload and owner key combined: :func:`frame_pair` builds
    ``frame(D, O_pk)`` without a field list.
    """
    if not payload:
        raise InvalidWidthError("refusing to encrypt an empty payload")
    framed = frame_pair(payload, owner_key)
    total = len(framed)
    pad = params.bundle_pad(total, len(payload))
    wrapped = (int.from_bytes(framed, "big") ^ pad).to_bytes(total, "big")
    return wrapped, digest(payload)


def recover_payload(wrapped: bytes, payload_digest: bytes, params: SystemParams) -> bytes:
    """User-side pipeline: unwrap, decrypt, and verify one payload.

    Raises :class:`IntegrityError` when framing breaks (the ciphertext
    was corrupted, or the wrong key was used) or the digest check fails;
    a corrupted share can never come back as a silently wrong payload.

    ``n`` is the first length prefix, clamped to ``T - 8`` (0 below 8
    bytes), past which two fields cannot frame. ``Q(T, n')`` for
    ``n' <= n`` leaves every length prefix under ``ks`` alone, so the
    framing verdict and its message match those of ``SE(K_D, wrapped)``.
    When the unpadded bytes frame exactly two fields, :func:`first_of_pair`
    returns the payload; any other share is split by :func:`frame_split`,
    whose error is the message. Either way the payload's digest is checked.

    A pair that opened is kept in ``params`` and its payload returned
    again; a failure is never kept, so it is rechecked every time.
    """
    payload = params._opened.get((wrapped, payload_digest))
    if payload is not None:
        return payload
    total = len(wrapped)
    length = 0
    if total >= 8:
        length = min(int.from_bytes(wrapped[:4], "big") ^ params.prefix_key, total - 8)
    pad = params.bundle_pad(total, length)
    plain = (int.from_bytes(wrapped, "big") ^ pad).to_bytes(total, "big")
    payload = first_of_pair(plain)
    if payload is None:
        try:
            fields = frame_split(plain)
        except FramingError as exc:
            raise IntegrityError(str(exc)) from exc
        if len(fields) != 2:
            raise IntegrityError(f"expected 2 framed fields, found {len(fields)}")
        payload = fields[0]
    actual = digest(payload)
    if actual != payload_digest:
        raise IntegrityError(
            "recovered payload does not match its advertised digest",
            (actual.hex(), payload_digest.hex()),
        )
    params._opened[wrapped, payload_digest] = payload
    return payload
