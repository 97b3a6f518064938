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
    access query         q    = M * expand(H(U_ID || U_pk), L)  mod 2^(8L)
    session key          U_sk = expand(SE(K_K, P || H(m || a) frame), L)
    validation           v1   = expand(H(U_ID || U_sk || s), L) mod r
                         v2   = expand(H(U_ID || U_pk || m), L) mod expand(a, L)

where P is the per-principal public parameter, a the attribute vector,
r a per-round nonce, O_pk the data owner's private key, and
K_K = H(m || "KGC") the key the centre wraps session material under.

The bundle format is two functions: the owner's encryption phase,
:func:`make_cipher_bundle` (``D_E``, then ``D_C`` and the payload
digest), and the user's data-sharing phase, :func:`recover_payload`
(its inverse plus the digest check). Both take a :class:`CipherContext`,
which holds ``K_D`` and the ``H(s || m)`` mask of one principal.
"""

from __future__ import annotations

from dataclasses import dataclass

from .primitives import (
    DIGEST_WIDTH,
    CounterStream,
    FramingError,
    Rng,
    digest,
    expand,
    frame_concat,
    frame_split,
    mod_reduce,
    mul_mod_width,
    sym_encrypt,
    xor_bytes,
)

DATA_KEY_LABEL = b"DATA"
SESSION_KEY_LABEL = b"KGC"


class EmptyPayloadError(ValueError):
    """Encrypting an empty payload is refused."""


class CorruptCiphertextError(ValueError):
    """A wrapped ciphertext failed to unwrap into well-framed fields."""


class IntegrityError(ValueError):
    """A recovered payload does not match its advertised digest.

    ``actual`` and ``advertised`` hold both digests as hex so the
    failure can be rechecked from a transcript.
    """

    def __init__(self, message: str, actual: str | None = None, advertised: str | None = None):
        super().__init__(message)
        self.actual = actual
        self.advertised = advertised


@dataclass(frozen=True)
class SystemParams:
    """Run-wide secret parameters, shared over private channels only."""

    s: bytes
    m: bytes


@dataclass(frozen=True)
class Credentials:
    user_id: bytes
    password: bytes


@dataclass(frozen=True)
class KeyMaterial:
    """Per-principal key material issued by the generation centre."""

    public_param: bytes
    attribute: bytes
    private_key: bytes


def new_system_params(rng: Rng, width: int) -> SystemParams:
    """Sample distinct system parameters ``s`` and ``m`` at ``width``."""
    s = rng.take(width)
    m = rng.take(width)
    while m == s:  # distinct by contract; a collision is astronomically rare
        m = rng.take(width)
    return SystemParams(s=s, m=m)


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


def access_query(reg_digest: bytes, user_id: bytes, private_key: bytes) -> bytes:
    """Access query: registration digest times a key-bound factor."""
    factor = expand(digest(frame_concat([user_id, private_key])), len(reg_digest))
    return mul_mod_width(reg_digest, factor)


def derive_session_key(public_param: bytes, m: bytes, attribute: bytes) -> bytes:
    """Session key issued after a successful access query.

    Deterministic in (public parameter, m, attribute): re-issuing for
    the same principal reproduces the same key.
    """
    wrap_key = digest(frame_concat([m, SESSION_KEY_LABEL]))
    body = frame_concat([public_param, digest(frame_concat([m, attribute]))])
    return expand(sym_encrypt(wrap_key, body), len(m))


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


class CipherContext:
    """One principal's data-key state, built once from ``s`` and ``m``.

    Every payload of a run is sealed and opened under the same data key
    ``K_D`` and the same ``H(s || m)`` mask seed, so both streams are
    derived once and reused: a keystream or mask request returns a
    prefix of the stream, grown only as far as the longest request.
    ``mask(n)`` equals ``expand(H(s || m), n)``, whose first 32 bytes
    are not a prefix of its longer outputs, so widths up to the digest
    size are served from ``digest(H(s || m))`` and longer ones from the
    counter stream.
    """

    def __init__(self, s: bytes, m: bytes) -> None:
        mask_seed = digest(frame_concat([s, m]))
        self._keystream = CounterStream(derive_data_key(m, s))
        self._short_mask = digest(mask_seed)
        self._long_mask = CounterStream(mask_seed)

    def apply(self, data: bytes) -> bytes:
        """``SE(K_D, data)``: XOR with the data key's stream (an involution)."""
        return xor_bytes(data, self._keystream.take(len(data)))

    def mask(self, length: int) -> bytes:
        """``expand(H(s || m), length)``."""
        if length <= DIGEST_WIDTH:
            return self._short_mask[:length]
        return self._long_mask.take(length)


def make_cipher_bundle(
    payload: bytes, cipher: CipherContext, owner_key: bytes
) -> tuple[bytes, bytes]:
    """Owner-side pipeline: encrypt, wrap, and fingerprint one payload.

    Returns ``(wrapped, payload_digest)``. Empty payloads are refused: a
    zero-length ciphertext would be indistinguishable from a missing
    one. The wrapped ciphertext is 8 bytes (two length prefixes) longer
    than the payload and owner key combined.
    """
    if not payload:
        raise EmptyPayloadError("refusing to encrypt an empty payload")
    encrypted = xor_bytes(cipher.apply(payload), cipher.mask(len(payload)))
    wrapped = cipher.apply(frame_concat([encrypted, owner_key]))
    return wrapped, digest(payload)


def recover_payload(wrapped: bytes, payload_digest: bytes, cipher: CipherContext) -> bytes:
    """User-side pipeline: unwrap, decrypt, and verify one payload.

    Raises :class:`CorruptCiphertextError` when framing breaks (the
    ciphertext was corrupted, or the wrong key was used) and
    :class:`IntegrityError` when the digest check fails; a corrupted
    share can never come back as a silently wrong payload.
    """
    try:
        fields = frame_split(cipher.apply(wrapped))
    except FramingError as exc:
        raise CorruptCiphertextError(str(exc)) from exc
    if len(fields) != 2:
        raise CorruptCiphertextError(f"expected 2 framed fields, found {len(fields)}")
    encrypted = fields[0]
    payload = cipher.apply(xor_bytes(encrypted, cipher.mask(len(encrypted))))
    actual = digest(payload)
    if actual != payload_digest:
        raise IntegrityError(
            "recovered payload does not match its advertised digest",
            actual=actual.hex(),
            advertised=payload_digest.hex(),
        )
    return payload
