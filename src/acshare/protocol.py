"""Key, query, and ciphertext derivations for the sharing scheme.

The scheme runs between a user, a data owner, a cloud server, and a key
generation centre (KGC). All parties hold two secret system parameters
``s`` and ``m`` of width L bytes, distributed over ideal private
channels. Every function below is pure: given the same inputs the
user-side and server-side computations agree byte for byte, which is
exactly what the server checks at each gate.

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
"""

from __future__ import annotations

from dataclasses import dataclass

from .primitives import (
    FramingError,
    Rng,
    WidthMismatchError,
    digest,
    expand,
    frame_concat,
    frame_split,
    mod_reduce,
    mul_mod_width,
    sym_decrypt,
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
    width: int


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


@dataclass(frozen=True)
class CipherBundle:
    """Owner-side encryption product for one payload."""

    wrapped: bytes  # framed (encrypted, owner key) under the data key
    payload_digest: bytes  # digest of the clear payload, checked on recovery


@dataclass(frozen=True)
class ValidationPair:
    v1: bytes
    v2: bytes
    nonce: bytes


def new_system_params(rng: Rng, width: int) -> SystemParams:
    """Sample distinct system parameters ``s`` and ``m`` at ``width``."""
    s = rng.take(width)
    m = rng.take(width)
    while m == s:  # distinct by contract; a collision is astronomically rare
        m = rng.take(width)
    return SystemParams(s=s, m=m, width=width)


def registration_digest(user_id: bytes, password: bytes, s: bytes, width: int) -> bytes:
    """Digest binding a user's identity and password to parameter ``s``.

    The user submits this value at registration; the server recomputes
    it from the stored credentials. Neither direction reveals the
    password or ``s`` on its own.
    """
    bound = expand(digest(frame_concat([user_id, s])), width)
    masked = expand(password, width)
    return xor_bytes(bound, masked)


def derive_private_key(
    m: bytes, public_param: bytes, s: bytes, attribute: bytes, width: int
) -> bytes:
    """Private key: ``m`` reduced modulo the masked public parameter."""
    if len(m) != width:
        raise WidthMismatchError(f"m must be {width} bytes, got {len(m)}")
    if len(public_param) != width:
        raise WidthMismatchError(
            f"public parameter must be {width} bytes, got {len(public_param)}"
        )
    mask = expand(frame_concat([s, attribute]), width)
    return mod_reduce(m, xor_bytes(public_param, mask))


def derive_data_key(m: bytes, s: bytes) -> bytes:
    """Symmetric data key shared by owner and authorized users."""
    return digest(frame_concat([m, s, DATA_KEY_LABEL]))


def encrypt_data(payload: bytes, s: bytes, m: bytes) -> bytes:
    """Encrypt a payload under the data key, masked with H(s || m).

    Length preserving. Empty payloads are refused: a zero-length
    ciphertext would be indistinguishable from a missing one.
    """
    if not payload:
        raise EmptyPayloadError("refusing to encrypt an empty payload")
    key = derive_data_key(m, s)
    mask = expand(digest(frame_concat([s, m])), len(payload))
    return xor_bytes(sym_encrypt(key, payload), mask)


def decrypt_data(encrypted: bytes, s: bytes, m: bytes) -> bytes:
    """Invert :func:`encrypt_data`; an empty input maps to empty output."""
    if not encrypted:
        return b""
    key = derive_data_key(m, s)
    mask = expand(digest(frame_concat([s, m])), len(encrypted))
    return sym_decrypt(key, xor_bytes(encrypted, mask))


def wrap_ciphertext(encrypted: bytes, owner_key: bytes, data_key: bytes) -> bytes:
    """Bind the encrypted payload to the owner's key for cloud storage.

    The result is 8 bytes (two length prefixes) longer than the inputs
    combined.
    """
    return sym_encrypt(data_key, frame_concat([encrypted, owner_key]))


def unwrap_ciphertext(wrapped: bytes, data_key: bytes) -> tuple[bytes, bytes]:
    """Recover ``(encrypted, owner_key)`` from a wrapped ciphertext.

    Malformed framing after decryption means the ciphertext was
    corrupted in storage or transit (or the wrong key was used).
    """
    clear = sym_decrypt(data_key, wrapped)
    try:
        fields = frame_split(clear)
    except FramingError as exc:
        raise CorruptCiphertextError(str(exc)) from exc
    if len(fields) != 2:
        raise CorruptCiphertextError(
            f"expected 2 framed fields, found {len(fields)}"
        )
    return fields[0], fields[1]


def access_query(reg_digest: bytes, user_id: bytes, private_key: bytes, width: int) -> bytes:
    """Access query: registration digest times a key-bound factor."""
    factor = expand(digest(frame_concat([user_id, private_key])), width)
    return mul_mod_width(reg_digest, factor)


def derive_session_key(public_param: bytes, m: bytes, attribute: bytes, width: int) -> bytes:
    """Session key issued after a successful access query.

    Deterministic in (public parameter, m, attribute): re-issuing for
    the same principal reproduces the same key.
    """
    wrap_key = digest(frame_concat([m, SESSION_KEY_LABEL]))
    body = frame_concat([public_param, digest(frame_concat([m, attribute]))])
    return expand(sym_encrypt(wrap_key, body), width)


def validation_messages(
    user_id: bytes,
    session_key: bytes,
    s: bytes,
    nonce: bytes,
    private_key: bytes,
    m: bytes,
    attribute: bytes,
    width: int,
) -> ValidationPair:
    """Pair of check values the server recomputes from stored state.

    ``v1`` binds the session key and ``s`` under the round nonce;
    ``v2`` binds the private key and ``m`` under the attribute vector.
    """
    if len(nonce) != width:
        raise WidthMismatchError(f"nonce must be {width} bytes, got {len(nonce)}")
    v1 = mod_reduce(expand(digest(frame_concat([user_id, session_key, s])), width), nonce)
    v2 = mod_reduce(
        expand(digest(frame_concat([user_id, private_key, m])), width),
        expand(attribute, width),
    )
    return ValidationPair(v1=v1, v2=v2, nonce=nonce)


def make_cipher_bundle(payload: bytes, params: SystemParams, owner_key: bytes) -> CipherBundle:
    """Owner-side pipeline: encrypt, wrap, and fingerprint one payload."""
    key = derive_data_key(params.m, params.s)
    encrypted = encrypt_data(payload, params.s, params.m)
    wrapped = wrap_ciphertext(encrypted, owner_key, key)
    return CipherBundle(wrapped=wrapped, payload_digest=digest(payload))


def recover_payload(wrapped: bytes, payload_digest: bytes, s: bytes, m: bytes) -> bytes:
    """User-side pipeline: unwrap, decrypt, and verify one payload.

    Raises :class:`CorruptCiphertextError` when framing breaks and
    :class:`IntegrityError` when the digest check fails; a corrupted
    share can never come back as a silently wrong payload.
    """
    key = derive_data_key(m, s)
    encrypted, _owner_key = unwrap_ciphertext(wrapped, key)
    payload = decrypt_data(encrypted, s, m)
    actual = digest(payload)
    if actual != payload_digest:
        raise IntegrityError(
            "recovered payload does not match its advertised digest",
            actual=actual.hex(),
            advertised=payload_digest.hex(),
        )
    return payload
