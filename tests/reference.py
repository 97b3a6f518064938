"""Hand-rolled reference computations for cross-checking the package.

Everything here is written directly against the derivation rules using
hashlib and struct alone, with no imports from the package under test.
Keep it that way: the whole point is that two separately written
implementations must land on identical bytes.
"""

import hashlib
import struct


def _h(data):
    return hashlib.sha256(data).digest()


def _fr(parts):
    out = b""
    for p in parts:
        out += struct.pack(">I", len(p)) + p
    return out


def _grow(data, width):
    # prefix of one digest when it fits, counter-extended blocks otherwise
    if width <= 32:
        return _h(data)[:width]
    blocks = b""
    i = 0
    while len(blocks) < width:
        blocks += _h(_fr([data, struct.pack(">I", i)]))
        i += 1
    return blocks[:width]


def _num(data):
    return int.from_bytes(data, "big")


def ref_effective_modulus(src):
    n = _num(src)
    counter = 1
    while n < 2:
        n = _num(_grow(_fr([src, struct.pack(">I", counter)]), len(src)))
        counter += 1
    return n


def ref_mod_reduce(x, src):
    return (_num(x) % ref_effective_modulus(src)).to_bytes(len(src), "big")


def _xor(a, b):
    return bytes(x ^ y for x, y in zip(a, b))


def _stream(key, length):
    out = b""
    i = 0
    while len(out) < length:
        out += _h(_fr([key, struct.pack(">I", i)]))
        i += 1
    return out[:length]


def ref_registration_digest(user_id, password, s, width):
    return _xor(_grow(_h(_fr([user_id, s])), width), _grow(password, width))


def ref_private_key(m, public_param, s, attribute, width):
    mask = _xor(public_param, _grow(_fr([s, attribute]), width))
    return ref_mod_reduce(m, mask)


def ref_access_query(reg_digest, user_id, private_key, width):
    factor = _grow(_h(_fr([user_id, private_key])), width)
    product = _num(reg_digest) * _num(factor)
    return (product % (1 << (8 * width))).to_bytes(width, "big")


def ref_session_key(public_param, m, attribute, width):
    wrap_key = _h(_fr([m, b"KGC"]))
    inner = _fr([public_param, _h(_fr([m, attribute]))])
    return _grow(_xor(inner, _stream(wrap_key, len(inner))), width)


def ref_validation_pair(user_id, session_key, s, nonce, private_key, m, attribute, width):
    v1 = ref_mod_reduce(_grow(_h(_fr([user_id, session_key, s])), width), nonce)
    v2 = ref_mod_reduce(_grow(_h(_fr([user_id, private_key, m])), width), _grow(attribute, width))
    return v1, v2


def ref_cipher_bundle(payload, s, m, owner_key):
    key = _h(_fr([m, s, b"DATA"]))
    masked = _xor(_xor(payload, _stream(key, len(payload))), _grow(_h(_fr([s, m])), len(payload)))
    inner = _fr([masked, owner_key])
    return _xor(inner, _stream(key, len(inner))), _h(payload)


def _split(framed):
    # read length-prefixed fields back: (fields, None), or (None, the error)
    fields = []
    pos = 0
    while pos < len(framed):
        if len(framed) - pos < 4:
            return None, f"truncated length prefix at offset {pos}"
        (length,) = struct.unpack(">I", framed[pos : pos + 4])
        pos += 4
        if len(framed) - pos < length:
            return None, f"field of {length} bytes overruns data at offset {pos}"
        fields.append(framed[pos : pos + length])
        pos += length
    if not fields:
        return None, "no framed fields present"
    return fields, None


def ref_recover_payload(wrapped, payload_digest, s, m):
    # ("ok", payload), or (name of the error class, its message)
    key = _h(_fr([m, s, b"DATA"]))
    fields, error = _split(_xor(wrapped, _stream(key, len(wrapped))))
    if error is not None:
        return "IntegrityError", error
    if len(fields) != 2:
        return "IntegrityError", f"expected 2 framed fields, found {len(fields)}"
    masked = fields[0]
    encrypted = _xor(masked, _grow(_h(_fr([s, m])), len(masked)))
    payload = _xor(encrypted, _stream(key, len(encrypted)))
    if _h(payload) != payload_digest:
        return "IntegrityError", "recovered payload does not match its advertised digest"
    return "ok", payload


def _rng_stream(seed, n):
    # first n bytes of the seeded generator: digests of (seed, block) as two u64s
    out = b""
    block = 0
    while len(out) < n:
        out += _h(struct.pack(">QQ", seed, block))
        block += 1
    return out[:n]
