"""Upload encryption fallback (paper §3, §5: "or BrowserFlow intercepts
the data transfer ... e.g. by encrypting the data before transmission").

A deterministic stream cipher: keystream block *i* is
HMAC-SHA256(key, nonce ‖ i as 8 big-endian bytes). Not a novel
construction — the point in BrowserFlow is that the *service* receives
no plaintext, while the client (which holds the key) can still
round-trip its own data. Text ciphertext is hex-armoured with a marker
prefix so tests and services can recognise protected payloads; binary
containers (snapshot files) use the bytes form, ``nonce ‖ ciphertext``.

The HMAC is computed from two SHA-256 states keyed once per cipher, so
a keystream block costs two state copies rather than a fresh ``hmac``
object, and the XOR is one integer operation over the whole payload.
"""

from __future__ import annotations

import hashlib

MARKER = "bf-enc:"

#: Nonce length in bytes (the leading bytes of the bytes form).
NONCE_SIZE = 12

_BLOCK = 64  # SHA-256 block size, the HMAC key pad length
_IPAD = bytes(x ^ 0x36 for x in range(256))
_OPAD = bytes(x ^ 0x5C for x in range(256))


class UploadCipher:
    """SHA-256-CTR stream cipher with a per-deployment secret key."""

    def __init__(self, key: str) -> None:
        if not key:
            raise ValueError("cipher key must be non-empty")
        self._key = key.encode("utf-8")
        pad = self._key
        if len(pad) > _BLOCK:
            pad = hashlib.sha256(pad).digest()
        pad = pad.ljust(_BLOCK, b"\0")
        self._inner = hashlib.sha256(pad.translate(_IPAD))
        self._outer = hashlib.sha256(pad.translate(_OPAD))

    def _keystream(self, nonce: bytes, length: int) -> bytes:
        inner = self._inner.copy()
        inner.update(nonce)
        inner_copy = inner.copy
        outer_copy = self._outer.copy
        blocks = []
        for counter in range((length + 31) // 32):
            block = inner_copy()
            block.update(counter.to_bytes(8, "big"))
            mac = outer_copy()
            mac.update(block.digest())
            blocks.append(mac.digest())
        return b"".join(blocks)[:length]

    def _xor(self, nonce: bytes, data: bytes) -> bytes:
        stream = self._keystream(nonce, len(data))
        return (
            int.from_bytes(data, "little") ^ int.from_bytes(stream, "little")
        ).to_bytes(len(data), "little")

    def encrypt_bytes(self, data: bytes) -> bytes:
        """Encrypt to ``nonce ‖ ciphertext``.

        The nonce is derived from the plaintext digest, making encryption
        deterministic: re-encrypting identical data yields identical
        ciphertext, so services that deduplicate content still work.
        """
        nonce = hashlib.sha256(self._key + data).digest()[:NONCE_SIZE]
        return nonce + self._xor(nonce, data)

    def decrypt_bytes(self, blob: bytes) -> bytes:
        """Invert :meth:`encrypt_bytes`. A wrong key yields garbage of
        the same length, not an error: callers checksum the plaintext."""
        if len(blob) < NONCE_SIZE:
            raise ValueError("ciphertext shorter than its nonce")
        return self._xor(blob[:NONCE_SIZE], blob[NONCE_SIZE:])

    def encrypt(self, plaintext: str) -> str:
        """Encrypt to a marked, hex-armoured string (see
        :meth:`encrypt_bytes`)."""
        sealed = self.encrypt_bytes(plaintext.encode("utf-8"))
        return (
            MARKER + sealed[:NONCE_SIZE].hex() + ":" + sealed[NONCE_SIZE:].hex()
        )

    def decrypt(self, ciphertext: str) -> str:
        if not self.is_encrypted(ciphertext):
            raise ValueError("not an encrypted payload")
        payload = ciphertext[len(MARKER):]
        nonce_hex, _, cipher_hex = payload.partition(":")
        nonce = bytes.fromhex(nonce_hex)
        return self._xor(nonce, bytes.fromhex(cipher_hex)).decode("utf-8")

    @staticmethod
    def is_encrypted(text: str) -> bool:
        return text.startswith(MARKER)
