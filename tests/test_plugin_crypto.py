"""Tests for the upload cipher."""

import hashlib

import pytest

from repro.plugin.crypto import MARKER, NONCE_SIZE, UploadCipher


@pytest.fixture
def cipher():
    return UploadCipher("deployment-secret")


class TestUploadCipher:
    def test_roundtrip(self, cipher):
        plaintext = "Sensitive interview guidelines, round two."
        assert cipher.decrypt(cipher.encrypt(plaintext)) == plaintext

    def test_ciphertext_hides_plaintext(self, cipher):
        plaintext = "the secret phrase"
        ciphertext = cipher.encrypt(plaintext)
        assert "secret" not in ciphertext

    def test_marker_prefix(self, cipher):
        assert cipher.encrypt("x").startswith(MARKER)

    def test_is_encrypted(self, cipher):
        assert UploadCipher.is_encrypted(cipher.encrypt("x"))
        assert not UploadCipher.is_encrypted("plain text")

    def test_deterministic(self, cipher):
        assert cipher.encrypt("same input") == cipher.encrypt("same input")

    def test_different_inputs_differ(self, cipher):
        assert cipher.encrypt("one") != cipher.encrypt("two")

    def test_different_keys_differ(self):
        a = UploadCipher("key-a").encrypt("payload")
        b = UploadCipher("key-b").encrypt("payload")
        assert a != b

    def test_wrong_key_garbles(self):
        ciphertext = UploadCipher("key-a").encrypt("payload")
        other = UploadCipher("key-b")
        try:
            result = other.decrypt(ciphertext)
        except UnicodeDecodeError:
            return  # garbage bytes are acceptable failure
        assert result != "payload"

    def test_empty_plaintext(self, cipher):
        assert cipher.decrypt(cipher.encrypt("")) == ""

    def test_unicode_roundtrip(self, cipher):
        text = "café résumé — 机密"
        assert cipher.decrypt(cipher.encrypt(text)) == text

    def test_decrypt_plain_rejected(self, cipher):
        with pytest.raises(ValueError):
            cipher.decrypt("not encrypted")

    def test_empty_key_rejected(self):
        with pytest.raises(ValueError):
            UploadCipher("")

    def test_long_payload(self, cipher):
        text = "paragraph content " * 500
        assert cipher.decrypt(cipher.encrypt(text)) == text


class TestFixedVectors:
    """The keystream and the text armour are pinned to ciphertexts the
    one-``hmac``-object-per-block implementation produced, so logs and
    snapshots encrypted before the faster keystream still decrypt."""

    def test_short_key(self):
        assert UploadCipher("disk-key").encrypt(
            "The quarterly numbers stay confidential."
        ) == (
            "bf-enc:899fae46bc6c621c1550a794:59647e1dae96deddb9709f4e0c0168"
            "aa30198c8b22156e4a3e97b2541c606def7990b22e4428d89e"
        )

    def test_key_longer_than_a_hash_block(self):
        ciphertext = "bf-enc:4acb195adb83dfe9d4a6387e:" + (
            "ce414c5d8de0684779a00b2cb40fdcf5dce435e6004671"
        )
        cipher = UploadCipher("k" * 100)
        assert cipher.encrypt("naïve café — 機密") == ciphertext
        assert cipher.decrypt(ciphertext) == "naïve café — 機密"

    def test_many_blocks(self):
        ciphertext = UploadCipher("log-key").encrypt("0123456789" * 1000)
        assert len(ciphertext) == 20032
        assert hashlib.sha256(ciphertext.encode()).hexdigest() == (
            "f86da8cd9441f3311a168ff621c812257c7610df52dfa6506c03b3692a672661"
        )


class TestBytesForm:
    def test_roundtrip_and_armour_agree(self, cipher):
        data = "paragraph content ".encode() * 40
        sealed = cipher.encrypt_bytes(data)
        assert len(sealed) == NONCE_SIZE + len(data)
        assert cipher.decrypt_bytes(sealed) == data
        armoured = cipher.encrypt(data.decode())
        assert armoured == MARKER + sealed[:NONCE_SIZE].hex() + ":" + (
            sealed[NONCE_SIZE:].hex()
        )

    def test_empty(self, cipher):
        assert cipher.decrypt_bytes(cipher.encrypt_bytes(b"")) == b""

    def test_wrong_key_garbles(self, cipher):
        sealed = cipher.encrypt_bytes(b"confidential bytes")
        assert UploadCipher("another").decrypt_bytes(sealed) != b"confidential bytes"

    def test_shorter_than_nonce_rejected(self, cipher):
        with pytest.raises(ValueError):
            cipher.decrypt_bytes(b"short")
