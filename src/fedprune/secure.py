"""Simulated remote attestation, per-client key agreement, and AEAD framing.

The attestation is an emulation: the aggregator side signs the enclave
measurement, SHA-256 over the source of TRUSTED_MODULES taken at import (a
stand-in for SGX's MRENCLAVE), with an experiment-local Ed25519 key; clients
verify it against the expected measurement, and both sides run an X25519
exchange whose HKDF output becomes the per-client AES-256-GCM key.  All
randomness is drawn from caller-supplied seeded generators so handshakes are
reproducible in tests.

Update framing (little-endian):

    magic "ESMF" | version u8 | client_id u32 | round u32 | payload_format u8
    | nonce 12B | ciphertext_len u64 | ciphertext||tag

The whole header is authenticated as associated data.  A client seals one
update per round, so the nonce is (client_id, round, four zero bytes); the
receiver requires it to match the header and rejects as a replay any round
not past the client's last accepted one.
"""

from __future__ import annotations

import hashlib
import hmac
import os
import struct
from dataclasses import dataclass

import numpy as np
from cryptography.exceptions import InvalidSignature, InvalidTag
from cryptography.hazmat.primitives.asymmetric.ed25519 import (
    Ed25519PrivateKey, Ed25519PublicKey)
from cryptography.hazmat.primitives.asymmetric.x25519 import (
    X25519PrivateKey, X25519PublicKey)
from cryptography.hazmat.primitives.ciphers.aead import AESGCM

MAGIC = b"ESMF"
VERSION = 1
TAG_SIZE = 16
HEADER = struct.Struct("<4sBIIB12sQ")  # magic, ver, client, round, fmt, nonce, ct_len
NONCE = struct.Struct("<II4x")          # client, round, four zero bytes

# The fedprune modules inside the enclave: all that importing enclave loads
TRUSTED_MODULES = ("__init__", "params", "codec", "secure", "enclave")


def _measure(directory) -> bytes:
    """SHA-256 over each trusted module's name, byte length and source."""
    h = hashlib.sha256()
    for name in TRUSTED_MODULES:
        with open(os.path.join(directory, name + ".py"), "rb") as f:
            src = f.read()
        h.update(b"%s\0%d\0%s" % (name.encode(), len(src), src))
    return h.digest()


ENCLAVE_MEASUREMENT = _measure(os.path.dirname(__file__))


class SecureChannelError(Exception):
    pass


class AttestationError(SecureChannelError):
    pass


class DuplicateClientError(SecureChannelError):
    pass


class ReplayError(SecureChannelError):
    pass


@dataclass(frozen=True)
class AttestationTranscript:
    client_id: int
    challenge: bytes         # 32B client nonce
    measurement: bytes       # reported enclave measurement
    enclave_pub: bytes       # enclave's ephemeral X25519 public key
    signature: bytes         # Ed25519 over (client_id, challenge, measurement, pub)
    client_pub: bytes        # client's ephemeral X25519 public key
    key_confirm: bytes       # HMAC-SHA256 of all fields under the derived key

    def signed_payload(self) -> bytes:
        return _quote_payload(self.client_id, self.challenge, self.measurement,
                              self.enclave_pub)

    def check_key_confirmation(self, sk: bytes) -> None:
        expect = _key_confirmation(sk, self.signed_payload(), self.client_pub)
        if not hmac.compare_digest(expect, self.key_confirm):
            raise AttestationError("key confirmation failed")


def _quote_payload(client_id: int, challenge: bytes, measurement: bytes,
                   enclave_pub: bytes) -> bytes:
    """The bytes the enclave signs; also the context the session key binds."""
    return struct.pack("<I", client_id) + challenge + measurement + enclave_pub


def _session_key(eph: X25519PrivateKey, peer_pub: bytes, payload: bytes) -> bytes:
    shared = eph.exchange(X25519PublicKey.from_public_bytes(peer_pub))
    return hashlib.sha256(b"fedprune-sk-v1" + shared + payload).digest()


def _key_confirmation(sk: bytes, payload: bytes, client_pub: bytes) -> bytes:
    return hmac.new(sk, payload + client_pub, hashlib.sha256).digest()


def _record_header(client_id: int, round_index: int, payload_format: int,
                   nonce: bytes, ct_len: int) -> bytes:
    return HEADER.pack(MAGIC, VERSION, client_id, round_index, payload_format, nonce, ct_len)


@dataclass(frozen=True)
class EncryptedUpdate:
    client_id: int
    round: int
    payload_format: int      # codec format byte: 0 dense, 1 csr
    nonce: bytes
    ciphertext: bytes        # includes the 16-byte GCM tag

    def header(self) -> bytes:
        return _record_header(self.client_id, self.round, self.payload_format,
                              self.nonce, len(self.ciphertext))

    def to_bytes(self) -> bytes:
        return self.header() + self.ciphertext

    @classmethod
    def from_bytes(cls, raw: bytes) -> "EncryptedUpdate":
        if len(raw) < HEADER.size:
            raise SecureChannelError("record truncated")
        magic, ver, cid, rnd, fmt, nonce, ct_len = HEADER.unpack(raw[:HEADER.size])
        if magic != MAGIC:
            raise SecureChannelError("bad magic")
        if ver != VERSION:
            raise SecureChannelError(f"unsupported version {ver}")
        ct = raw[HEADER.size:]
        if len(ct) != ct_len:
            raise SecureChannelError("ciphertext length mismatch")
        return cls(cid, rnd, fmt, nonce, ct)


class KeyManager:
    """Enclave-side key registry: one symmetric key per client per experiment,
    and per client the round of its last accepted update."""

    def __init__(self, seed: int = 0):
        self._rng = np.random.default_rng(seed)
        self.signing_key = Ed25519PrivateKey.from_private_bytes(self._rng.bytes(32))
        self.verify_key_bytes = self.signing_key.public_key().public_bytes_raw()
        self.keys: dict[int, bytes] = {}     # client id -> 256-bit AES key
        self._accepted: dict[int, int] = {}  # client id -> last accepted round

    # -- attestation / key agreement ------------------------------------

    def begin_attestation(self, client_id: int, challenge: bytes):
        """Respond to a client challenge with a signed quote and an ephemeral
        key-agreement public key.  Returns (quote fields, private half)."""
        if client_id in self.keys:
            raise DuplicateClientError(f"client {client_id} already registered")
        eph = X25519PrivateKey.from_private_bytes(self._rng.bytes(32))
        pub = eph.public_key().public_bytes_raw()
        sig = self.signing_key.sign(
            _quote_payload(client_id, challenge, ENCLAVE_MEASUREMENT, pub))
        return ENCLAVE_MEASUREMENT, pub, sig, eph

    def finish_attestation(self, transcript: AttestationTranscript,
                           eph: X25519PrivateKey) -> None:
        sk = _session_key(eph, transcript.client_pub, transcript.signed_payload())
        transcript.check_key_confirmation(sk)
        self.keys[transcript.client_id] = sk

    # -- decryption ------------------------------------------------------

    def decrypt_update(self, enc: EncryptedUpdate) -> bytes:
        """Plaintext iff the tag verifies with the header as associated data;
        rejects unknown clients, a round or format the header cannot hold, a
        nonce other than the header's client and round, and a round not past
        the client's last accepted one."""
        sk = self.keys.get(enc.client_id)
        if sk is None:
            raise SecureChannelError(f"unknown client {enc.client_id}")
        if not (0 <= enc.round < 1 << 32 and 0 <= enc.payload_format < 1 << 8):
            raise SecureChannelError("round or payload format outside its header field")
        if enc.nonce != NONCE.pack(enc.client_id, enc.round):
            raise SecureChannelError("nonce differs from the header's client and round")
        if enc.round <= self._accepted.get(enc.client_id, -1):
            raise ReplayError(f"replayed record from client {enc.client_id}")
        try:
            plaintext = AESGCM(sk).decrypt(enc.nonce, enc.ciphertext, enc.header())
        except InvalidTag as exc:
            raise SecureChannelError("authentication tag mismatch") from exc
        self._accepted[enc.client_id] = enc.round
        return plaintext


class ClientChannel:
    """Client-side keying material and the last round sealed for."""

    def __init__(self, client_id: int, sk: bytes,
                 transcript: AttestationTranscript):
        self.client_id = client_id
        self.sk = sk                    # 256-bit AES key
        self.transcript = transcript
        self._last_round = -1

    def encrypt_update(self, update_bytes: bytes, round_index: int,
                       payload_format: int) -> EncryptedUpdate:
        if round_index <= self._last_round:     # the nonce would repeat
            raise ValueError(f"cannot seal for round {round_index} after round {self._last_round}")
        nonce = NONCE.pack(self.client_id, round_index)
        self._last_round = round_index
        ct = AESGCM(self.sk).encrypt(nonce, update_bytes, _record_header(
            self.client_id, round_index, payload_format, nonce,
            len(update_bytes) + TAG_SIZE))
        return EncryptedUpdate(self.client_id, round_index, payload_format, nonce, ct)


def attest_and_exchange(client_id: int, manager: KeyManager,
                        rng: np.random.Generator) -> ClientChannel:
    """Full handshake; returns the client's channel.  The manager ends up
    holding an identical sk_i.  Raises AttestationError on any mismatch."""
    challenge = rng.bytes(32)
    measurement, enclave_pub, sig, eph = manager.begin_attestation(client_id, challenge)

    client_eph = X25519PrivateKey.from_private_bytes(rng.bytes(32))
    client_pub = client_eph.public_key().public_bytes_raw()
    payload = _quote_payload(client_id, challenge, measurement, enclave_pub)
    sk = _session_key(client_eph, enclave_pub, payload)
    transcript = AttestationTranscript(
        client_id=client_id, challenge=challenge, measurement=measurement,
        enclave_pub=enclave_pub, signature=sig, client_pub=client_pub,
        key_confirm=_key_confirmation(sk, payload, client_pub))

    # client side: check the quote before sending its half of the exchange
    verify_transcript(transcript, manager.verify_key_bytes, sk)
    manager.finish_attestation(transcript, eph)
    return ClientChannel(client_id, sk, transcript)


def verify_transcript(transcript: AttestationTranscript, verify_key_bytes: bytes,
                      sk: bytes) -> None:
    """Audit check: signature, measurement, and key confirmation must all
    hold; any mutated field raises AttestationError."""
    try:
        Ed25519PublicKey.from_public_bytes(verify_key_bytes).verify(
            transcript.signature, transcript.signed_payload())
    except InvalidSignature as exc:
        raise AttestationError("quote signature invalid") from exc
    if transcript.measurement != ENCLAVE_MEASUREMENT:
        raise AttestationError("unexpected enclave measurement")
    transcript.check_key_confirmation(sk)
