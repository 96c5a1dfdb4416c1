import dataclasses
import hashlib
import os
import shutil
import struct
import subprocess
import sys

import numpy as np
import pytest

from fedprune import secure
from fedprune.secure import (AttestationError, AttestationTranscript,
                             ClientChannel, DuplicateClientError,
                             EncryptedUpdate, KeyManager, ReplayError,
                             SecureChannelError, attest_and_exchange,
                             verify_transcript)
from reference import ref_seal


PACKAGE_DIR = os.path.dirname(secure.__file__)


@pytest.fixture
def manager():
    return KeyManager(seed=7)


@pytest.fixture
def channel(manager):
    return attest_and_exchange(1, manager, np.random.default_rng(99))


class TestAttestation:
    def test_both_sides_same_key(self, manager):
        ch = attest_and_exchange(5, manager, np.random.default_rng(0))
        assert manager.keys[5] == ch.sk
        assert len(ch.sk) == 32

    def test_deterministic_under_seeds(self):
        keys = []
        for _ in range(2):
            m = KeyManager(seed=3)
            ch = attest_and_exchange(1, m, np.random.default_rng(4))
            keys.append(ch.sk)
        assert keys[0] == keys[1]

    def test_hundred_clients_distinct_keys(self, manager):
        rng = np.random.default_rng(1)
        for cid in range(100):
            attest_and_exchange(cid, manager, rng)
        assert len(manager.keys) == 100
        assert len(set(manager.keys.values())) == 100

    def test_duplicate_client_rejected(self, manager):
        rng = np.random.default_rng(1)
        attest_and_exchange(3, manager, rng)
        with pytest.raises(DuplicateClientError):
            attest_and_exchange(3, manager, rng)

    def test_any_mutated_transcript_field_fails(self, manager, channel):
        t = channel.transcript
        verify_transcript(t, manager.verify_key_bytes, channel.sk)  # sanity
        for fname in ("challenge", "measurement", "enclave_pub", "signature",
                      "client_pub", "key_confirm"):
            raw = bytearray(getattr(t, fname))
            raw[0] ^= 0x01
            bad = dataclasses.replace(t, **{fname: bytes(raw)})
            with pytest.raises(AttestationError):
                verify_transcript(bad, manager.verify_key_bytes, channel.sk)
        bad_id = dataclasses.replace(t, client_id=t.client_id + 1)
        with pytest.raises(AttestationError):
            verify_transcript(bad_id, manager.verify_key_bytes, channel.sk)

    def test_digests_pinned(self, monkeypatch):
        # keys, transcripts and sealed bytes for fixed seeds must not drift;
        # the measurement follows the trusted source, so a fixed one stands in
        monkeypatch.setattr(secure, "ENCLAVE_MEASUREMENT",
                            hashlib.sha256(b"fedprune-enclave-v1").digest())
        channel = attest_and_exchange(1, KeyManager(seed=7), np.random.default_rng(99))
        enc = channel.encrypt_update(b"golden payload", 3, 1)
        t = channel.transcript
        assert hashlib.sha256(channel.sk).hexdigest() == \
            "bf41163c5632a7df445f26914f216d12e43e6e34e8b01b61a5cb9197ce53afff"
        assert hashlib.sha256(enc.to_bytes()).hexdigest() == \
            "6aead8d390dbb14303847ff351e1dbb1f5a27b2c2d93c63fd876bcd8ee65c584"
        assert hashlib.sha256(t.signature + t.key_confirm).hexdigest() == \
            "95e226f2dfba7c643adc70cbb03f9d38632e95aad269edc25cb88cddefe29d15"


class TestTrustedModules:
    def test_enclave_loads_only_the_trusted_modules(self):
        code = ("import sys, fedprune.enclave; "
                "print(*sorted(m for m in sys.modules if m.split('.')[0] == 'fedprune'))")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, (os.path.dirname(PACKAGE_DIR), os.environ.get("PYTHONPATH")))))
        out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                             capture_output=True, text=True).stdout.split()
        # not nn, pruning, federation, datasets, config, report or cli
        assert sorted(out) == sorted(["fedprune"] + [f"fedprune.{m}" for m in secure.TRUSTED_MODULES
                                                     if m != "__init__"])

    def test_measurement_is_the_trusted_source_on_disk(self):
        assert secure._measure(PACKAGE_DIR) == secure.ENCLAVE_MEASUREMENT

    @staticmethod
    def _copy(tmp_path):
        for name in secure.TRUSTED_MODULES:
            shutil.copy(os.path.join(PACKAGE_DIR, name + ".py"), tmp_path)
        assert secure._measure(tmp_path) == secure.ENCLAVE_MEASUREMENT
        return {name: tmp_path / f"{name}.py" for name in secure.TRUSTED_MODULES}

    @pytest.mark.parametrize("name", secure.TRUSTED_MODULES)
    def test_one_byte_edit_changes_measurement(self, tmp_path, name):
        path = self._copy(tmp_path)[name]
        src = bytearray(path.read_bytes())
        src[len(src) // 2] ^= 1
        path.write_bytes(bytes(src))
        assert secure._measure(tmp_path) != secure.ENCLAVE_MEASUREMENT

    def test_moved_line_changes_measurement(self, tmp_path):
        paths = self._copy(tmp_path)
        before = b"".join(p.read_bytes() for p in paths.values())
        codec_src = paths["codec"].read_bytes()
        cut = codec_src.rindex(b"\n", 0, len(codec_src) - 1) + 1
        paths["codec"].write_bytes(codec_src[:cut])
        paths["secure"].write_bytes(codec_src[cut:] + paths["secure"].read_bytes())
        # codec comes just before secure, so the concatenated source is unchanged
        assert b"".join(p.read_bytes() for p in paths.values()) == before
        assert secure._measure(tmp_path) != secure.ENCLAVE_MEASUREMENT


class TestEncryptDecrypt:
    def test_roundtrip(self, manager, channel):
        enc = channel.encrypt_update(b"hello update", round_index=0, payload_format=1)
        assert manager.decrypt_update(enc) == b"hello update"

    def test_ciphertext_length_contract(self, channel):
        for rnd, n in enumerate((0, 1, 100, 4096)):
            enc = channel.encrypt_update(b"x" * n, rnd, 0)
            assert len(enc.ciphertext) == n + secure.TAG_SIZE

    def test_same_plaintext_distinct_ciphertexts(self, channel):
        a = channel.encrypt_update(b"same", 0, 0)
        b = channel.encrypt_update(b"same", 1, 0)
        assert a.nonce != b.nonce
        assert a.ciphertext != b.ciphertext

    def test_unknown_client_rejected(self, manager):
        ch = ClientChannel(42, bytes(32), transcript=None)
        enc = ch.encrypt_update(b"p", 0, 0)
        with pytest.raises(SecureChannelError):
            manager.decrypt_update(enc)

    def test_replay_rejected(self, manager, channel):
        enc = channel.encrypt_update(b"p", 3, 0)
        assert manager.decrypt_update(enc) == b"p"
        with pytest.raises(ReplayError):
            manager.decrypt_update(enc)

    def test_header_field_mutation_rejected(self, manager, channel):
        # flip one bit in every byte position of the header and the payload
        enc = channel.encrypt_update(b"payload bytes", 7, 1)
        wire = enc.to_bytes()
        for pos in range(len(wire)):
            raw = bytearray(wire)
            raw[pos] ^= 0x01
            with pytest.raises(SecureChannelError):
                manager.decrypt_update(EncryptedUpdate.from_bytes(bytes(raw)))

    def test_wrong_round_in_header_rejected(self, manager, channel):
        enc = channel.encrypt_update(b"p", 2, 0)
        forged = dataclasses.replace(enc, round=9)
        with pytest.raises(SecureChannelError):
            manager.decrypt_update(forged)

    def test_nonce_uniqueness_over_many_encryptions(self, channel):
        # the nonce is the client id and the round, then four zero bytes
        seen = set()
        for rnd in range(10_000):
            enc = channel.encrypt_update(b"", rnd, 0)
            assert enc.nonce == struct.pack("<II", 1, rnd) + bytes(4)
            seen.add(enc.nonce)
        assert len(seen) == 10_000

    def test_negative_round_rejected(self, channel):
        with pytest.raises(ValueError):
            channel.encrypt_update(b"p", -1, 0)

    def test_sealing_for_earlier_round_rejected(self, channel):
        # one seal per round, so (client, round) never names two records
        channel.encrypt_update(b"p", 5, 0)
        for rnd in (4, 5):
            with pytest.raises(ValueError, match=f"cannot seal for round {rnd} after round 5"):
                channel.encrypt_update(b"p", rnd, 0)
        assert channel.encrypt_update(b"p", 6, 0).round == 6

    def test_wire_roundtrip(self, channel):
        enc = channel.encrypt_update(b"abc", 1, 1)
        assert enc.to_bytes() == ref_seal(channel.sk, 1, 1, 1, b"abc")
        assert EncryptedUpdate.from_bytes(enc.to_bytes()) == enc


class TestReplayMark:
    def test_unseen_older_record_rejected(self, manager, channel):
        older = channel.encrypt_update(b"r4", 4, 0)
        newer = channel.encrypt_update(b"r5", 5, 0)
        assert manager.decrypt_update(newer) == b"r5"
        with pytest.raises(ReplayError):
            manager.decrypt_update(older)

    def test_bad_tag_does_not_advance_mark(self, manager, channel):
        forged = EncryptedUpdate(1, 2**32 - 1, 0, secure.NONCE.pack(1, 2**32 - 1),
                                 bytes(1 + secure.TAG_SIZE))
        with pytest.raises(SecureChannelError) as ei:
            manager.decrypt_update(forged)
        assert not isinstance(ei.value, ReplayError)
        enc = channel.encrypt_update(b"genuine", 0, 0)
        assert manager.decrypt_update(enc) == b"genuine"

    @pytest.mark.parametrize("field, value", [("round", -1), ("round", 2**32),
                                              ("payload_format", -1),
                                              ("payload_format", 256)])
    def test_header_field_out_of_range_rejected_before_packing(self, manager, channel,
                                                               field, value):
        # a hand-built record, since from_bytes can only parse values that fit
        assert manager.decrypt_update(channel.encrypt_update(b"r3", 3, 0)) == b"r3"
        forged = dataclasses.replace(channel.encrypt_update(b"r4", 4, 0), **{field: value})
        with pytest.raises(SecureChannelError, match="outside its header field"):
            manager.decrypt_update(forged)
        assert manager._accepted == {1: 3}
        assert manager.decrypt_update(channel.encrypt_update(b"r5", 5, 0)) == b"r5"

    def test_state_is_one_counter_per_client(self, manager):
        rng = np.random.default_rng(3)
        channels = [attest_and_exchange(cid, manager, rng) for cid in range(10)]
        for rnd in range(100):
            for ch in channels:
                manager.decrypt_update(ch.encrypt_update(b"", rnd, 0))
        assert manager._accepted == {cid: 99 for cid in range(10)}
        assert all(ch._last_round == 99 for ch in channels)
