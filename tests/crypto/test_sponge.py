"""Unit and property tests for the crypto substrate."""

import pytest
from hypothesis import given, strategies as st

from repro.crypto.mac import constant_time_equal, mac
from repro.crypto.sponge import DIGEST_SIZE, SpongeHash, sponge_hash
from repro.crypto.tokens import NONCE_SIZE, NonceSource, session_token

#: Known answers, recorded from the original list-based permutation:
#: ``sponge_hash(CYCLE[:n])`` for each length ``n``.
CYCLE = bytes(range(256)) * 7
SPONGE_KAT = {
    0: "46bfda69a653d17b13f89e6542159b60",
    1: "d9991b2a380a6721a259f2f2e84e50b7",
    2: "5a8ff8e1f6ec68ed0223407ba431232f",
    3: "b8d9b38b0271756fe612003b059623d3",
    4: "39cf793b8d8ac26ce90ba20bb3ba7a6a",
    5: "c7a6b123b113284f04e9b411bf8bf560",
    6: "9e74b87e5cd721e1dfbd7e4e74ae375c",
    7: "55eb963540196c9777f98546fa4d3d6a",
    8: "9af2c2f5be9793e4c596ae5d34c6449a",
    9: "98df3da508f00e3e97a0d521ebcaf331",
    10: "d664401142f0c268c07756de12246c33",
    11: "030e1b5e018b7c52b6a161d28a9fc90b",
    12: "3a5b3237cc095aaa3cdb75e5074bb26b",
    13: "51fb0d9fd2808a5e8572a5748f8233c4",
    14: "5ecea58bced9fce920e736effacb24cb",
    15: "8f3b104f06ed10c43e95cc2a485fa558",
    16: "30228f6490b84e940acf3126bfac7c78",
    17: "aec165a20f274bf271543f501b1042db",
    63: "ac942cd59b74ed6bf464e3decd3adbd1",
    64: "a61edef7949deb4cabd827c56dae76d2",
    65: "71f11acec1062e17c0b3195d86f27a0b",
    1600: "51cf992ed195a14debd5765cc673af56",
}


class TestKnownAnswers:
    @pytest.mark.parametrize("length", sorted(SPONGE_KAT))
    def test_sponge_hash(self, length):
        assert sponge_hash(CYCLE[:length]).hex() == SPONGE_KAT[length]

    def test_mac(self):
        tag = mac(bytes(range(0x40, 0x50)), b"TrustLite attestation")
        assert tag.hex() == "19daf9758f08e562efa465073c890743"

    def test_session_token(self):
        token = session_token(b"A", b"B", b"nonce-A!", b"nonce-B!")
        assert token.hex() == "89588278aec54b96ded7e93a746c1aa6"

    def test_nonces(self):
        source = NonceSource(1)
        assert [source.next_nonce().hex() for _ in range(3)] == [
            "724d3fbfbf1c3fd2", "cf0713ee6e05f17d", "e1f9d99c3f579819",
        ]


class TestSponge:
    def test_digest_size(self):
        assert len(sponge_hash(b"")) == DIGEST_SIZE

    def test_deterministic(self):
        assert sponge_hash(b"abc") == sponge_hash(b"abc")

    def test_different_inputs_differ(self):
        assert sponge_hash(b"abc") != sponge_hash(b"abd")

    def test_empty_vs_zero_byte(self):
        assert sponge_hash(b"") != sponge_hash(b"\x00")

    def test_incremental_equals_one_shot(self):
        incremental = SpongeHash().update(b"hello ").update(b"world").digest()
        assert incremental == sponge_hash(b"hello world")

    def test_digest_idempotent(self):
        hasher = SpongeHash().update(b"x")
        assert hasher.digest() == hasher.digest()

    def test_update_after_digest_rejected(self):
        hasher = SpongeHash().update(b"x")
        hasher.digest()
        with pytest.raises(ValueError):
            hasher.update(b"y")
        with pytest.raises(ValueError):
            hasher.update(b"")

    @pytest.mark.parametrize("buffered", [b"", b"abc"])
    @pytest.mark.parametrize("bad", [5, "text", None])
    def test_update_rejects_non_bytes(self, buffered, bad):
        # ``bytes(5)`` would quietly absorb five zero bytes instead.
        hasher = SpongeHash().update(buffered)
        with pytest.raises(TypeError):
            hasher.update(bad)
        assert hasher.digest() == sponge_hash(buffered)

    @pytest.mark.parametrize("wrap", [bytearray, memoryview])
    def test_update_accepts_bytes_like(self, wrap):
        data = CYCLE[:29]
        hasher = SpongeHash().update(wrap(data[:3])).update(wrap(data[3:]))
        assert hasher.digest() == sponge_hash(data)
        assert sponge_hash(memoryview(CYCLE)[5:70]) == sponge_hash(CYCLE[5:70])

    def test_hexdigest(self):
        assert SpongeHash().update(b"x").hexdigest() == \
            sponge_hash(b"x").hex()

    @given(st.binary(max_size=200))
    def test_property_length_always_16(self, data):
        assert len(sponge_hash(data)) == DIGEST_SIZE

    @given(st.binary(max_size=100),
           st.lists(st.integers(min_value=0, max_value=100), max_size=12))
    def test_property_split_invariance(self, data, cuts):
        """Absorbing in any number of chunks, empty ones included,
        matches one-shot hashing."""
        hasher = SpongeHash()
        start = 0
        for end in sorted(min(cut, len(data)) for cut in cuts) + [len(data)]:
            hasher.update(data[start:end])
            start = end
        assert hasher.digest() == sponge_hash(data)

    @given(st.binary(min_size=1, max_size=64))
    def test_property_padding_no_trivial_extension_collision(self, data):
        assert sponge_hash(data) != sponge_hash(data + b"\x00")


class TestMac:
    def test_key_separates(self):
        assert mac(b"k1", b"msg") != mac(b"k2", b"msg")

    def test_message_separates(self):
        assert mac(b"k", b"m1") != mac(b"k", b"m2")

    def test_key_message_boundary_unambiguous(self):
        # ("ab", "c") must not collide with ("a", "bc").
        assert mac(b"ab", b"c") != mac(b"a", b"bc")

    def test_constant_time_equal(self):
        assert constant_time_equal(b"same", b"same")
        assert not constant_time_equal(b"same", b"diff")
        assert not constant_time_equal(b"short", b"longer")

    @given(st.binary(max_size=32), st.binary(max_size=64))
    def test_property_mac_deterministic(self, key, message):
        assert mac(key, message) == mac(key, message)


class TestTokens:
    def test_nonce_uniqueness(self):
        source = NonceSource()
        nonces = {source.next_nonce() for _ in range(100)}
        assert len(nonces) == 100

    def test_nonce_size(self):
        assert len(NonceSource().next_nonce()) == NONCE_SIZE

    def test_distinct_seeds_distinct_nonces(self):
        assert NonceSource(b"a").next_nonce() != NonceSource(b"b").next_nonce()

    def test_int_and_str_seeds_are_canonical(self):
        assert NonceSource(7).next_nonce() == NonceSource(7).next_nonce()
        assert NonceSource(7).next_nonce() != NonceSource(8).next_nonce()
        assert NonceSource("run").next_nonce() == \
            NonceSource(b"run").next_nonce()
        # An int seed is namespaced, not just stringified into the
        # byte-seed space.
        assert NonceSource(7).next_nonce() != NonceSource("7").next_nonce()

    def test_session_token_binds_all_fields(self):
        base = session_token(b"A", b"B", b"n1", b"n2")
        assert base != session_token(b"X", b"B", b"n1", b"n2")
        assert base != session_token(b"A", b"X", b"n1", b"n2")
        assert base != session_token(b"A", b"B", b"xx", b"n2")
        assert base != session_token(b"A", b"B", b"n1", b"xx")

    def test_session_token_field_boundaries(self):
        # ("AB","C") vs ("A","BC") must not produce the same token.
        assert session_token(b"AB", b"C", b"", b"") != \
            session_token(b"A", b"BC", b"", b"")

    def test_session_token_is_directional(self):
        assert session_token(b"A", b"B", b"n", b"m") != \
            session_token(b"B", b"A", b"n", b"m")
