"""Tests for the Paillier cryptosystem, including the Section 3.7
homomorphic property equations as hypothesis properties."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.crypto.keycache import cached_paillier_keypair
from repro.crypto.paillier import (
    PaillierCiphertext,
    PaillierError,
    generate_paillier_keypair,
)

KEYS = cached_paillier_keypair(256, 900)
PUB = KEYS.public_key
PRIV = KEYS.private_key
RNG = random.Random(31337)
# The paper's literal keygen (random g), for properties that must hold
# for both choices of g.
RANDOM_G_KEYS = generate_paillier_keypair(256, random.Random(77),
                                          random_g=True)
BOTH_KEYS = st.sampled_from([KEYS, RANDOM_G_KEYS])

plaintexts = st.integers(min_value=0, max_value=2**120)
signed_values = st.integers(min_value=-(2**100), max_value=2**100)


class TestKeyGeneration:
    def test_modulus_size(self):
        assert PUB.bits in (255, 256)
        assert PUB.n_squared == PUB.n * PUB.n

    def test_default_g(self):
        assert PUB.g == PUB.n + 1

    def test_random_g_mode(self):
        keys = generate_paillier_keypair(128, random.Random(5), random_g=True)
        assert keys.public_key.g != keys.public_key.n + 1
        cipher = keys.public_key.encrypt(12345, random.Random(6))
        assert keys.private_key.decrypt(cipher) == 12345

    def test_too_small_raises(self):
        with pytest.raises(PaillierError, match="too small"):
            generate_paillier_keypair(32, random.Random(0))

    def test_deterministic_cache(self):
        assert cached_paillier_keypair(256, 900) is KEYS

    def test_private_factors(self):
        assert PRIV.p * PRIV.q == PUB.n


class TestEncryptDecrypt:
    @settings(max_examples=30, deadline=None)
    @given(plaintexts)
    def test_roundtrip(self, message):
        cipher = PUB.encrypt(message, RNG)
        assert PRIV.decrypt(cipher) == message

    def test_out_of_range_raises(self):
        with pytest.raises(PaillierError, match="outside"):
            PUB.raw_encrypt(PUB.n, 2)

    def test_negative_raises(self):
        with pytest.raises(PaillierError, match="outside"):
            PUB.raw_encrypt(-1, 2)

    def test_probabilistic(self):
        a = PUB.encrypt(42, RNG)
        b = PUB.encrypt(42, RNG)
        assert a.value != b.value
        assert PRIV.decrypt(a) == PRIV.decrypt(b) == 42

    def test_key_mismatch_raises(self):
        other = cached_paillier_keypair(256, 901)
        cipher = other.public_key.encrypt(5, RNG)
        with pytest.raises(PaillierError, match="different key"):
            PRIV.decrypt(cipher)


class TestHomomorphicProperties:
    """The two Section 3.7 equations."""

    @settings(max_examples=30, deadline=None)
    @given(plaintexts, plaintexts)
    def test_homomorphic_addition(self, m1, m2):
        # D(E(m1) * E(m2) mod n^2) = m1 + m2 mod n
        combined = PUB.encrypt(m1, RNG) + PUB.encrypt(m2, RNG)
        assert PRIV.decrypt(combined) == (m1 + m2) % PUB.n

    @settings(max_examples=40, deadline=None)
    @given(BOTH_KEYS, plaintexts,
           st.integers(min_value=-(2**40), max_value=2**40))
    def test_homomorphic_scalar_multiplication(self, keys, m1, m2):
        # D(E(m1)^m2 mod n^2) = m1 * m2 mod n, negative m2 included
        public, private = keys.public_key, keys.private_key
        scaled = public.encrypt(m1, RNG) * m2
        assert private.decrypt(scaled) == (m1 * m2) % public.n

    @settings(max_examples=20, deadline=None)
    @given(plaintexts, st.integers(min_value=0, max_value=2**40))
    def test_plaintext_constant_addition(self, m1, constant):
        shifted = PUB.encrypt(m1, RNG) + constant
        assert PRIV.decrypt(shifted) == (m1 + constant) % PUB.n

    @settings(max_examples=30, deadline=None)
    @given(BOTH_KEYS, plaintexts, plaintexts)
    def test_subtraction(self, keys, m1, m2):
        public, private = keys.public_key, keys.private_key
        difference = public.encrypt(m1, RNG) - public.encrypt(m2, RNG)
        assert private.decrypt(difference) == (m1 - m2) % public.n

    def test_add_requires_same_key(self):
        other = cached_paillier_keypair(256, 901)
        with pytest.raises(PaillierError, match="different keys"):
            __ = PUB.encrypt(1, RNG) + other.public_key.encrypt(2, RNG)

    def test_multiply_rejects_non_integer(self):
        with pytest.raises(PaillierError, match="integer"):
            __ = PUB.encrypt(1, RNG) * 2.5


class TestNegativeScalars:
    """``E(m) * k`` for ``k mod n > n // 2`` takes one inverse and an
    exponent as wide as ``|k|``; the plaintext is ``k*m mod n`` either
    way."""

    @settings(max_examples=10, deadline=None)
    @given(BOTH_KEYS, plaintexts)
    def test_boundary_scalars(self, keys, message):
        public, private = keys.public_key, keys.private_key
        cipher = public.encrypt(message, RNG)
        n = public.n
        for scalar in (-1, n // 2, n // 2 + 1, n - 1):
            assert private.decrypt(cipher * scalar) \
                == (message * scalar) % n, scalar

    def test_split_is_the_signed_encoder_boundary(self):
        from repro.crypto.encoding import SignedEncoder
        encoder = SignedEncoder(PUB.n)
        assert encoder.encode(encoder.half_range) == PUB.n // 2
        assert encoder.encode(-encoder.half_range) == PUB.n // 2 + 1

    def test_negative_path_exponents_no_wider_than_scalar(self,
                                                          monkeypatch):
        import repro.crypto.integer_math as integer_math
        import repro.crypto.paillier as paillier
        widths: list[int] = []

        def recording_pow(base, exponent, modulus):
            widths.append(exponent.bit_length())
            return pow(base, exponent, modulus)

        monkeypatch.setattr(integer_math, "cached_pow", recording_pow)
        monkeypatch.setattr(paillier, "cached_pow", recording_pow)
        cipher = PUB.encrypt(1234, RNG)
        for scalar in (-1, -3, -(2**20) - 7, -(2**40), PUB.n // 2 + 1):
            signed = scalar if scalar < 0 else scalar - PUB.n
            widths.clear()
            product = cipher * scalar
            assert widths and max(widths) <= abs(signed).bit_length()
            assert PRIV.decrypt(product) == (1234 * scalar) % PUB.n
        # The non-negative half keeps the direct exponent, exactly.
        for scalar in (0, 1, 2**40, PUB.n // 2):
            widths.clear()
            product = cipher * scalar
            assert widths == [scalar.bit_length()]
            assert product.value == pow(cipher.value, scalar, PUB.n_squared)

    @pytest.mark.parametrize("scalar", [-1, -5, -(2**40), 7])
    def test_non_units_take_the_direct_exponent(self, scalar):
        n_sq = PUB.n_squared
        for value in (0, PRIV.p, PRIV.q * PRIV.q):
            product = PaillierCiphertext(PUB, value) * scalar
            assert product.value == pow(value, scalar % PUB.n, n_sq), value

    def test_negative_product_is_inverse_power(self):
        # c^(n-k) = c^(-k) * c^n: both forms differ by a public
        # encryption of zero.
        n, n_sq = PUB.n, PUB.n_squared
        cipher = PUB.encrypt(99, RNG)
        product = cipher * -6
        assert product.value == pow(cipher.value, -6, n_sq)
        assert (product.value * pow(cipher.value, n, n_sq)) % n_sq \
            == pow(cipher.value, n - 6, n_sq)
        assert PRIV.decrypt(PaillierCiphertext(
            PUB, pow(cipher.value, n, n_sq))) == 0


class TestRerandomize:
    def test_preserves_plaintext_changes_ciphertext(self):
        original = PUB.encrypt(777, RNG)
        refreshed = original.rerandomize(RNG)
        assert refreshed.value != original.value
        assert PRIV.decrypt(refreshed) == 777

    @settings(max_examples=15, deadline=None)
    @given(plaintexts)
    def test_rerandomize_property(self, message):
        cipher = PUB.encrypt(message, RNG).rerandomize(RNG)
        assert PRIV.decrypt(cipher) == message


class TestSignedEncryption:
    @settings(max_examples=30, deadline=None)
    @given(signed_values)
    def test_signed_roundtrip(self, value):
        cipher = PUB.encrypt_signed(value, RNG)
        assert PRIV.decrypt_signed(cipher) == value

    def test_signed_overflow_raises(self):
        with pytest.raises(PaillierError, match="exceeds"):
            PUB.encrypt_signed(PUB.n, RNG)

    def test_signed_arithmetic(self):
        total = PUB.encrypt_signed(-50, RNG) + PUB.encrypt_signed(20, RNG)
        assert PRIV.decrypt_signed(total) == -30


class TestCiphertextBehaviour:
    def test_equality_and_hash(self):
        cipher = PUB.encrypt(9, RNG)
        clone = PaillierCiphertext(PUB, cipher.value)
        assert cipher == clone
        assert hash(cipher) == hash(clone)

    def test_repr_hides_value(self):
        assert "value" not in repr(PUB.encrypt(9, RNG))

    def test_random_unit_is_coprime(self):
        import math
        for _ in range(10):
            assert math.gcd(PUB.random_unit(RNG), PUB.n) == 1
