"""Paillier's additive homomorphic cryptosystem (paper Section 3.7).

The implementation follows the paper's description verbatim:

- Key generation chooses primes ``p, q`` with ``gcd(pq, (p-1)(q-1)) = 1``,
  sets ``n = pq`` and ``lambda = lcm(p-1, q-1)``, picks ``g`` in
  ``Z*_{n^2}`` and checks the modular inverse
  ``mu = (L(g^lambda mod n^2))^{-1} mod n`` exists, where
  ``L(u) = (u - 1) / n``.
- Encryption of ``m`` with randomness ``r``: ``c = g^m * r^n mod n^2``.
- Decryption: ``m = L(c^lambda mod n^2) * mu mod n``.

Homomorphic properties exploited by the protocols:

- ``D(E(m1) * E(m2) mod n^2) = m1 + m2 mod n``   (ciphertext product)
- ``D(E(m1)^m2 mod n^2) = m1 * m2 mod n``        (ciphertext power)

By default key generation uses ``g = n + 1``, the standard choice that
makes ``g^m = 1 + m*n (mod n^2)`` a cheap multiplication; passing
``random_g=True`` reproduces the paper's "select random integer g" step
literally (both satisfy the Section 3.7 equations and are property-tested
against each other).
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from functools import lru_cache
from typing import TYPE_CHECKING

from repro.crypto.integer_math import cached_pow, lcm, mod_inverse
from repro.crypto.primes import generate_distinct_primes

if TYPE_CHECKING:  # pragma: no cover - typing only (avoids import cycle)
    from repro.crypto.precompute import RandomnessPool


class PaillierError(ValueError):
    """Raised on malformed keys, out-of-range plaintexts, or key mismatches."""


@dataclass(frozen=True)
class PaillierPublicKey:
    """Public encryption key ``(n, g)`` from Section 3.7."""

    n: int
    g: int

    @property
    def n_squared(self) -> int:
        return self.n * self.n

    @property
    def bits(self) -> int:
        """Size of the modulus in bits (the 'key size' of benchmarks)."""
        return self.n.bit_length()

    def random_unit(self, rng: random.Random) -> int:
        """Random ``r`` in ``Z*_n`` (encryption randomness)."""
        while True:
            r = rng.randrange(1, self.n)
            # gcd check: for a semiprime n, non-units are multiples of p or
            # q, which are never hit in practice, but the spec requires it.
            if math.gcd(r, self.n) == 1:
                return r

    def raw_encrypt(self, plaintext: int, r: int) -> int:
        """``c = g^m * r^n mod n^2`` with caller-supplied randomness.

        The Multiplication Protocol's ``faithful_shared_r`` mode needs to
        encrypt under a randomness value both parties agreed on, hence the
        explicit ``r`` parameter.
        """
        if not 0 <= plaintext < self.n:
            raise PaillierError(
                f"plaintext {plaintext} outside [0, n); encode signed values "
                "with SignedEncoder first"
            )
        n_sq = self.n_squared
        return (self._g_pow(plaintext) * cached_pow(r, self.n, n_sq)) % n_sq

    def raw_encrypt_with_factor(self, plaintext: int, factor: int) -> int:
        """``c = g^m * factor`` with a pregenerated factor ``r^n mod n^2``.

        The online half of the offline/online split: with the factor
        drawn from a :class:`~repro.crypto.precompute.RandomnessPool`
        (and ``g = n + 1``), encryption is two mulmods, no powmod.
        """
        if not 0 <= plaintext < self.n:
            raise PaillierError(
                f"plaintext {plaintext} outside [0, n); encode signed values "
                "with SignedEncoder first"
            )
        return (self._g_pow(plaintext) * factor) % self.n_squared

    def _g_pow(self, plaintext: int) -> int:
        """``g^plaintext mod n^2`` -- the deterministic half of encryption."""
        n_sq = self.n_squared
        if self.g == self.n + 1:
            # (n+1)^m = 1 + m*n (mod n^2): one mulmod instead of a powmod.
            return (1 + plaintext * self.n) % n_sq
        return _fixed_base_table(self.g, n_sq, self.n.bit_length()).pow(
            plaintext)

    def encrypt(self, plaintext: int, rng: random.Random,
                pool: "RandomnessPool | None" = None) -> "PaillierCiphertext":
        """Encrypt with fresh randomness drawn from ``rng``.

        With ``pool`` the randomness factor is taken from the pool
        instead (one mulmod online when the pool is filled); the result
        is a perfectly ordinary ciphertext either way.
        """
        if pool is not None:
            if pool.public_key != self:
                raise PaillierError("randomness pool bound to a different key")
            return PaillierCiphertext(
                self,
                self.raw_encrypt_with_factor(plaintext,
                                             pool.encryption_factor()))
        r = self.random_unit(rng)
        return PaillierCiphertext(self, self.raw_encrypt(plaintext, r))

    def encrypt_batch(self, plaintexts: list[int], rng: random.Random,
                      pool: "RandomnessPool | None" = None,
                      ) -> list["PaillierCiphertext"]:
        """Encrypt a batch; the entry point batched protocols call."""
        return [self.encrypt(plaintext, rng, pool) for plaintext in plaintexts]

    def encrypt_signed(self, value: int, rng: random.Random,
                       pool: "RandomnessPool | None" = None,
                       ) -> "PaillierCiphertext":
        """Encrypt a signed value using the half-range convention.

        Values in ``[-(n-1)//2, (n-1)//2]`` map to ``value mod n``;
        :meth:`PaillierPrivateKey.decrypt_signed` inverts the mapping.
        """
        half = (self.n - 1) // 2
        if not -half <= value <= half:
            raise PaillierError(f"signed value {value} exceeds +/-{half}")
        return self.encrypt(value % self.n, rng, pool)


@dataclass(frozen=True)
class PaillierPrivateKey:
    """Private decryption key ``(lambda, mu)`` with CRT acceleration data.

    ``hp``/``hq`` are the per-prime decryption constants
    ``L_p(g^{p-1} mod p^2)^{-1} mod p`` (and the q analogue).  When
    present, :meth:`decrypt_raw` exponentiates modulo ``p^2`` and ``q^2``
    separately and recombines -- roughly 3-4x faster than the
    full-modulus path, bit-identical results (property-tested).
    """

    public_key: PaillierPublicKey
    lam: int
    mu: int
    p: int
    q: int
    hp: int | None = None
    hq: int | None = None

    def decrypt_raw(self, ciphertext_value: int) -> int:
        """Decrypt an integer ciphertext; CRT path when constants exist."""
        n_sq = self.public_key.n_squared
        if not 0 <= ciphertext_value < n_sq:
            raise PaillierError("ciphertext outside Z_{n^2}")
        if self.hp is not None and self.hq is not None:
            return self._decrypt_crt(ciphertext_value)
        return self.decrypt_raw_standard(ciphertext_value)

    def decrypt_raw_standard(self, ciphertext_value: int) -> int:
        """``m = L(c^lambda mod n^2) * mu mod n`` -- the Section 3.7 path."""
        n = self.public_key.n
        n_sq = self.public_key.n_squared
        if not 0 <= ciphertext_value < n_sq:
            raise PaillierError("ciphertext outside Z_{n^2}")
        u = cached_pow(ciphertext_value, self.lam, n_sq)
        return (_paillier_l(u, n) * self.mu) % n

    def _decrypt_crt(self, ciphertext_value: int) -> int:
        from repro.crypto.integer_math import crt_pair
        p, q = self.p, self.q
        m_p = (_l_quotient(cached_pow(ciphertext_value, p - 1, p * p), p)
               * self.hp) % p
        m_q = (_l_quotient(cached_pow(ciphertext_value, q - 1, q * q), q)
               * self.hq) % q
        return crt_pair(m_p, p, m_q, q)

    def decrypt(self, ciphertext: "PaillierCiphertext") -> int:
        if ciphertext.public_key != self.public_key:
            raise PaillierError("ciphertext was encrypted under a different key")
        return self.decrypt_raw(ciphertext.value)

    def decrypt_raw_batch(self, ciphertext_values: list[int]) -> list[int]:
        """Decrypt a batch of integer ciphertexts (batched replies)."""
        return [self.decrypt_raw(value) for value in ciphertext_values]

    def decrypt_batch(self,
                      ciphertexts: list["PaillierCiphertext"]) -> list[int]:
        """Decrypt a batch of bound ciphertexts."""
        return [self.decrypt(ciphertext) for ciphertext in ciphertexts]

    def decrypt_signed(self, ciphertext: "PaillierCiphertext") -> int:
        """Inverse of :meth:`PaillierPublicKey.encrypt_signed`."""
        plain = self.decrypt(ciphertext)
        n = self.public_key.n
        return plain - n if plain > (n - 1) // 2 else plain


@dataclass(frozen=True)
class PaillierKeyPair:
    public_key: PaillierPublicKey
    private_key: PaillierPrivateKey


class PaillierCiphertext:
    """A ciphertext bound to its public key, with homomorphic operators.

    ``a + b`` and ``a + int`` are homomorphic additions; ``a * int`` is the
    homomorphic plaintext multiplication.  These map exactly onto the two
    "homomorphic properties" equations of Section 3.7.
    """

    __slots__ = ("public_key", "value")

    def __init__(self, public_key: PaillierPublicKey, value: int):
        self.public_key = public_key
        self.value = value % public_key.n_squared

    def __add__(self, other: "PaillierCiphertext | int") -> "PaillierCiphertext":
        n_sq = self.public_key.n_squared
        if isinstance(other, PaillierCiphertext):
            if other.public_key != self.public_key:
                raise PaillierError("cannot add ciphertexts under different keys")
            return PaillierCiphertext(self.public_key,
                                      (self.value * other.value) % n_sq)
        # Adding a plaintext constant: multiply by g^other (deterministic
        # encryption of the constant with r=1; callers rerandomize when the
        # result crosses a trust boundary).
        g_m = self.public_key.raw_encrypt_constant(other)
        return PaillierCiphertext(self.public_key, (self.value * g_m) % n_sq)

    __radd__ = __add__

    def __mul__(self, scalar: int) -> "PaillierCiphertext":
        if not isinstance(scalar, int):
            raise PaillierError(
                f"can only multiply by integer plaintexts, got {type(scalar)}"
            )
        n = self.public_key.n
        return PaillierCiphertext(
            self.public_key,
            cached_pow(self.value, scalar % n, self.public_key.n_squared),
        )

    __rmul__ = __mul__

    def __sub__(self, other: "PaillierCiphertext | int") -> "PaillierCiphertext":
        if isinstance(other, PaillierCiphertext):
            return self + (other * -1)
        return self + (-other)

    def rerandomize(self, rng: random.Random,
                    pool: "RandomnessPool | None" = None,
                    ) -> "PaillierCiphertext":
        """Multiply by a fresh encryption of zero.

        Strips any algebraic relationship between this ciphertext and the
        operands it was derived from -- required before a ciphertext built
        with homomorphic ops is sent to the key holder.  With ``pool``
        the zero-encryption comes pregenerated (one mulmod online).
        """
        n_sq = self.public_key.n_squared
        if pool is not None:
            if pool.public_key != self.public_key:
                raise PaillierError("randomness pool bound to a different key")
            zero_enc = pool.rerandomization_unit()
        else:
            r = self.public_key.random_unit(rng)
            zero_enc = cached_pow(r, self.public_key.n, n_sq)
        return PaillierCiphertext(self.public_key,
                                  (self.value * zero_enc) % n_sq)

    def __eq__(self, other: object) -> bool:
        return (isinstance(other, PaillierCiphertext)
                and self.public_key == other.public_key
                and self.value == other.value)

    def __hash__(self) -> int:
        return hash((self.public_key.n, self.value))

    def __repr__(self) -> str:
        return f"PaillierCiphertext(bits={self.public_key.bits})"


def _paillier_l(u: int, n: int) -> int:
    """The ``L(u) = (u - 1) / n`` function; ``u`` must be 1 mod n."""
    quotient, remainder = divmod(u - 1, n)
    if remainder:
        raise PaillierError("L(u) undefined: u is not congruent to 1 mod n")
    return quotient


def _l_quotient(u: int, divisor: int) -> int:
    """``(u - 1) // divisor`` without the divisibility check.

    The CRT branches apply L with exponent ``p - 1``; Fermat guarantees
    divisibility for valid ciphertexts, and invalid ones (multiples of a
    prime factor -- negligible probability, or active tampering) still
    yield a well-defined integer rather than an exception, matching the
    semi-honest model's tamper behaviour tests.
    """
    return (u - 1) // divisor


def _raw_encrypt_constant(self: PaillierPublicKey, constant: int) -> int:
    """``g^constant mod n^2`` -- deterministic encryption with unit randomness."""
    return self._g_pow(constant % self.n)


@lru_cache(maxsize=16)
def _fixed_base_table(g: int, n_squared: int, bits: int):
    """Memoized fixed-base window table for random-``g`` keys.

    Imported lazily: :mod:`repro.crypto.precompute` type-checks against
    this module, so a module-level import would be circular.
    """
    from repro.crypto.precompute import FixedBaseExp
    return FixedBaseExp(g, n_squared, bits)


# Attached here rather than in the dataclass body to keep the frozen
# dataclass declaration free of non-field logic.
PaillierPublicKey.raw_encrypt_constant = _raw_encrypt_constant


def generate_paillier_keypair(bits: int, rng: random.Random,
                              random_g: bool = False) -> PaillierKeyPair:
    """Generate a Paillier keypair following Section 3.7.

    Args:
        bits: size of the modulus ``n`` in bits (each prime is ``bits//2``).
        rng: randomness source (seed it for reproducible tests).
        random_g: if True, draw ``g`` uniformly from ``Z*_{n^2}`` and retry
            until the ``mu`` inverse exists -- the paper's literal
            procedure.  Default uses ``g = n + 1``, which always satisfies
            the divisibility condition and enables the fast-encrypt path.
    """
    if bits < 64:
        raise PaillierError(f"modulus of {bits} bits is too small to be useful")
    while True:
        p, q = generate_distinct_primes(bits // 2, rng)
        n = p * q
        # The paper's explicit check; automatic when p, q have equal size,
        # but we verify rather than assume.
        if math.gcd(n, (p - 1) * (q - 1)) == 1:
            break

    lam = lcm(p - 1, q - 1)
    n_sq = n * n

    if random_g:
        while True:
            g = rng.randrange(2, n_sq)
            if math.gcd(g, n_sq) != 1:
                continue
            try:
                mu = mod_inverse(_paillier_l(pow(g, lam, n_sq), n), n)
            except (ValueError, PaillierError):
                continue  # n does not divide the order of g; redraw
            break
    else:
        g = n + 1
        mu = mod_inverse(_paillier_l(pow(g, lam, n_sq), n), n)

    # CRT decryption constants (see PaillierPrivateKey docstring).
    hp = mod_inverse(_l_quotient(pow(g, p - 1, p * p), p), p)
    hq = mod_inverse(_l_quotient(pow(g, q - 1, q * q), q), q)

    public = PaillierPublicKey(n=n, g=g)
    private = PaillierPrivateKey(public_key=public, lam=lam, mu=mu, p=p, q=q,
                                 hp=hp, hq=hq)
    return PaillierKeyPair(public_key=public, private_key=private)
