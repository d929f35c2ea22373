"""Modular integer arithmetic primitives.

These are the number-theoretic building blocks for the Paillier
cryptosystem (Section 3.7 of the paper) and textbook RSA (used inside
Yao's Millionaires' Problem Protocol, Section 3.8).  Everything here is
deterministic pure-integer math; randomized routines live in
:mod:`repro.crypto.primes`.
"""

from __future__ import annotations

import math
from functools import lru_cache


@lru_cache(maxsize=1 << 16)
def cached_pow(base: int, exponent: int, modulus: int) -> int:
    """``pow(base, exponent, modulus)`` behind a bounded memo.

    The restartable async pass runtime
    (:mod:`repro.runtime.async_pass`) re-executes a region query from
    its start whenever a missing frame parks it, so the online powmods
    of the replayed prefix repeat with *identical* arguments -- this
    memo turns every repeat into a dict hit instead of a fresh
    exponentiation.  The in-process refill paths share the memo too, so
    a resident daemon prefilling pools for a session whose coin stream
    it has served before pays dict hits, exactly like the replays.
    Only worker *processes* keep plain ``pow`` -- their memory is not
    shared, so a memo there would only burn RAM.  The function is pure,
    so memoization cannot change any result, transcript, or ledger.
    """
    return pow(base, exponent, modulus)


def powmod_cache_report() -> dict[str, int]:
    """Hit/miss/eviction accounting for the :func:`cached_pow` memo.

    ``evictions`` is derived: every miss inserts one entry, so entries
    beyond ``currsize`` were pushed out by the LRU bound.  Feeds the
    daemon's metrics collector and the ``repro stats`` summary.
    """
    info = cached_pow.cache_info()
    return {
        "hits": info.hits,
        "misses": info.misses,
        "size": info.currsize,
        "maxsize": info.maxsize or 0,
        "evictions": max(0, info.misses - info.currsize),
    }


def mod_inverse(a: int, modulus: int) -> int:
    """Multiplicative inverse of ``a`` modulo ``modulus``.

    One builtin ``pow(a, -1, modulus)`` (a C-level extended gcd).

    Raises:
        ValueError: if ``a`` is not invertible (``gcd(a, modulus) != 1``)
            or the modulus is not positive.
    """
    if modulus <= 0:
        raise ValueError(f"modulus must be positive, got {modulus}")
    try:
        return pow(a, -1, modulus)
    except ValueError:
        raise ValueError(
            f"{a} has no inverse modulo {modulus} "
            f"(gcd={math.gcd(a, modulus)})") from None


def lcm(a: int, b: int) -> int:
    """Least common multiple; ``lambda = lcm(p-1, q-1)`` in Paillier keygen."""
    if a == 0 or b == 0:
        return 0
    return abs(a * b) // math.gcd(a, b)


def crt_pair(residue_p: int, p: int, residue_q: int, q: int) -> int:
    """Chinese Remainder Theorem for two coprime moduli.

    Returns the unique ``x`` in ``[0, p*q)`` with ``x = residue_p (mod p)``
    and ``x = residue_q (mod q)``.  Used by the CRT-accelerated Paillier
    decryption path.
    """
    try:
        inv_p_mod_q = pow(p, -1, q)
    except ValueError:
        raise ValueError(f"moduli must be coprime, gcd({p}, {q}) = "
                         f"{math.gcd(p, q)}") from None
    diff = (residue_q - residue_p) % q
    return (residue_p + p * ((diff * inv_p_mod_q) % q)) % (p * q)


def int_bit_length_bytes(value: int) -> int:
    """Number of bytes needed to store ``value`` (minimum one byte).

    The accounting channel uses this to charge protocols for the exact
    serialized size of each transmitted integer.
    """
    if value < 0:
        value = -value
    return max(1, (value.bit_length() + 7) // 8)


def isqrt_exact(value: int) -> int | None:
    """Integer square root if ``value`` is a perfect square, else ``None``."""
    if value < 0:
        return None
    root = math.isqrt(value)
    return root if root * root == value else None


def pow_mod(base: int, exponent: int, modulus: int) -> int:
    """Modular exponentiation supporting negative exponents.

    A negative exponent is resolved as ``(base^-1)^|exponent|``: the
    builtin ``pow`` takes one modular inverse (a C-level extended gcd)
    and then an exponent as wide as ``|exponent|``.  The whole result
    sits in the :func:`cached_pow` memo under the negative exponent, so
    a replayed query hits it exactly as it hits a positive one.  This is
    the kernel of :meth:`repro.crypto.paillier.PaillierCiphertext.__mul__`
    for negative scalars (HDP cross terms of negative coordinates, the
    DGK complements ``E(1 - x_t)``).

    Raises:
        ValueError: if the modulus is not positive, or the exponent is
            negative and ``base`` is not invertible modulo ``modulus``.
    """
    if modulus <= 0:
        raise ValueError(f"modulus must be positive, got {modulus}")
    try:
        return cached_pow(base, exponent, modulus)
    except ValueError:
        raise ValueError(
            f"{base} has no inverse modulo {modulus}") from None
