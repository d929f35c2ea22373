"""DGK-style bitwise secure comparison over Paillier.

This is the large-domain substitute for YMPP (see DESIGN.md,
Substitutions).  YMPP transfers ``n0`` numbers per comparison, which is
infeasible when the compared values are fixed-point squared distances
living in a 2^40-sized domain; this protocol computes the identical
one-sided functionality with ``O(log n0)`` ciphertexts, following the
blueprint of Damgard-Geisler-Kroigaard (DGK 2007) instantiated on the
same Paillier cryptosystem the rest of the paper uses.

Functionality: the *key holder* has private ``x``, the *other party* has
private ``y``, both ``bits``-bit non-negative integers.  The key holder
learns whether ``x > y``; the other party learns nothing.

Protocol:

1. Key holder sends ``E(x_t)`` for each bit ``x_t`` (MSB first).
2. For each position ``t`` the other party homomorphically computes
   ``E(c_t)`` with ``c_t = x_t - y_t - 1 + 3 * w_t`` where
   ``w_t = sum_{s<t} (x_s XOR y_s)`` counts disagreeing higher bits;
   ``c_t = 0`` iff position ``t`` witnesses ``x > y`` (``x_t=1, y_t=0``,
   all higher bits equal).  The XOR under encryption is ``E(x_t)``
   where ``y_t = 0`` and the complement ``E(1 - x_t)`` where
   ``y_t = 1``; the complements are computed once per received bit
   batch, for every ``t`` whatever ``y`` is, each by one modular
   inverse (a scalar-mul by -1, see
   :meth:`~repro.crypto.paillier.PaillierCiphertext.__mul__`).
3. The other party blinds each ``E(c_t)`` with a random multiplier,
   rerandomizes, shuffles, and returns the batch.  The blinding powmods
   ``E(c_t)^r`` and the rerandomization factors a pool does not supply
   run as one engine batch per received bit batch, with every random
   draw made in the per-bit order (multiplier, then factor) and the
   shuffle drawn per ``y`` as a permutation of indices, applied once
   the batch returns.
4. The key holder tests each witness for zero: some plaintext is 0
   <=>  ``x > y``.  A witness plaintext is ``c_t * r`` with
   ``|c_t| <= 3 * bits`` and ``r < 2^_BLIND_BITS``, so it is below
   :func:`witness_bound` in magnitude; when that bound is below both
   key primes, :meth:`~repro.crypto.engine.ModexpEngine.zero_test_batch`
   answers with one half-width powmod per witness and never forms a
   plaintext (smaller keys fall back to full decryption).

Amortized batches: :func:`dgk_greater_than_batch` compares one
key-holder value ``x`` against many other-party values ``y_1..y_k`` in a
single round-trip.  Step 1 runs **once** -- the key holder's bit
ciphertexts are shared by every comparison of the batch, which is sound
because they are semantically secure and carry no per-``y`` state --
while steps 2-3 run per ``y_i`` exactly as in the per-point protocol
(independent blinding multipliers, independent rerandomization, an
independent shuffle per point) against complements computed once for
the whole batch, with the blinding of every ``y_i`` in one engine batch,
and step 4 zero-tests all witness batches in one engine sweep.  The
predicate bits are bit-identical to ``k`` per-point runs; only the key
holder's encryption count (``bits`` instead of ``k * bits``) and the
message count (2 instead of ``2k``) change.
"""

from __future__ import annotations

from repro.crypto.engine import ModexpEngine, default_engine
from repro.crypto.paillier import (
    PaillierCiphertext,
    PaillierError,
    PaillierKeyPair,
)
from repro.crypto.precompute import RandomnessPool
from repro.net.party import Party

# Blinding multipliers are drawn from [1, 2^_BLIND_BITS); they keep
# c_t * r_t nonzero mod n (|c_t| is tiny and n is cryptographic) while
# hiding the magnitude of nonzero c_t.
_BLIND_BITS = 40


class BitwiseComparisonError(ValueError):
    """Raised on out-of-domain inputs."""


def witness_bound(bits: int) -> int:
    """Exclusive bound on ``|c_t * r|`` for a ``bits``-bit comparison.

    ``c_t = x_t - y_t - 1 + 3 * w_t`` lies in ``[-2, 3 * bits]`` and the
    blinding multiplier in ``[1, 2^_BLIND_BITS)``.  Public: it depends
    on the domain width alone.
    """
    return (3 * bits + 3) << _BLIND_BITS


def _check_domain(name: str, value: int, bits: int) -> None:
    if not 0 <= value < (1 << bits):
        raise BitwiseComparisonError(f"{name}={value} outside [0, 2^{bits})")


def _complements(public, received) -> list[PaillierCiphertext]:
    """``E(1 - x_t)`` for every received bit ciphertext ``E(x_t)``.

    Computed once per bit batch, for every position, before any ``y`` is
    looked at: the work is the same whatever the other party's bits are,
    and every ``y`` of a batch reuses it.
    """
    one = PaillierCiphertext(public, public.raw_encrypt_constant(1))
    return [one - enc_x_bit for enc_x_bit in received]


def _blinded_witness_batches(public, received, complements, ys, bits,
                             rng, pool, engine) -> list[list[int]]:
    """Steps 2-3 for every ``y``: blinded, shuffled witness batches.

    ``received`` are the key holder's bit ciphertexts (MSB first) and
    ``complements`` their :func:`_complements`.  Every blinding ``c_t^r``
    and every rerandomization factor ``r'^n`` a pool does not supply is
    one job of a single :meth:`~repro.crypto.engine.ModexpEngine.modexp_batch`
    over all of ``ys``.  The randomness is drawn in exactly the
    per-point order -- per bit the multiplier from ``rng``, then the
    rerandomization factor (a pool pop, else a unit from the pool's RNG,
    or from ``rng`` when unpooled); per ``y`` one shuffle of ``bits``
    indices -- so witnesses, RNG states and pool accounting are those of
    ``(c_t * r).rerandomize(rng, pool)`` per bit and ``rng.shuffle`` per
    ``y``.  A serial engine runs the jobs through ``cached_pow`` under
    the same arguments as that path, so replays hit the memo alike.
    """
    if pool is not None and pool.public_key != public:
        raise PaillierError("randomness pool bound to a different key")
    n, n_sq = public.n, public.n_squared
    jobs: list[tuple[int, int, int]] = []
    # Per witness: its blinding job's index and its pooled factor; on a
    # pool miss (or unpooled) the factor is the job right after it.
    slots: list[tuple[int, int | None]] = []
    orders: list[list[int]] = []
    for y in ys:
        y_bits = [(y >> (bits - 1 - t)) & 1 for t in range(bits)]
        # running_w accumulates E(sum of XORs of strictly-higher bits).
        running_w = PaillierCiphertext(public, public.raw_encrypt_constant(0))
        for enc_x_bit, complement, y_bit in zip(received, complements,
                                                y_bits):
            # c_t = x_t - y_t - 1 + 3 * w_t, all under encryption.
            c = enc_x_bit + (-y_bit - 1) + running_w * 3
            # The multiplier is below 2^_BLIND_BITS <= n // 2 (keys have
            # at least 64 bits), so ``c * multiplier`` is plainly
            # ``c^multiplier mod n^2``.
            multiplier = rng.randrange(1, 1 << _BLIND_BITS)
            factor = pool.try_factor() if pool is not None else None
            slots.append((len(jobs), factor))
            jobs.append((c.value, multiplier, n_sq))
            if factor is None:
                unit = public.random_unit(rng if pool is None else pool.rng)
                jobs.append((unit, n, n_sq))
            # XOR under encryption: x ^ y = x when y=0, 1 - x when y=1.
            running_w = running_w + (complement if y_bit else enc_x_bit)
        order = list(range(bits))
        rng.shuffle(order)
        orders.append(order)
    powers = engine.modexp_batch(jobs)
    witnesses = [powers[at] * (powers[at + 1] if factor is None else factor)
                 % n_sq for at, factor in slots]
    return [[witnesses[start + position] for position in order]
            for start, order in zip(range(0, len(witnesses), bits), orders)]


def dgk_greater_than(key_holder: Party, x: int, other: Party, y: int,
                     bits: int, keypair: PaillierKeyPair, *,
                     label: str = "dgk",
                     key_holder_pool: RandomnessPool | None = None,
                     other_pool: RandomnessPool | None = None,
                     engine: ModexpEngine | None = None) -> bool:
    """Decide ``x > y``; only ``key_holder`` (who owns ``keypair``) learns it.

    Args:
        key_holder: party holding ``x`` and the Paillier private key.
        x: key holder's value, in ``[0, 2^bits)``.
        other: party holding ``y``.
        y: other party's value, in ``[0, 2^bits)``.
        bits: public bit-width of the compared domain.
        keypair: key holder's Paillier keys; the public half is assumed
            already known to ``other`` (session exchanges it once).
        label: transcript label prefix.
        key_holder_pool / other_pool: optional pregenerated randomness
            for each party's encryptions under the key holder's key --
            the bit-encryption and blinding loops are the protocols'
            hottest powmod sites, and pools turn each into a mulmod.
        engine: optional :class:`~repro.crypto.engine.ModexpEngine`
            executing the bit-encryption batch, the blinding and the
            witness zero test as sharded modexp jobs (bit-identical
            results; :func:`~repro.crypto.engine.default_engine` when
            omitted).
    """
    if bits < 1:
        raise BitwiseComparisonError(f"bits must be >= 1, got {bits}")
    _check_domain("x", x, bits)
    _check_domain("y", y, bits)

    public = keypair.public_key
    engine = engine or default_engine()

    # --- Step 1 (key holder): encrypt bits of x, MSB first. ---------------
    x_bits = [(x >> (bits - 1 - t)) & 1 for t in range(bits)]
    encrypted_bits = engine.encrypt_batch(public, x_bits, key_holder.rng,
                                          key_holder_pool)
    key_holder.send(f"{label}/x_bits", [c.value for c in encrypted_bits])

    # --- Steps 2-3 (other party): blinded witness ciphertexts. ------------
    received_values = other.receive(f"{label}/x_bits")
    received = [PaillierCiphertext(public, v) for v in received_values]
    [blinded] = _blinded_witness_batches(
        public, received, _complements(public, received), [y], bits,
        other.rng, other_pool, engine)
    other.send(f"{label}/witnesses", blinded)

    # --- Step 4 (key holder): look for a witness encrypting zero. ----------
    witnesses = key_holder.receive(f"{label}/witnesses")
    return any(engine.zero_test_batch(keypair.private_key, witnesses,
                                      witness_bound(bits)))


def dgk_greater_than_batch(key_holder: Party, x: int, other: Party,
                           ys: list[int], bits: int,
                           keypair: PaillierKeyPair, *,
                           label: str = "dgk",
                           key_holder_pool: RandomnessPool | None = None,
                           other_pool: RandomnessPool | None = None,
                           engine: ModexpEngine | None = None) -> list[bool]:
    """Decide ``x > y_i`` for every ``y_i``; only ``key_holder`` learns them.

    The amortized form of :func:`dgk_greater_than`: the key holder's bit
    ciphertexts are produced once and shared by every comparison, the
    other party evaluates one independently blinded and shuffled witness
    batch per ``y_i`` against them, and all witness batches travel (and
    are zero-tested) together.  One message in each direction regardless
    of ``len(ys)``; predicate bits identical to ``len(ys)`` per-point
    runs.
    """
    if bits < 1:
        raise BitwiseComparisonError(f"bits must be >= 1, got {bits}")
    _check_domain("x", x, bits)
    for y in ys:
        _check_domain("y", y, bits)
    if not ys:
        return []

    public = keypair.public_key
    engine = engine or default_engine()

    # --- Step 1 (key holder), once for the whole batch. --------------------
    x_bits = [(x >> (bits - 1 - t)) & 1 for t in range(bits)]
    encrypted_bits = engine.encrypt_batch(public, x_bits, key_holder.rng,
                                          key_holder_pool)
    key_holder.send(f"{label}/x_bits", [c.value for c in encrypted_bits])

    # --- Steps 2-3 (other party), per y, against the shared bits. ----------
    received_values = other.receive(f"{label}/x_bits")
    received = [PaillierCiphertext(public, v) for v in received_values]
    batches = _blinded_witness_batches(
        public, received, _complements(public, received), ys, bits,
        other.rng, other_pool, engine)
    other.send(f"{label}/witnesses", batches)

    # --- Step 4 (key holder): one zero-test sweep over every batch. --------
    witness_batches = key_holder.receive(f"{label}/witnesses")
    flat = [value for batch in witness_batches for value in batch]
    zeros = engine.zero_test_batch(keypair.private_key, flat,
                                   witness_bound(bits))
    return [any(zeros[index * bits:(index + 1) * bits])
            for index in range(len(witness_batches))]
