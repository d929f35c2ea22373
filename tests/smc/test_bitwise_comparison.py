"""Tests for the DGK-style bitwise comparison."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.crypto import integer_math, paillier, precompute
from repro.crypto.engine import ModexpEngine
from repro.crypto.keycache import cached_paillier_keypair
from repro.crypto.paillier import PaillierCiphertext
from repro.crypto.precompute import RandomnessPool
from repro.net.channel import Channel
from repro.net.party import make_party_pair
from repro.smc import bitwise_comparison
from repro.smc.bitwise_comparison import (
    BitwiseComparisonError,
    dgk_greater_than,
    dgk_greater_than_batch,
    witness_bound,
)

KEYS = cached_paillier_keypair(256, 810)
BATCHED = bitwise_comparison._blinded_witness_batches


def _fresh_parties(seed: int = 0):
    return make_party_pair(Channel(), alice_seed=seed, bob_seed=seed + 1)


class TestCorrectness:
    @pytest.mark.parametrize("x,y,bits", [
        (0, 0, 1), (1, 0, 1), (0, 1, 1),
        (5, 3, 4), (3, 5, 4), (7, 7, 4),
        (15, 0, 4), (0, 15, 4), (255, 254, 8), (254, 255, 8),
        (2**30, 2**30 - 1, 32),
    ])
    def test_boundary_cases(self, x, y, bits):
        alice, bob = _fresh_parties(x * 31 + y)
        assert dgk_greater_than(alice, x, bob, y, bits, KEYS) == (x > y)

    @settings(max_examples=25, deadline=None)
    @given(st.integers(min_value=0, max_value=2**20 - 1),
           st.integers(min_value=0, max_value=2**20 - 1),
           st.integers(min_value=0, max_value=100))
    def test_random_pairs(self, x, y, seed):
        alice, bob = _fresh_parties(seed)
        assert dgk_greater_than(alice, x, bob, y, 20, KEYS) == (x > y)


class TestValidation:
    def test_x_out_of_range(self):
        alice, bob = _fresh_parties()
        with pytest.raises(BitwiseComparisonError, match="x=8"):
            dgk_greater_than(alice, 8, bob, 1, 3, KEYS)

    def test_y_out_of_range(self):
        alice, bob = _fresh_parties()
        with pytest.raises(BitwiseComparisonError, match="y=-1"):
            dgk_greater_than(alice, 1, bob, -1, 3, KEYS)

    def test_zero_bits(self):
        alice, bob = _fresh_parties()
        with pytest.raises(BitwiseComparisonError, match="bits"):
            dgk_greater_than(alice, 0, bob, 0, 0, KEYS)


class TestCommunicationShape:
    def test_two_messages_per_run(self):
        channel = Channel()
        alice, bob = make_party_pair(channel, 1, 2)
        dgk_greater_than(alice, 9, bob, 5, 8, KEYS, label="t")
        labels = [e.label for e in channel.transcript.entries]
        assert labels == ["t/x_bits", "t/witnesses"]

    def test_batch_sizes_equal_bit_width(self):
        channel = Channel()
        alice, bob = make_party_pair(channel, 1, 2)
        bits = 12
        dgk_greater_than(alice, 9, bob, 5, bits, KEYS, label="t")
        for entry in channel.transcript.entries:
            assert len(entry.value) == bits

    def test_cost_logarithmic_vs_ympp(self):
        # The whole point of the substitution: 2*bits ciphertexts instead
        # of n0 numbers.  For a 2^20 domain the DGK transfer is far below
        # what YMPP's 2^20-number sequence would be.
        channel = Channel()
        alice, bob = make_party_pair(channel, 1, 2)
        dgk_greater_than(alice, 2**19, bob, 2**19 - 1, 20, KEYS)
        n_squared_bytes = (KEYS.public_key.n_squared.bit_length() + 7) // 8
        assert channel.stats.total_bytes < 3 * 20 * (n_squared_bytes + 8)


class TestBatch:
    """Amortized batches: one bit-encryption, per-point predicate bits."""

    @settings(max_examples=20, deadline=None)
    @given(st.integers(min_value=0, max_value=2**16 - 1),
           st.lists(st.integers(min_value=0, max_value=2**16 - 1),
                    min_size=0, max_size=8),
           st.integers(min_value=0, max_value=100))
    def test_matches_per_point_predicates(self, x, ys, seed):
        alice, bob = _fresh_parties(seed)
        assert dgk_greater_than_batch(alice, x, bob, ys, 16, KEYS) \
            == [dgk_greater_than(alice, x, bob, y, 16, KEYS) for y in ys] \
            == [x > y for y in ys]

    def test_empty_batch_sends_nothing(self):
        channel = Channel()
        alice, bob = make_party_pair(channel, 1, 2)
        assert dgk_greater_than_batch(alice, 3, bob, [], 4, KEYS) == []
        assert channel.transcript.entries == []

    def test_one_round_trip_regardless_of_batch_size(self):
        channel = Channel()
        alice, bob = make_party_pair(channel, 1, 2)
        dgk_greater_than_batch(alice, 9, bob, [5, 11, 9, 0], 8, KEYS,
                               label="t")
        labels = [e.label for e in channel.transcript.entries]
        assert labels == ["t/x_bits", "t/witnesses"]

    def test_witness_batches_per_point_shape(self):
        channel = Channel()
        alice, bob = make_party_pair(channel, 1, 2)
        bits = 12
        dgk_greater_than_batch(alice, 9, bob, [5, 3000, 9], bits, KEYS,
                               label="t")
        x_bits = channel.transcript.with_label("t/x_bits")[0].value
        assert len(x_bits) == bits  # encrypted once, not per point
        batches = channel.transcript.with_label("t/witnesses")[0].value
        assert len(batches) == 3
        assert all(len(batch) == bits for batch in batches)

    def test_each_batch_obliviously_witnesses_its_predicate(self):
        # Per point: exactly one zero when x > y_i, none otherwise --
        # the shared bit-encryption must not cross-contaminate batches.
        channel = Channel()
        alice, bob = make_party_pair(channel, 3, 4)
        ys = [13, 700, 699, 701]
        dgk_greater_than_batch(alice, 700, bob, ys, 10, KEYS, label="t")
        batches = channel.transcript.with_label("t/witnesses")[0].value
        for y, batch in zip(ys, batches):
            zeros = sum(1 for value in batch
                        if KEYS.private_key.decrypt_raw(value) == 0)
            assert zeros == (1 if 700 > y else 0), y

    def test_validation_covers_every_item(self):
        alice, bob = _fresh_parties()
        with pytest.raises(BitwiseComparisonError, match="y=8"):
            dgk_greater_than_batch(alice, 1, bob, [0, 8], 3, KEYS)
        with pytest.raises(BitwiseComparisonError, match="x=8"):
            dgk_greater_than_batch(alice, 8, bob, [0], 3, KEYS)
        with pytest.raises(BitwiseComparisonError, match="bits"):
            dgk_greater_than_batch(alice, 0, bob, [0], 0, KEYS)


class TestComplements:
    """``E(1 - x_t)`` costs ``bits`` negative scalar-muls per received
    bit batch -- the same for every ``y`` and every batch size."""

    @pytest.fixture
    def negative_muls(self, monkeypatch):
        from repro.crypto.paillier import PaillierCiphertext
        original = PaillierCiphertext.__mul__
        count = [0]

        def counting_mul(cipher, scalar):
            n = cipher.public_key.n
            if scalar % n > n // 2:
                count[0] += 1
            return original(cipher, scalar)

        monkeypatch.setattr(PaillierCiphertext, "__mul__", counting_mul)
        return count

    @pytest.mark.parametrize("size", [1, 2, 5])
    def test_batch_count_independent_of_bits_and_size(self, negative_muls,
                                                      size):
        bits = 8
        for y in (0, (1 << bits) - 1):
            alice, bob = _fresh_parties(size)
            negative_muls[0] = 0
            result = dgk_greater_than_batch(alice, 0b10110100, bob,
                                            [y] * size, bits, KEYS)
            assert result == [0b10110100 > y] * size
            assert negative_muls[0] == bits, (y, size)

    @pytest.mark.parametrize("y", [0, 0b0101, 0b1111])
    def test_per_point_count_independent_of_bits(self, negative_muls, y):
        alice, bob = _fresh_parties(y)
        negative_muls[0] = 0
        assert dgk_greater_than(alice, 9, bob, y, 4, KEYS) == (9 > y)
        assert negative_muls[0] == 4


def _max_witness_pairs(bits: int) -> list[tuple[int, list[int]]]:
    """``(x, ys)`` groups where every bit of some ``y`` disagrees with
    ``x``: ``w_t = t`` at every position, the largest witnesses."""
    full = (1 << bits) - 1
    alternating = int("10" * bits, 2) >> bits
    groups = []
    for x in (full, 0, alternating, full ^ alternating):
        groups.append((x, [full ^ x, x, max(x - 1, 0), min(x + 1, full)]))
    return groups


class TestKeySizes:
    """Batched == per-point == plaintext at every key size.

    128- and 256-bit keys take the engine's one-powmod zero test; at a
    64-bit key the witness bound reaches the primes, so the same calls
    fall back to full decryption.
    """

    @pytest.mark.parametrize("key_bits", [64, 128, 256])
    @pytest.mark.parametrize("bits", [16, 41])
    def test_batched_per_point_plaintext_agree(self, key_bits, bits):
        keys = cached_paillier_keypair(key_bits, 811)
        private = keys.private_key
        falls_back = witness_bound(bits) > min(private.p, private.q)
        assert falls_back == (key_bits == 64)
        for x, ys in _max_witness_pairs(bits):
            alice, bob = _fresh_parties(x % 97)
            expected = [x > y for y in ys]
            assert dgk_greater_than_batch(alice, x, bob, ys, bits,
                                          keys) == expected
            assert [dgk_greater_than(alice, x, bob, y, bits, keys)
                    for y in ys] == expected

    @settings(max_examples=10, deadline=None)
    @given(st.sampled_from([64, 128, 256]),
           st.integers(min_value=0, max_value=2**16 - 1),
           st.lists(st.integers(min_value=0, max_value=2**16 - 1),
                    min_size=1, max_size=5),
           st.integers(min_value=0, max_value=100))
    def test_random_pairs(self, key_bits, x, ys, seed):
        keys = cached_paillier_keypair(key_bits, 811)
        alice, bob = _fresh_parties(seed)
        assert dgk_greater_than_batch(alice, x, bob, ys, 16, keys) \
            == [dgk_greater_than(alice, x, bob, y, 16, keys) for y in ys] \
            == [x > y for y in ys]


class TestObliviousness:
    def test_witness_batch_has_at_most_one_zero(self):
        # The decryptor must learn only the predicate: by construction at
        # most one witness decrypts to zero.
        channel = Channel()
        alice, bob = make_party_pair(channel, 3, 4)
        dgk_greater_than(alice, 700, bob, 13, 10, KEYS, label="t")
        witnesses = channel.transcript.with_label("t/witnesses")[0].value
        zeros = sum(1 for value in witnesses
                    if KEYS.private_key.decrypt_raw(value) == 0)
        assert zeros == 1  # x > y here, exactly one witness

    def test_no_zero_when_not_greater(self):
        channel = Channel()
        alice, bob = make_party_pair(channel, 5, 6)
        dgk_greater_than(alice, 13, bob, 700, 10, KEYS, label="t")
        witnesses = channel.transcript.with_label("t/witnesses")[0].value
        zeros = sum(1 for value in witnesses
                    if KEYS.private_key.decrypt_raw(value) == 0)
        assert zeros == 0


def _per_witness_batches(public, received, complements, ys, bits, rng,
                         pool, engine):
    """The per-witness reference for steps 2-3: one scalar-mul and one
    ``rerandomize`` per bit, then ``rng.shuffle`` of the witnesses."""
    batches = []
    for y in ys:
        y_bits = [(y >> (bits - 1 - t)) & 1 for t in range(bits)]
        blinded = []
        running_w = PaillierCiphertext(public, public.raw_encrypt_constant(0))
        for enc_x_bit, complement, y_bit in zip(received, complements,
                                                y_bits):
            c = enc_x_bit + (-y_bit - 1) + running_w * 3
            multiplier = rng.randrange(1, 1 << 40)
            blinded.append((c * multiplier).rerandomize(rng, pool).value)
            running_w = running_w + (complement if y_bit else enc_x_bit)
        rng.shuffle(blinded)
        batches.append(blinded)
    return batches


class TestBatchedBlinding:
    """Steps 2-3 as one engine batch equal the per-witness reference:
    same witnesses, same RNG states after, same pool accounting, and
    (on a serial engine) the same ``cached_pow`` arguments."""

    BITS = 8
    YS = [0, 0b10110011, 0b01101100, 0b11111111]
    # Blinding takes one factor per bit and y: 32 for the batch, 8 for
    # a per-point run; the "miss" pool runs dry after 5.
    PREFILL = {"pooled": 40, "miss": 5, "unpooled": None}

    def _run(self, entry, pool_case, engine, blinding, monkeypatch):
        monkeypatch.setattr(bitwise_comparison, "_blinded_witness_batches",
                            blinding)
        channel = Channel()
        alice, bob = make_party_pair(channel, 21, 22)
        pool = None
        if self.PREFILL[pool_case] is not None:
            pool = RandomnessPool(KEYS.public_key, random.Random(23))
            pool.refill(self.PREFILL[pool_case])
        if entry == "batch":
            result = dgk_greater_than_batch(alice, 0b10110100, bob, self.YS,
                                            self.BITS, KEYS, other_pool=pool,
                                            engine=engine)
        else:
            result = dgk_greater_than(alice, 0b10110100, bob, self.YS[1],
                                      self.BITS, KEYS, other_pool=pool,
                                      engine=engine)
        return {"result": result,
                "witnesses": channel.transcript.entries[-1].value,
                "rng": bob.rng.getstate(),
                "pool_rng": (pool.rng.getstate() if pool is not None
                             else None),
                "pool": pool.report() if pool is not None else None}

    @pytest.mark.parametrize("pool_case", ["pooled", "miss", "unpooled"])
    @pytest.mark.parametrize("entry", ["per-point", "batch"])
    def test_matches_per_witness_reference(self, entry, pool_case,
                                           monkeypatch):
        with ModexpEngine(workers=2, min_parallel_jobs=1) as parallel:
            for engine in (ModexpEngine(workers=1), parallel):
                expected = self._run(entry, pool_case, engine,
                                     _per_witness_batches, monkeypatch)
                assert self._run(entry, pool_case, engine, BATCHED,
                                 monkeypatch) == expected
        if pool_case == "miss":
            assert expected["pool"]["misses"] > 0
        elif pool_case == "pooled":
            assert expected["pool"]["misses"] == 0

    @pytest.mark.parametrize("pool_case", ["pooled", "miss", "unpooled"])
    def test_serial_engine_memo_arguments_unchanged(self, pool_case,
                                                    monkeypatch):
        """A replay after the change hits the memo entries the
        per-witness path made: the ``cached_pow`` argument sets agree."""
        original = integer_math.cached_pow
        calls = {}

        def recorder(into):
            def recording(base, exponent, modulus):
                into.add((base, exponent, modulus))
                return original(base, exponent, modulus)
            return recording

        for blinding in (_per_witness_batches, BATCHED):
            calls[blinding] = set()
            for module in (integer_math, paillier, precompute):
                monkeypatch.setattr(module, "cached_pow",
                                    recorder(calls[blinding]))
            self._run("batch", pool_case, ModexpEngine(workers=1), blinding,
                      monkeypatch)
        assert calls[BATCHED] == calls[_per_witness_batches]
