"""Tests for the DGK-style bitwise comparison."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.crypto.keycache import cached_paillier_keypair
from repro.net.channel import Channel
from repro.net.party import make_party_pair
from repro.smc.bitwise_comparison import (
    BitwiseComparisonError,
    dgk_greater_than,
    dgk_greater_than_batch,
    witness_bound,
)

KEYS = cached_paillier_keypair(256, 810)


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
