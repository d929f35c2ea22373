"""Engine-vs-serial equivalence tests for the parallel modexp engine.

The binding property (the PR-2 tentpole contract): a
:class:`~repro.crypto.engine.ModexpEngine` never changes *what* is
computed -- pool fills, batch encryptions, batch decryptions, and DGK
bit batches must be bit-identical to the seed-era serial loops under the
same RNG state, for every worker count and for the serial fallback.
"""

import dataclasses
import os
import random
import subprocess
import sys
from concurrent.futures.process import BrokenProcessPool

import pytest
from hypothesis import given, settings, strategies as st

from repro.crypto.engine import (
    EngineError,
    ModexpEngine,
    default_engine,
    usable_cpus,
)
from repro.crypto.keycache import cached_paillier_keypair
from repro.crypto.paillier import PaillierError, generate_paillier_keypair
from repro.crypto.precompute import RandomnessPool
from repro.crypto.sealed import seal_paillier_keypair
from repro.net.channel import Channel
from repro.net.party import make_party_pair
from repro.smc.bitwise_comparison import dgk_greater_than, witness_bound

KEYS = cached_paillier_keypair(256, 920)
PUB = KEYS.public_key
PRIV = KEYS.private_key


def _parallel_engine(workers=2):
    """An engine that shards even tiny batches (exercises the pool path)."""
    return ModexpEngine(workers=workers, min_parallel_jobs=1)


class TestModexpBatch:
    def test_matches_builtin_pow_serial_and_parallel(self):
        rng = random.Random(0)
        jobs = [(rng.randrange(2, 1 << 64), rng.randrange(1, 1 << 32),
                 rng.randrange(2, 1 << 64)) for _ in range(40)]
        expected = [pow(b, e, m) for b, e, m in jobs]
        assert ModexpEngine(workers=1).modexp_batch(jobs) == expected
        with _parallel_engine() as engine:
            assert engine.modexp_batch(jobs) == expected
            assert engine.report()["parallel_batches"] == 1
            assert engine.report()["parallel_modexps"] == 40

    def test_empty_batch(self):
        assert ModexpEngine(workers=1).modexp_batch([]) == []

    def test_small_batches_stay_serial(self):
        engine = ModexpEngine(workers=2, min_parallel_jobs=64)
        engine.modexp_batch([(2, 10, 1000)] * 8)
        report = engine.report()
        assert report["parallel_batches"] == 0
        assert report["batches"] == 1 and report["jobs"] == 8

    def test_closed_engine_degrades_to_serial(self):
        engine = _parallel_engine()
        engine.close()
        assert engine.modexp_batch([(3, 5, 100)] * 4) == [pow(3, 5, 100)] * 4
        assert engine.report()["fallbacks"] == 1

    def test_validation(self):
        with pytest.raises(EngineError, match="workers"):
            ModexpEngine(workers=-1)
        with pytest.raises(EngineError, match="min_parallel_jobs"):
            ModexpEngine(min_parallel_jobs=0)
        with pytest.raises(EngineError, match="shards_per_worker"):
            ModexpEngine(shards_per_worker=0)

    def test_default_engine_is_host_sized_singleton(self, monkeypatch):
        engine = default_engine()
        assert engine is default_engine()
        assert engine.workers == usable_cpus()

        def no_pool():
            raise AssertionError("a small batch must not spawn the pool")

        monkeypatch.setattr(engine, "_ensure_executor", no_pool)
        jobs = [(3, 5, 100)] * (engine.min_parallel_jobs - 1)
        assert engine.modexp_batch(jobs) == [pow(3, 5, 100)] * len(jobs)

    def test_workers_none_sizes_to_usable_cpus(self, monkeypatch):
        monkeypatch.setattr(os, "cpu_count", lambda: 64)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 3, 5},
                            raising=False)
        assert ModexpEngine(workers=None).workers == 3
        # Platforms without an affinity API fall back to the CPU count.
        monkeypatch.delattr(os, "sched_getaffinity")
        assert ModexpEngine(workers=None).workers == 64

    def test_default_engine_exits_cleanly(self):
        """A parallel batch through the default engine leaves nothing to
        report at interpreter exit: the pool is closed by then."""
        script = (
            "from repro.crypto.engine import default_engine\n"
            "engine = default_engine()\n"
            "assert engine._executor is None\n"
            "jobs = [(3, 65537, 2**61 - 1)] * engine.min_parallel_jobs\n"
            "assert engine.modexp_batch(jobs) == [pow(*jobs[0])] * len(jobs)\n"
            "print(engine.report()['parallel_batches'])\n")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
        done = subprocess.run([sys.executable, "-c", script], env=env,
                              capture_output=True, text=True, timeout=60)
        assert done.returncode == 0, done.stderr
        assert done.stderr == ""
        assert done.stdout.strip() == ("1" if usable_cpus() > 1 else "0")


class _DeadExecutor:
    """A stub process pool whose workers have all died."""

    def __init__(self):
        self.shutdowns = []

    def map(self, fn, *iterables):
        raise BrokenProcessPool("a worker died")

    def shutdown(self, wait=True, *, cancel_futures=False):
        self.shutdowns.append((wait, cancel_futures))


class TestBrokenPool:
    """A dead pool is shut down (not merely dropped) and the engine
    carries on serially."""

    def test_batch_shuts_the_dead_pool_down(self):
        engine = _parallel_engine()
        dead = engine._executor = _DeadExecutor()
        jobs = [(3, 5, 100)] * 4
        assert engine.modexp_batch(jobs) == [pow(3, 5, 100)] * 4
        assert dead.shutdowns == [(False, True)]
        assert engine.report()["fallbacks"] == 1
        # The engine stays serial: no new pool for the next batch.
        assert engine.modexp_batch(jobs) == [pow(3, 5, 100)] * 4
        assert engine._executor is None
        assert engine.report()["parallel_batches"] == 0

    def test_warm_up_shuts_the_dead_pool_down(self):
        engine = _parallel_engine()
        dead = engine._executor = _DeadExecutor()
        assert engine.warm_up() is False
        assert dead.shutdowns == [(False, True)]
        assert engine._executor is None
        assert engine.report()["warmups"] == 0


class TestWarmUp:
    def test_serial_engine_never_warms(self):
        engine = ModexpEngine(workers=1)
        assert engine.warm_up() is False
        assert engine.report()["warmups"] == 0

    def test_closed_engine_never_warms(self):
        engine = _parallel_engine()
        engine.close()
        assert engine.warm_up() is False

    def test_warm_up_spawns_pool_without_changing_results(self):
        jobs = [(3, 5, 100)] * 4
        with _parallel_engine() as engine:
            warmed = engine.warm_up()
            report = engine.report()
            # Warm-up is pure lifecycle: no batches or jobs counted.
            assert report["batches"] == 0 and report["jobs"] == 0
            assert report["warmups"] == (1 if warmed else 0)
            assert engine.modexp_batch(jobs) == [pow(3, 5, 100)] * 4
            # A warmed pool is not warmed again.
            assert engine.warm_up() is warmed
            assert engine.report()["warmups"] == (1 if warmed else 0)
        # On hosts that cannot spawn a pool, warm_up reports False and
        # the engine keeps running serially -- never an exception.
        assert isinstance(warmed, bool)

    def test_session_precompute_warms_before_filling(self, monkeypatch):
        from repro.smc.session import SmcConfig, SmcSession
        engine = ModexpEngine(workers=1)
        session = SmcSession(*make_party_pair(Channel(), 1, 2),
                             SmcConfig(key_seed=77, engine=engine))
        calls = []
        monkeypatch.setattr(engine, "warm_up",
                            lambda: calls.append("warm_up"))
        monkeypatch.setattr(engine, "fill_pool",
                            lambda pool, count: calls.append("fill"))
        session.precompute_pools(3)
        assert calls == ["warm_up"] + ["fill"] * 4

    def test_mesh_precompute_warms_each_engine_once(self):
        from repro.multiparty.mesh import PartyMesh
        from repro.smc.session import SmcConfig
        with _parallel_engine() as engine:
            mesh = PartyMesh(["a", "b", "c"],
                             SmcConfig(key_seed=81, engine=engine),
                             seeds=[1, 2, 3])
            mesh.precompute_pools(2)
            # Three pairwise sessions share one engine object; the mesh
            # offline phase warms it exactly once per precompute call.
            assert engine.report()["warmups"] <= 1


class TestPoolFillEquivalence:
    def _pools(self, seed):
        return (RandomnessPool(PUB, random.Random(seed)),
                RandomnessPool(PUB, random.Random(seed)))

    @pytest.mark.parametrize("count", [0, 1, 7, 40])
    def test_engine_fill_matches_serial_refill(self, count):
        serial_pool, engine_pool = self._pools(3)
        serial_pool.refill(count)
        with _parallel_engine() as engine:
            engine.fill_pool(engine_pool, count)
        assert [serial_pool.encryption_factor() for _ in range(count)] \
            == [engine_pool.encryption_factor() for _ in range(count)]
        assert serial_pool.pregenerated == engine_pool.pregenerated == count
        assert engine_pool.misses == 0

    def test_serial_engine_fill_matches_refill(self):
        serial_pool, engine_pool = self._pools(4)
        serial_pool.refill(12)
        ModexpEngine(workers=1).fill_pool(engine_pool, 12)
        assert list(serial_pool._factors) == list(engine_pool._factors)

    def test_session_precompute_uses_engine(self):
        from repro.smc.session import SmcConfig, SmcSession
        with _parallel_engine() as engine:
            session = SmcSession(
                *make_party_pair(Channel(), 1, 2),
                SmcConfig(key_seed=77, engine=engine))
            session.precompute_pools(6)
            report = session.pool_report()
        assert all(entry["pregenerated"] == 6 for entry in report.values())
        assert engine.report()["jobs"] >= 24  # 4 pools x 6 factors


class TestEncryptBatchEquivalence:
    MESSAGES = [0, 1, 17, PUB.n - 1, 123456789]

    def test_no_pool(self):
        serial = PUB.encrypt_batch(self.MESSAGES, random.Random(5))
        with _parallel_engine() as engine:
            pooled = engine.encrypt_batch(PUB, self.MESSAGES,
                                          random.Random(5))
        assert [c.value for c in serial] == [c.value for c in pooled]

    @pytest.mark.parametrize("prefilled", [0, 2, 5])
    def test_pool_with_misses(self, prefilled):
        """Engine consumption must mirror the serial pop/miss order."""
        serial_pool = RandomnessPool(PUB, random.Random(6))
        engine_pool = RandomnessPool(PUB, random.Random(6))
        serial_pool.refill(prefilled)
        engine_pool.refill(prefilled)
        serial = PUB.encrypt_batch(self.MESSAGES, serial_pool.rng,
                                   serial_pool)
        with _parallel_engine() as engine:
            parallel = engine.encrypt_batch(PUB, self.MESSAGES,
                                            engine_pool.rng, engine_pool)
        assert [c.value for c in serial] == [c.value for c in parallel]
        assert serial_pool.report() == engine_pool.report()

    def test_decrypts_back(self):
        with _parallel_engine() as engine:
            ciphers = engine.encrypt_batch(PUB, self.MESSAGES,
                                           random.Random(7))
        assert [PRIV.decrypt(c) for c in ciphers] == self.MESSAGES

    def test_pool_key_mismatch_raises(self):
        other = cached_paillier_keypair(256, 921)
        pool = RandomnessPool(other.public_key, random.Random(0))
        with pytest.raises(PaillierError, match="different key"):
            _parallel_engine().encrypt_batch(PUB, [1], random.Random(0),
                                             pool)


class TestEncryptionFactorsEquivalence:
    """The PR-4 satellite: masker-side encrypt/rerandomize factor
    batches (Section 5 share generation) drawn through the engine must
    be bit-identical to the serial interleaved sequence."""

    def _serial_factors(self, count, rng, pool):
        """The seed-era draw order: one factor per encrypt/rerandomize."""
        factors = []
        for _ in range(count):
            if pool is not None:
                factors.append(pool.encryption_factor())
            else:
                factors.append(pow(PUB.random_unit(rng), PUB.n,
                                   PUB.n_squared))
        return factors

    def test_no_pool(self):
        serial = self._serial_factors(10, random.Random(8), None)
        with _parallel_engine() as engine:
            batched = engine.encryption_factors(PUB, 10, random.Random(8))
        assert serial == batched

    @pytest.mark.parametrize("prefilled", [0, 3, 10])
    def test_pool_with_misses(self, prefilled):
        serial_pool = RandomnessPool(PUB, random.Random(9))
        engine_pool = RandomnessPool(PUB, random.Random(9))
        serial_pool.refill(prefilled)
        engine_pool.refill(prefilled)
        serial = self._serial_factors(6, serial_pool.rng, serial_pool)
        with _parallel_engine() as engine:
            batched = engine.encryption_factors(PUB, 6, engine_pool.rng,
                                                engine_pool)
        assert serial == batched
        assert serial_pool.report() == engine_pool.report()

    def test_pool_key_mismatch_raises(self):
        other = cached_paillier_keypair(256, 921)
        pool = RandomnessPool(other.public_key, random.Random(0))
        with pytest.raises(PaillierError, match="different key"):
            _parallel_engine().encryption_factors(PUB, 1, random.Random(0),
                                                  pool)

    def test_scalar_products_transcript_engine_vs_serial(self):
        """Section 5 sharing routed through the engine is bit-identical
        on the wire (same masker ciphertexts, same results)."""
        from repro.smc.session import SmcConfig, SmcSession

        def run(engine):
            channel = Channel()
            session = SmcSession(
                *make_party_pair(channel, 31, 32),
                SmcConfig(paillier_bits=128, key_seed=922, engine=engine))
            values = session.scalar_products(
                session.alice, [3, -1, 4], session.bob,
                [[1, 5, 9], [2, 6, 5], [0, 0, 1]], [7, 8, 9])
            wire = [(e.sender, e.label, e.value)
                    for e in channel.transcript.entries]
            return values, wire

        serial_values, serial_wire = run(None)
        with _parallel_engine() as engine:
            engine_values, engine_wire = run(engine)
        assert serial_values == engine_values
        assert serial_wire == engine_wire
        assert serial_values == [3 - 5 + 36 + 7, 6 - 6 + 20 + 8, 4 + 9]


class TestDecryptBatchEquivalence:
    def _ciphertexts(self, count=9):
        rng = random.Random(8)
        return [PUB.encrypt(rng.randrange(PUB.n), rng).value
                for _ in range(count)]

    def test_crt_split_matches_serial(self):
        values = self._ciphertexts()
        with _parallel_engine() as engine:
            assert engine.decrypt_raw_batch(PRIV, values) \
                == PRIV.decrypt_raw_batch(values)

    def test_standard_key_matches_serial(self):
        """Keys without CRT constants take the full-modulus job shape."""
        plain_key = dataclasses.replace(PRIV, hp=None, hq=None)
        values = self._ciphertexts()
        with _parallel_engine() as engine:
            assert engine.decrypt_raw_batch(plain_key, values) \
                == plain_key.decrypt_raw_batch(values) \
                == PRIV.decrypt_raw_batch(values)

    def test_out_of_range_ciphertext_rejected(self):
        with pytest.raises(PaillierError, match="Z_"):
            _parallel_engine().decrypt_raw_batch(PRIV, [PUB.n_squared])
        with pytest.raises(PaillierError, match="Z_"):
            ModexpEngine(workers=1).decrypt_raw_batch(PRIV, [-1])


WITNESS_BOUND = witness_bound(41)  # a 41-bit squared-distance domain
RANDOM_G_KEYS = generate_paillier_keypair(256, random.Random(921),
                                          random_g=True)

# Plaintexts inside the witness bound: zero, blinded-witness-shaped
# multiples of 2^40 of either sign, and arbitrary values in between.
_bounded_plaintexts = st.one_of(
    st.just(0),
    st.integers(min_value=-125, max_value=125).map(lambda k: k << 40),
    st.integers(min_value=-WITNESS_BOUND + 1, max_value=WITNESS_BOUND - 1))


def _encrypt_signed(public, plaintexts, seed):
    """Ciphertext values of ``m mod n`` (negatives become ``n - |m|``)."""
    rng = random.Random(seed)
    return [public.encrypt(m % public.n, rng).value for m in plaintexts]


class TestZeroTestBatch:
    """``zero_test_batch`` answers exactly ``decrypt_raw_batch(...) == 0``."""

    @pytest.fixture(scope="class")
    def parallel(self):
        with _parallel_engine() as engine:
            yield engine

    @settings(max_examples=15, deadline=None)
    @given(st.lists(_bounded_plaintexts, min_size=1, max_size=12),
           st.integers(min_value=0, max_value=1000))
    def test_agrees_with_decryption_serial(self, plaintexts, seed):
        engine = ModexpEngine(workers=1)
        for keys in (KEYS, RANDOM_G_KEYS):
            values = _encrypt_signed(keys.public_key, plaintexts, seed)
            expected = [m == 0 for m in
                        keys.private_key.decrypt_raw_batch(values)]
            assert expected == [m == 0 for m in plaintexts]
            assert engine.zero_test_batch(keys.private_key, values,
                                          WITNESS_BOUND) == expected

    @settings(max_examples=5, deadline=None)
    @given(st.lists(_bounded_plaintexts, min_size=1, max_size=12),
           st.integers(min_value=0, max_value=1000))
    def test_agrees_with_decryption_parallel(self, parallel, plaintexts,
                                             seed):
        values = _encrypt_signed(PUB, plaintexts, seed)
        assert parallel.zero_test_batch(PRIV, values, WITNESS_BOUND) \
            == [m == 0 for m in parallel.decrypt_raw_batch(PRIV, values)]

    def test_one_half_width_job_per_ciphertext(self, parallel):
        values = _encrypt_signed(PUB, [0, 1 << 40, -(5 << 40)], 3)
        before = parallel.report()["parallel_modexps"]
        assert parallel.zero_test_batch(PRIV, values, WITNESS_BOUND) \
            == [True, False, False]
        assert parallel.report()["parallel_modexps"] - before == 3

    def test_fallback_when_bound_reaches_a_prime(self):
        """At a 64-bit key the witness bound exceeds ``p``: ``m = p`` is
        nonzero mod ``n`` yet divisible by ``p``, so only decryption can
        answer -- and the fallback runs the two-job CRT decrypt."""
        small = cached_paillier_keypair(64, 923)
        private = small.private_key
        assert WITNESS_BOUND > min(private.p, private.q)
        plaintexts = [0, private.p, private.q, 1 << 40, -(7 << 40)]
        values = _encrypt_signed(small.public_key, plaintexts, 4)
        expected = [True, False, False, False, False]
        assert ModexpEngine(workers=1).zero_test_batch(
            private, values, WITNESS_BOUND) == expected
        with _parallel_engine() as engine:
            assert engine.zero_test_batch(private, values,
                                          WITNESS_BOUND) == expected
            assert engine.report()["parallel_modexps"] == 2 * len(values)

    def test_fallback_without_crt_constants(self):
        plain_key = dataclasses.replace(PRIV, hp=None, hq=None)
        values = _encrypt_signed(PUB, [0, 3 << 40, -1], 5)
        with _parallel_engine() as engine:
            assert engine.zero_test_batch(plain_key, values,
                                          WITNESS_BOUND) \
                == [True, False, False]
            assert engine.report()["parallel_modexps"] == len(values)

    def test_sealed_key_answers_true_without_modexps(self, monkeypatch):
        sealed = seal_paillier_keypair(PUB, "alice").private_key
        engine = _parallel_engine()

        def no_modexps(jobs):
            raise AssertionError("a sealed key must run no modexp")

        monkeypatch.setattr(engine, "_execute", no_modexps)
        values = _encrypt_signed(PUB, [0, 1 << 40], 6)
        assert engine.zero_test_batch(sealed, values, WITNESS_BOUND) \
            == [True, True]
        assert engine.report()["jobs"] == 0

    def test_out_of_range_ciphertext_rejected(self):
        with pytest.raises(PaillierError, match="Z_"):
            _parallel_engine().zero_test_batch(PRIV, [PUB.n_squared],
                                               WITNESS_BOUND)
        with pytest.raises(PaillierError, match="Z_"):
            ModexpEngine(workers=1).zero_test_batch(PRIV, [-1],
                                                    WITNESS_BOUND)


class TestDgkThroughEngine:
    def _transcript(self, engine, seed=9):
        channel = Channel()
        holder, other = make_party_pair(channel, seed, seed + 1)
        result = dgk_greater_than(holder, 13, other, 9, 5, KEYS,
                                  engine=engine)
        return result, [(e.label, e.value) for e in
                        channel.transcript.entries]

    def test_bit_identical_transcripts(self):
        """Same seeds, same messages on the wire -- engine or not."""
        serial_result, serial_transcript = self._transcript(None)
        with _parallel_engine() as engine:
            engine_result, engine_transcript = self._transcript(engine)
        assert serial_result is True and engine_result is True
        assert serial_transcript == engine_transcript

    @pytest.mark.parametrize("x,y", [(0, 0), (0, 7), (7, 0), (5, 5),
                                     (6, 5), (5, 6)])
    def test_comparison_results(self, x, y):
        channel = Channel()
        holder, other = make_party_pair(channel, 11, 12)
        with _parallel_engine() as engine:
            assert dgk_greater_than(holder, x, other, y, 3, KEYS,
                                    engine=engine) == (x > y)


@pytest.mark.slow
class TestWorkerScaling:
    """Heavier fills across worker counts -- excluded from tier-1."""

    def test_fill_identical_across_worker_counts(self):
        reference = RandomnessPool(PUB, random.Random(14))
        reference.refill(120)
        expected = list(reference._factors)
        for workers in (1, 2, 4):
            pool = RandomnessPool(PUB, random.Random(14))
            with ModexpEngine(workers=workers) as engine:
                engine.fill_pool(pool, 120)
            assert list(pool._factors) == expected, workers
