"""Parallel modular-exponentiation engine (the PR-2 tentpole).

Every expensive operation in the crypto layer -- randomness-pool refills
(``r^n mod n^2``), batch encryption, batch decryption, DGK bit
encryption, DGK witness zero tests -- reduces to an *array of
independent modexp jobs* ``(base, exponent, modulus)``.
:class:`ModexpEngine` executes such arrays either serially
(bit-identical to the seed-era inner loops) or sharded across a process
pool, so wall-clock scales with cores on multi-core hosts;
:func:`default_engine` is sized to the cores the process may use.  Job
arrays are plain integer tuples -- picklable, key-material-free bytes
on the worker boundary.

Design rules (see DESIGN.md, "Parallel modexp engine"):

- **Bit-identical results.** The engine never changes *what* is
  computed, only *where*: every high-level helper draws randomness from
  the caller's RNG in exactly the order the serial code path does, then
  ships the pure ``pow`` work to workers.  Engine-vs-serial equivalence
  is property-tested for pool fills, batch encryption, batch decryption,
  and DGK bit encryption; the witness zero test is property-tested
  against decryption.
- **Serial fallback.** ``workers <= 1``, batches below
  ``min_parallel_jobs``, or a pool that cannot be spawned (sandboxed
  hosts) all run the jobs in-process; the fallback is recorded in
  :meth:`report`, never raised.
- **Trust boundary.** Worker processes belong to the party that owns the
  engine call: refill jobs carry only public-key material
  ``(r, n, n^2)``; CRT-split decryption and zero-test jobs carry
  ``p``/``q``-derived moduli and are only ever issued by the private-key
  holder for its own ciphertexts -- the same boundary as the in-process
  CRT decrypt.
"""

from __future__ import annotations

import atexit
import os
import threading
from typing import TYPE_CHECKING, Iterable, Sequence

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (paillier types)
    import random

    from repro.crypto.paillier import (
        PaillierCiphertext,
        PaillierPrivateKey,
        PaillierPublicKey,
    )
    from repro.crypto.precompute import RandomnessPool

ModexpJob = tuple  # (base, exponent, modulus)


def usable_cpus() -> int:
    """CPUs this process may run on.

    ``os.sched_getaffinity`` honours ``taskset`` and cpuset limits,
    which ``os.cpu_count`` (every CPU of the host) overstates; platforms
    without it fall back to ``os.cpu_count``.
    """
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity API on this platform
        return os.cpu_count() or 1


class EngineError(ValueError):
    """Raised on invalid engine parameters or malformed job arrays."""


def _modexp_chunk(jobs: Sequence[ModexpJob]) -> list[int]:
    """Worker entry point: run one shard of jobs (top-level: picklable)."""
    return [pow(base, exponent, modulus) for base, exponent, modulus in jobs]


def _modexp_chunk_cached(jobs: Sequence[ModexpJob]) -> list[int]:
    """In-process variant of :func:`_modexp_chunk` behind the powmod memo.

    Worker processes keep the plain version (their memory is not shared,
    so a memo there only burns RAM); in-process execution shares the
    :func:`~repro.crypto.integer_math.cached_pow` memo with the online
    paths, which is what lets a prefill of already-seen factors cost
    dict hits instead of exponentiations.
    """
    from repro.crypto.integer_math import cached_pow
    return [cached_pow(base, exponent, modulus)
            for base, exponent, modulus in jobs]


class ModexpEngine:
    """Executes arrays of modexp jobs, serially or across a process pool.

    Args:
        workers: process count.  ``None`` auto-sizes to
            :func:`usable_cpus`; ``0`` or ``1`` means serial execution
            (no pool is ever spawned).
        min_parallel_jobs: batches smaller than this run serially even
            when workers are available -- below it the fork/pickle
            round-trip costs more than the modexps.
        shards_per_worker: each parallel batch is split into
            ``workers * shards_per_worker`` chunks so an uneven job mix
            cannot leave workers idle behind one heavy shard.
    """

    def __init__(self, workers: int | None = None,
                 min_parallel_jobs: int = 32,
                 shards_per_worker: int = 2):
        if workers is None:
            workers = usable_cpus()
        if workers < 0:
            raise EngineError(f"workers must be >= 0, got {workers}")
        if min_parallel_jobs < 1:
            raise EngineError(
                f"min_parallel_jobs must be >= 1, got {min_parallel_jobs}")
        if shards_per_worker < 1:
            raise EngineError(
                f"shards_per_worker must be >= 1, got {shards_per_worker}")
        self.workers = max(1, workers)
        self.min_parallel_jobs = min_parallel_jobs
        self.shards_per_worker = shards_per_worker
        self._executor = None
        self._pool_broken = False
        # One engine is shared by every pairwise session of a mesh, and
        # concurrent passes call it from several threads: the lock keeps
        # the accounting counters exact and executor creation single.
        self._lock = threading.Lock()
        self.batches = 0
        self.jobs = 0
        self.parallel_batches = 0
        self.parallel_modexps = 0
        self.fallbacks = 0
        self.warmups = 0
        # Shard-utilization accounting: chunks actually dispatched vs
        # the slots a perfectly even split would fill.
        self.chunks = 0
        self.chunk_slots = 0

    # -- lifecycle ---------------------------------------------------------

    def _discard_broken_pool(self) -> None:
        """Mark the pool broken and shut the dead executor down.

        Dropping the executor without ``shutdown`` would leave any
        worker that is still alive running until interpreter exit;
        ``wait=False`` because a broken pool may never drain its queue.
        """
        with self._lock:
            executor, self._executor = self._executor, None
            self._pool_broken = True
        if executor is not None:
            executor.shutdown(wait=False, cancel_futures=True)

    def _ensure_executor(self):
        with self._lock:
            if self._executor is not None:
                return self._executor
            if self._pool_broken:
                return None
            try:
                from concurrent.futures import ProcessPoolExecutor
                self._executor = ProcessPoolExecutor(
                    max_workers=self.workers)
            except Exception:  # sandboxed host: no semaphores/fork allowed
                self._pool_broken = True
                return None
            return self._executor

    def warm_up(self) -> bool:
        """Spawn the worker pool now, outside any timed online phase.

        The first parallel batch otherwise pays process-pool startup
        (fork/spawn plus interpreter boot per worker) inside whatever
        the caller is measuring.  Submitting the warm-up chunks forces
        the executor to create every worker process (one is spawned per
        pending item up to ``workers``), and several small chunks per
        worker are used so the work spreads across workers as they come
        up rather than being drained by the first one to boot.  A
        still-booting worker on a spawn-start platform finishes its
        startup concurrently with (not inside) the caller's next timed
        region.  A pool already warmed returns ``True`` at once, so every
        offline phase may call this.  Serial engines (``workers <= 1``)
        and hosts that cannot spawn a pool return ``False`` and stay
        serial; the warm-up never changes what any later batch computes.
        """
        if self.workers <= 1:
            return False
        if self.warmups and self._executor is not None:
            return True
        executor = self._ensure_executor()
        if executor is None:
            return False
        try:
            chunk = [(3, 65537, 2**61 - 1)] * 8  # cheap, not instant
            for _ in executor.map(_modexp_chunk,
                                  [chunk] * (4 * self.workers)):
                pass
        except Exception:  # pool died during spawn: degrade to serial
            self._discard_broken_pool()
            return False
        self.warmups += 1
        return True

    def close(self) -> None:
        """Shut the worker pool down; the engine then runs serially."""
        if self._executor is not None:
            self._executor.shutdown(wait=True)
            self._executor = None
        self._pool_broken = True

    def __enter__(self) -> "ModexpEngine":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def report(self) -> dict[str, int | float]:
        """Execution accounting for benchmarks and the CLI summary.

        ``jobs`` counts *logical* items handed to the engine (one per
        plaintext/ciphertext/factor, including fully-pooled encryptions
        that execute zero modexps); ``parallel_modexps`` counts raw
        modexp jobs actually executed on workers (CRT decryption runs
        two per ciphertext, a zero test one), so the two are
        deliberately not comparable.
        """
        with self._lock:
            chunks, slots = self.chunks, self.chunk_slots
        return {
            "workers": self.workers,
            "batches": self.batches,
            "jobs": self.jobs,
            "parallel_batches": self.parallel_batches,
            "parallel_modexps": self.parallel_modexps,
            "fallbacks": self.fallbacks,
            "warmups": self.warmups,
            "chunks": chunks,
            "chunk_slots": slots,
            "chunk_utilization": (round(chunks / slots, 4)
                                  if slots else 0.0),
        }

    # -- core executor -----------------------------------------------------

    def _parallel_eligible(self, job_count: int) -> bool:
        """Whether a batch of this size would be sharded across workers."""
        return self.workers > 1 and job_count >= self.min_parallel_jobs

    def _count(self, job_count: int) -> None:
        """Uniform accounting: one batch, ``job_count`` logical jobs.

        Every public operation counts exactly once at entry -- including
        fully-pooled encrypt batches that end up executing zero modexps
        -- so ``report()`` means the same thing on every code path.
        """
        with self._lock:
            self.batches += 1
            self.jobs += max(job_count, 0)

    def modexp_batch(self, jobs: Iterable[ModexpJob]) -> list[int]:
        """``[pow(b, e, m) for (b, e, m) in jobs]``, possibly sharded."""
        jobs = list(jobs)
        self._count(len(jobs))
        return self._execute(jobs)

    def _execute(self, jobs: list[ModexpJob]) -> list[int]:
        """Run jobs without accounting (callers counted at entry)."""
        if not self._parallel_eligible(len(jobs)):
            return _modexp_chunk_cached(jobs)
        executor = self._ensure_executor()
        if executor is None:
            with self._lock:
                self.fallbacks += 1
            return _modexp_chunk_cached(jobs)
        shard_count = min(len(jobs), self.workers * self.shards_per_worker)
        step = (len(jobs) + shard_count - 1) // shard_count
        shards = [jobs[start:start + step]
                  for start in range(0, len(jobs), step)]
        try:
            results: list[int] = []
            for chunk in executor.map(_modexp_chunk, shards):
                results.extend(chunk)
        except Exception:  # a worker died mid-batch: degrade, stay correct
            self._discard_broken_pool()
            with self._lock:
                self.fallbacks += 1
            return _modexp_chunk_cached(jobs)
        with self._lock:
            self.parallel_batches += 1
            self.parallel_modexps += len(jobs)
            self.chunks += len(shards)
            self.chunk_slots += self.workers * self.shards_per_worker
        return results

    # -- high-level operations --------------------------------------------

    def fill_pool(self, pool: "RandomnessPool", count: int) -> None:
        """Offline pool refill: RNG draws stay in-process, modexps shard.

        Bit-identical to ``pool.refill(count)``: the randomness units are
        drawn from ``pool.rng`` in the same order, so the deposited
        factors are exactly the ones the serial refill would queue.
        Workers see only ``(r, n, n^2)`` -- public-key material.
        """
        self._count(count)
        if not self._parallel_eligible(count):
            pool.refill(count)
            return
        public = pool.public_key
        units = pool.draw_units(count)
        factors = self._execute(
            [(r, public.n, public.n_squared) for r in units])
        pool.deposit(factors)

    def encrypt_batch(self, public: "PaillierPublicKey",
                      plaintexts: Sequence[int], rng: "random.Random",
                      pool: "RandomnessPool | None" = None,
                      ) -> "list[PaillierCiphertext]":
        """Batch Paillier encryption with the ``r^n`` powmods sharded.

        Consumes pool factors and RNG draws in exactly the order of
        ``public.encrypt_batch`` (pop per plaintext, on-demand draw per
        miss), so the produced ciphertexts are bit-identical to the
        serial path under the same RNG state.
        """
        from repro.crypto.paillier import PaillierCiphertext, PaillierError

        if pool is not None and pool.public_key != public:
            raise PaillierError("randomness pool bound to a different key")
        plaintexts = list(plaintexts)
        self._count(len(plaintexts))
        if not self._parallel_eligible(len(plaintexts)):
            # Serial: run the seed-era per-item path verbatim.
            return public.encrypt_batch(plaintexts, rng, pool)
        factors = self._gather_factors(public, len(plaintexts), rng, pool)
        return [PaillierCiphertext(public,
                                   public.raw_encrypt_with_factor(m, factor))
                for m, factor in zip(plaintexts, factors)]

    def _gather_factors(self, public: "PaillierPublicKey", count: int,
                        rng: "random.Random",
                        pool: "RandomnessPool | None") -> list[int]:
        """``count`` randomness factors in the serial pop/miss draw order.

        The one copy of the subtle part shared by :meth:`encrypt_batch`
        and :meth:`encryption_factors` (no accounting -- callers count):
        each slot pops the pool first (counting consumption and misses
        exactly as ``pool.encryption_factor`` does), misses draw their
        randomness unit in slot order from the pool's RNG (or ``rng``
        when unpooled), and the miss powmods run as one sharded batch
        before being backfilled by position.
        """
        factors: list[int | None] = []
        pending: list[tuple[int, int]] = []  # (position, randomness unit)
        for position in range(count):
            if pool is not None:
                factor = pool.try_factor()
                if factor is not None:
                    factors.append(factor)
                    continue
                pending.append((position, public.random_unit(pool.rng)))
            else:
                pending.append((position, public.random_unit(rng)))
            factors.append(None)
        if pending:
            computed = self._execute(
                [(r, public.n, public.n_squared) for _, r in pending])
            for (position, _), factor in zip(pending, computed):
                factors[position] = factor
        return factors

    def encryption_factors(self, public: "PaillierPublicKey", count: int,
                           rng: "random.Random",
                           pool: "RandomnessPool | None" = None,
                           ) -> list[int]:
        """``count`` encryption/rerandomization factors, serial draw order.

        For masker-side loops that alternate encrypt and rerandomize
        per item (Section 5 share generation): every slot pops the pool
        first -- counting consumption and misses exactly as the
        per-item ``encrypt``/``rerandomize`` path does -- and the
        ``r^n mod n^2`` powmods of the misses run as one sharded batch.
        RNG draws happen in slot order, so the returned factors are
        bit-identical to the serial interleaved sequence under the same
        RNG state (property-tested in ``tests/crypto/test_engine.py``).
        """
        from repro.crypto.paillier import PaillierError

        if pool is not None and pool.public_key != public:
            raise PaillierError("randomness pool bound to a different key")
        self._count(count)
        return self._gather_factors(public, count, rng, pool)

    def decrypt_raw_batch(self, private: "PaillierPrivateKey",
                          ciphertext_values: Sequence[int]) -> list[int]:
        """Batch Paillier decryption, CRT-split into per-prime shards.

        Each ciphertext becomes two half-width jobs (mod ``p^2`` and
        ``q^2``) when the key carries CRT constants -- the per-worker
        split the key holder's own processes run -- or one full-width
        ``c^lambda mod n^2`` job otherwise.  Results are bit-identical
        to ``private.decrypt_raw_batch``.
        """
        from repro.crypto.integer_math import crt_pair
        from repro.crypto.paillier import (
            PaillierError,
            _l_quotient,
            _paillier_l,
        )

        values = list(ciphertext_values)
        if getattr(private, "sealed", False):
            # Sanctioned discard boundary: a sealed key means the
            # decrypting party is remote in this process -- no secret
            # exists here, so no modexp runs.  The placeholder zeros
            # feed only frames the mirror discards (the bit-identical
            # equivalence bar proves that on every run); any *direct*
            # decrypt on the sealed key object still raises
            # PublicOnlyKeyError.
            return [0] * len(values)
        self._count(len(values))
        if not self._parallel_eligible(2 * len(values)):
            return private.decrypt_raw_batch(values)
        public = private.public_key
        n_sq = public.n_squared
        for value in values:
            if not 0 <= value < n_sq:
                raise PaillierError("ciphertext outside Z_{n^2}")
        if private.hp is None or private.hq is None:
            powers = self._execute(
                [(value, private.lam, n_sq) for value in values])
            return [(_paillier_l(u, public.n) * private.mu) % public.n
                    for u in powers]
        p, q = private.p, private.q
        p_sq, q_sq = p * p, q * q
        jobs: list[ModexpJob] = []
        for value in values:
            jobs.append((value, p - 1, p_sq))
            jobs.append((value, q - 1, q_sq))
        powers = self._execute(jobs)
        plaintexts = []
        for index in range(len(values)):
            m_p = (_l_quotient(powers[2 * index], p) * private.hp) % p
            m_q = (_l_quotient(powers[2 * index + 1], q) * private.hq) % q
            plaintexts.append(crt_pair(m_p, p, m_q, q))
        return plaintexts

    def zero_test_batch(self, private: "PaillierPrivateKey",
                        ciphertext_values: Sequence[int],
                        bound: int) -> list[bool]:
        """Which ciphertexts encrypt 0, given every plaintext ``|m| < bound``.

        The caller vouches for the bound (DGK witnesses are blinded
        small integers).  When ``bound <= min(p, q)``, ``m = 0 (mod n)``
        iff ``p | m`` iff ``c^(p-1) = 1 (mod p^2)``: ``r^(n(p-1))`` is 1
        modulo ``p^2`` and ``g^(p-1) = 1 + a*p`` with ``a`` a unit mod
        ``p`` (``hp`` is its inverse), for ``g = n + 1`` and random-``g``
        keys alike.  So each ciphertext costs one half-width job
        ``(c, p - 1, p^2)`` -- no ``q`` half, no L function, no CRT
        recombination, and no plaintext is ever formed.  Otherwise
        (small keys, or a key without CRT constants) the answer is
        ``decrypt_raw_batch(...) == 0``.  The branch depends only on the
        key and the public bound, never on a ciphertext.
        """
        from repro.crypto.paillier import PaillierError

        values = list(ciphertext_values)
        if getattr(private, "sealed", False):
            # Sanctioned discard boundary, as in decrypt_raw_batch: the
            # answer its placeholder zeros would give, with no modexp.
            return [True] * len(values)
        if (private.hp is None or private.hq is None
                or bound > min(private.p, private.q)):
            return [plaintext == 0 for plaintext in
                    self.decrypt_raw_batch(private, values)]
        self._count(len(values))
        n_sq = private.public_key.n_squared
        for value in values:
            if not 0 <= value < n_sq:
                raise PaillierError("ciphertext outside Z_{n^2}")
        p = private.p
        p_sq = p * p
        powers = self._execute([(value, p - 1, p_sq) for value in values])
        return [power == 1 for power in powers]


_DEFAULT_ENGINE: ModexpEngine | None = None
_DEFAULT_ENGINE_LOCK = threading.Lock()


def default_engine() -> ModexpEngine:
    """The process-wide engine every session without its own uses.

    Sized to :func:`usable_cpus`, so an in-process session uses every
    core it may run on; on a 1-CPU host it is serial.  Creating it
    starts nothing: the worker pool forks at the first batch of at
    least ``min_parallel_jobs`` jobs (or at :meth:`ModexpEngine.warm_up`,
    which ``SmcSession.precompute_pools`` calls), and smaller batches
    run in-process through the ``cached_pow`` memo.  The pool is closed
    at interpreter exit.  Forked workers inherit the process's open file
    descriptors, so runtimes that hold sockets (the party program, the
    daemon) give their sessions an engine of their own instead.
    """
    global _DEFAULT_ENGINE
    with _DEFAULT_ENGINE_LOCK:
        if _DEFAULT_ENGINE is None:
            _DEFAULT_ENGINE = ModexpEngine(workers=None)
            atexit.register(_DEFAULT_ENGINE.close)
        return _DEFAULT_ENGINE
