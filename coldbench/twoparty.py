"""Workload ``twoparty-inproc``: the paper's two-party horizontal protocol.

Alice and Bob share one in-process channel (Algorithms 3 + 4, bitwise
DGK comparisons, 256-bit Paillier keys, randomness pools on).  Every
clustering runs in a fresh ``twoparty_worker.py`` process in three
timed phases: set-up (key derivation and ``SmcSession``), the offline
``precompute_pools(plan)``, and the online ``run_horizontal_dbscan``.

The pool plan and the bit-identity reference come from one untimed run
of clustering 0 in *this* process, whose powmod memo no timed process
shares.  The plan is what each of the reference's pools consumed.  A
draw whose DBSCAN re-queries more points than clustering 0 did pays for
the extra factors online, as pool misses.  Clustering 0 of the timed
loop must match the reference exactly: labels, ledger, comparisons,
transcript digest and counts.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time

import layers
from common import FailureTally, Outcome, median, memo_figures, ratio
from inputs import clustering, labels_match, ledger_rows, requery_figures

WORKLOAD = "twoparty-inproc"
SHAPE = {"parties": 2, "per_party": 6, "key_bits": 256}
MIN_CLUSTERINGS = 4
WORKER = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                      "twoparty_worker.py")
WORKER_TIMEOUT_S = 120
IDENTITY_KEYS = ("labels", "ledger", "comparisons", "transcript", "stats")


def reference_run(seed: int) -> dict:
    """Untimed clustering 0 with pools filled on demand: the pool plan
    (what each pool consumed) and every observable of the run."""
    from repro.core.horizontal import run_horizontal_dbscan
    from repro.data.partitioning import HorizontalPartition
    from repro.net.channel import Channel
    from repro.net.party import make_party_pair
    from repro.net.transcript import transcript_digest
    from repro.smc.session import SmcSession

    job = clustering(WORKLOAD, seed, 0, **SHAPE)
    channel = Channel()
    session = SmcSession(*make_party_pair(channel, job.config.alice_seed,
                                          job.config.bob_seed),
                         job.config.smc)
    result = run_horizontal_dbscan(
        HorizontalPartition(alice_points=tuple(job.points["alice"]),
                            bob_points=tuple(job.points["bob"])),
        job.config, session=session)
    return {
        "plan": {"|".join(key): report["consumed"]
                 for key, report in session.pool_report().items()},
        "labels": {"alice": list(result.alice_labels),
                   "bob": list(result.bob_labels)},
        "ledger": ledger_rows(result.ledger),
        "comparisons": result.comparisons,
        "stats": {key: result.stats[key]
                  for key in ("total_bytes", "total_messages", "rounds")},
        "transcript": transcript_digest(channel.transcript),
    }


def run_worker(seed: int, index: int, plan: dict, trace: bool) -> dict:
    request = {"seed": seed, "index": index, "plan": plan, "trace": trace,
               "shape": SHAPE}
    done = subprocess.run([sys.executable, WORKER],
                          input=json.dumps(request), capture_output=True,
                          text=True, timeout=WORKER_TIMEOUT_S)
    if done.returncode != 0:
        tail = done.stderr.strip().splitlines()[-3:]
        raise RuntimeError(f"worker exit {done.returncode}: {tail}")
    return json.loads(done.stdout)


def run(seed: int, seconds: float, trace: bool) -> Outcome:
    tally = FailureTally()
    outcome = Outcome(tally)
    reference = reference_run(seed)

    records = []          # (index, traced, worker output)
    started = time.perf_counter()
    index = 0
    while index < MIN_CLUSTERINGS or \
            time.perf_counter() - started < seconds:
        traced = trace and index % 2 == 1
        tally.attempt()
        try:
            out = run_worker(seed, index, reference["plan"], traced)
        except (RuntimeError, subprocess.TimeoutExpired,
                json.JSONDecodeError) as exc:
            tally.fail(str(index), f"worker failed: {exc}")
        else:
            job = clustering(WORKLOAD, seed, index, **SHAPE)
            if not labels_match(job, out["labels"]):
                tally.fail(str(index), "labels differ from plaintext DBSCAN")
            records.append((index, traced, out))
        index += 1

    first = next((out for i, __, out in records if i == 0), None)
    identical = {key: first is not None and first[key] == reference[key]
                 for key in IDENTITY_KEYS}
    outcome.checks["reference_bit_identical"] = all(identical.values())
    if not outcome.checks["reference_bit_identical"]:
        differing = sorted(key for key, ok in identical.items() if not ok)
        tally.fail("0", f"differs from the in-process reference: "
                        f"{differing}")

    plain = [out for __, traced, out in records if not traced]
    traced_runs = [out for __, traced, out in records if traced]
    if plain:
        outcome.end_to_end = {
            "setup_s": median(out["setup_s"] for out in plain),
            "online_s": median(out["online_s"] for out in plain),
            "clusterings_per_s": len(plain) / sum(
                out["setup_s"] + out["offline_s"] + out["online_s"]
                for out in plain),
            "wire_bytes": median(out["stats"]["total_bytes"]
                                 for out in plain),
        }
    outcome.info = {
        "shape": dict(SHAPE, split="standard blobs small, 6/6 of 24"),
        "clusterings": len(records),
        "offline_s_median": median(out["offline_s"] for out in plain)
        if plain else None,
        "reference_identical": identical,
        "deterministic_counts": {
            "reference": dict(reference["stats"],
                              comparisons=reference["comparisons"]),
            "timed_clustering_0": dict(first["stats"],
                                       comparisons=first["comparisons"])
            if first else None,
        },
        "powmod_memo": memo_figures(
            [out["powmod"] for __, __, out in records], len(records)),
        "pool_misses": sum(out["pool"]["misses"] for __, __, out in records),
        "requery": requery_figures(
            (clustering(WORKLOAD, seed, index, **SHAPE), out["comparisons"])
            for index, __, out in records),
    }
    if trace and traced_runs:
        outcome.per_layer = _per_layer(traced_runs)
        # What the benchmark's own layer timers cost, not the program's.
        outcome.info["layer_timer_overhead_frac"] = ratio(
            median(out["online_s"] for out in traced_runs),
            median(out["online_s"] for out in plain)) - 1.0 \
            if plain else None
    return outcome


def _per_layer(traced: list) -> dict:
    count = len(traced)
    pool = {key: sum(out["pool"][key] for out in traced)
            for key in ("pregenerated", "consumed", "misses")}
    values = layers.clock_metrics(
        layers.merge_exports(out["layers"] for out in traced), count)
    values.update(memo_figures([out["powmod"] for out in traced], count))
    values.update({
        "crypto.pool.prefilled": pool["pregenerated"] / count,
        "crypto.pool.consumed": pool["consumed"] / count,
        "crypto.pool.misses": pool["misses"] / count,
        "crypto.pool.hit_ratio": ratio(pool["consumed"] - pool["misses"],
                                       pool["consumed"]),
        "crypto.pool.fill_s": median(out["offline_s"] for out in traced),
        "crypto.engine.jobs": sum(out["engine"]["jobs"]
                                  for out in traced) / count,
        "crypto.engine.batches": sum(out["engine"]["batches"]
                                     for out in traced) / count,
        # The protocol's comparison count, not the wrapper's call
        # count: one batched call runs many comparisons.
        "smc.compare.calls": sum(out["comparisons"]
                                 for out in traced) / count,
        "net.protocol.messages": sum(out["stats"]["total_messages"]
                                     for out in traced) / count,
        "net.protocol.rounds": sum(out["stats"]["rounds"]
                                   for out in traced) / count,
        # The in-process path has no span tracing or registry, so
        # obs.trace_overhead_frac has nothing to measure and reads 0.
    })
    return values
