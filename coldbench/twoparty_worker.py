"""One timed two-party clustering in a fresh process.

Reads a JSON request on stdin -- ``{"seed", "index", "plan", "trace"}``
plus the workload shape -- regenerates that clustering's inputs, and
runs the paper's two-party horizontal protocol through the public API:
session set-up (key derivation + ``SmcSession``), the offline
``precompute_pools(plan)``, then ``run_horizontal_dbscan``.  Writes one
JSON object with the three phase times and every observable the parent
checks.  The process is fresh for each clustering, so the powmod memo
and every other process-wide cache start empty.
"""

from __future__ import annotations

import json
import sys
import time


def main() -> int:
    request = json.load(sys.stdin)
    if request["trace"]:
        import layers

        layers.install()

    from inputs import clustering, ledger_rows
    from repro.core.horizontal import run_horizontal_dbscan
    from repro.crypto.engine import default_engine
    from repro.crypto.integer_math import powmod_cache_report
    from repro.crypto.precompute import combine_pool_reports
    from repro.data.partitioning import HorizontalPartition
    from repro.net.channel import Channel
    from repro.net.party import make_party_pair
    from repro.net.transcript import transcript_digest
    from repro.smc.session import SmcSession

    job = clustering("twoparty-inproc", request["seed"], request["index"],
                     **request["shape"])
    config = job.config
    partition = HorizontalPartition(alice_points=tuple(job.points["alice"]),
                                    bob_points=tuple(job.points["bob"]))
    plan = {tuple(key.split("|")): count
            for key, count in request["plan"].items()}

    started = time.perf_counter()
    channel = Channel()
    session = SmcSession(*make_party_pair(channel, config.alice_seed,
                                          config.bob_seed), config.smc)
    setup_s = time.perf_counter() - started

    started = time.perf_counter()
    session.precompute_pools(plan)
    offline_s = time.perf_counter() - started

    started = time.perf_counter()
    result = run_horizontal_dbscan(partition, config, session=session)
    online_s = time.perf_counter() - started

    layer_totals = None
    if request["trace"]:
        import layers

        layer_totals = layers.CLOCK.export()
    out = {
        "setup_s": setup_s,
        "offline_s": offline_s,
        "online_s": online_s,
        "labels": {"alice": list(result.alice_labels),
                   "bob": list(result.bob_labels)},
        "ledger": ledger_rows(result.ledger),
        "comparisons": result.comparisons,
        "stats": {key: result.stats[key]
                  for key in ("total_bytes", "total_messages", "rounds")},
        "transcript": transcript_digest(channel.transcript),
        "pool": combine_pool_reports(session.pool_report().values()),
        "powmod": powmod_cache_report(),
        "engine": default_engine().report(),
        "layers": layer_totals,
    }
    json.dump(out, sys.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
