"""Workload ``mesh-burst``: resident daemons under a closed-loop burst.

Three ``repro serve`` daemon processes (``DaemonFleet(mode="process")``)
link up over PSK-authenticated loopback TCP with a 5 ms simulated
one-way delay.  One ``SessionClient`` keeps 8 sessions in flight: each
completion frees a slot for the next submission (a closed loop; its
three daemon connections are the protocol's fan-out, not parallel
load).  Every session has its own generated 3x3-point partition, party
seeds and coin namespace, so no session can reuse another's powmods;
key material (128-bit) belongs to the fleet, as in a deployment.

Set-up is measured on several cold fleets per run (fresh processes,
fresh key seeds) from ``DaemonFleet.start`` to a connected client with
the first manifest's keys derived.  The burst window is split over the
last two fleets, so one fleet's placement of three daemons on the
host's cores does not decide the run.
"""

from __future__ import annotations

import os
import time

import layers
from common import (
    FailureTally,
    Outcome,
    flat_snapshot,
    median,
    memo_figures,
    merged_flat,
    protocol_counts,
    ratio,
    series_total,
    snapshot_delta,
    span_figures,
    tail_percentile,
)
from inputs import clustering, fleet_secrets, labels_match, requery_figures

WORKLOAD = "mesh-burst"
NAMES = ("party0", "party1", "party2")
SHAPE = {"parties": 3, "per_party": 3, "key_bits": 128}
IN_FLIGHT = 8
DELAY_S = 0.005
SETUPS = 5
BURST_FLEETS = 2
#: Session indices per fleet, so no two fleets of a run share inputs.
FLEET_STRIDE = 10_000
MIN_SESSIONS = 24
SESSION_TIMEOUT_S = 150
POLL_S = 0.002
#: Registry gauges that publish running totals (differenced per burst).
CUMULATIVE = ("repro_powmod_cache", "repro_randomness", "repro_engine")


class Fleet:
    """One cold fleet plus its connected client."""

    def __init__(self, seed: int, number: int, workdir: str, *,
                 first_index: int = 0, arm: str = "plain"):
        from repro.runtime.client import DaemonFleet, SessionClient
        from repro.runtime.manifest import pair_key
        from repro.runtime.orchestrator import build_manifest

        self.build_manifest = build_manifest
        self.seed = seed
        self.key_seed, self.psk = fleet_secrets(seed, number)
        self.layer_dir = os.path.join(workdir, f"fleet{number}-layers")
        self.trace_dir = (os.path.join(workdir, f"fleet{number}-spans")
                          if arm == "spans" else None)
        os.makedirs(self.layer_dir)
        self.ports = {pair_key(a, b): 0 for i, a in enumerate(NAMES)
                      for b in NAMES[i + 1:]}
        started = time.perf_counter()
        self.fleet = DaemonFleet(NAMES, mode="process", psk=self.psk,
                                 net_delay_s=DELAY_S, timeout_s=60.0,
                                 trace_dir=self.trace_dir)
        if arm == "layers":
            with layers.injected(self.layer_dir):
                self.fleet.start()
        else:
            self.fleet.start()
        try:
            self.client = SessionClient(self.fleet.spec, psk=self.psk)
            self.pending_first = self.manifest(first_index)
        except BaseException:
            self.fleet.stop()
            raise
        self.setup_s = time.perf_counter() - started

    def job(self, index: int):
        return clustering(WORKLOAD, self.seed, index, **SHAPE,
                          key_seed=self.key_seed)

    def manifest(self, index: int):
        job = self.job(index)
        manifest = self.build_manifest(
            job.points, job.config, job.seeds,
            session_id=f"{job.rng_namespace}-k{self.key_seed}",
            ports=self.ports, host=self.fleet.spec.host,
            rng_namespace=job.rng_namespace)
        return job, manifest

    def close(self, *, graceful: bool) -> None:
        if graceful:
            # Drain first so every daemon exits through its normal path
            # (and writes its layer totals at exit).
            self.client.shutdown_mesh(drain=True)
        self.client.close()
        self.fleet.stop()


def burst(fleet: Fleet, first: int, seconds: float, tally: FailureTally,
          min_sessions: int) -> dict:
    """Closed loop with :data:`IN_FLIGHT` sessions: the completed
    sessions, the window, and what each daemon's registry counted
    during it."""
    from repro.runtime.client import SessionClientError

    before = fleet.client.get_metrics(timeout=30)
    in_flight = {}        # index -> (job, handle, submitted)
    done = []             # (index, latency_s, run)
    submits = []
    index = first
    started = time.perf_counter()
    last_done = started
    while True:
        now = time.perf_counter()
        while len(in_flight) < IN_FLIGHT and (
                now - started < seconds or index - first < min_sessions):
            if fleet.pending_first and fleet.pending_first[0].index == index:
                job, manifest = fleet.pending_first
                fleet.pending_first = None
            else:
                job, manifest = fleet.manifest(index)
            tally.attempt()
            submitted = time.perf_counter()
            handle = fleet.client.submit(manifest, job.points)
            submits.append(time.perf_counter() - submitted)
            in_flight[index] = (job, handle, submitted)
            index += 1
            now = time.perf_counter()
        if not in_flight:
            break
        for key in [k for k, (__, h, __) in in_flight.items() if h.done()]:
            job, handle, submitted = in_flight.pop(key)
            finished = time.perf_counter()
            last_done = finished
            try:
                run = handle.result(0)
            except SessionClientError as exc:
                tally.fail(job.rng_namespace, f"session failed: {exc}")
                continue
            if not labels_match(job, run.result.labels_by_party):
                tally.fail(job.rng_namespace,
                           "labels differ from plaintext DBSCAN")
            done.append((key, finished - submitted, run))
        if any(time.perf_counter() - submitted > SESSION_TIMEOUT_S
               for __, __, submitted in in_flight.values()):
            for job, __, __ in in_flight.values():
                tally.fail(job.rng_namespace, "no result in time")
            break
        time.sleep(POLL_S)
    elapsed = last_done - started
    after = fleet.client.get_metrics(timeout=30)
    return {
        "records": sorted(done, key=lambda row: row[0]),
        "elapsed": elapsed,
        "submit_s": submits,
        "registry": {party: snapshot_delta(before[party], after[party],
                                           CUMULATIVE)
                     for party in after},
    }


def reference_check(fleet: Fleet, index: int, run) -> dict:
    """Re-run one session on the in-process mesh (this process, after
    the burst) and compare every observable."""
    from repro.multiparty.horizontal import run_multiparty_horizontal_dbscan
    from repro.multiparty.mesh import PartyMesh
    from repro.runtime.orchestrator import verify_against_in_process

    job = fleet.job(index)
    mesh = PartyMesh(list(NAMES), job.config.smc, seeds=job.seeds,
                     rng_namespace=job.rng_namespace)
    reference = run_multiparty_horizontal_dbscan(
        job.points, job.config, seeds=job.seeds, mesh=mesh)
    return verify_against_in_process(run, job.points, job.config, job.seeds,
                                     reference=reference, mesh=mesh)


def _arms(seconds: float, trace: bool) -> list:
    """``(arm, window_s, minimum sessions)`` per burst fleet, in order.

    Untraced: the window split over :data:`BURST_FLEETS` plain fleets.
    Traced: plain fleets and fleets with the program's span tracing on
    (``trace_dir``) take turns over two thirds of the window, so
    ``obs.trace_overhead_frac`` compares neighbours in time and holds no
    cost of the benchmark's own timers; a last fleet runs with the layer
    timers and no span tracing.
    """
    if not trace:
        return [("plain", seconds / BURST_FLEETS,
                 MIN_SESSIONS // BURST_FLEETS)] * BURST_FLEETS
    return [("plain", seconds / 6, IN_FLIGHT), ("spans", seconds / 6,
                                                 IN_FLIGHT)] * 2 + [
        ("layers", seconds / 3, MIN_SESSIONS // 2)]


def run(seed: int, seconds: float, trace: bool) -> Outcome:
    workdir = os.environ["TMPDIR"]
    tally = FailureTally()
    outcome = Outcome(tally)
    arms = _arms(seconds, trace)
    setup_only = max(0, SETUPS - len(arms))
    setups = []
    for number in range(setup_only):
        fleet = Fleet(seed, number, workdir)
        setups.append(fleet.setup_s)
        fleet.close(graceful=False)

    bursts = {"plain": [], "spans": [], "layers": []}
    identical = {}
    for offset, (arm, window, minimum) in enumerate(arms):
        first = offset * FLEET_STRIDE
        fleet = Fleet(seed, setup_only + offset, workdir, first_index=first,
                      arm=arm)
        setups.append(fleet.setup_s)
        try:
            part = burst(fleet, first, window, tally, minimum)
            if offset == 0:
                identical = _check_first(fleet, part, outcome, tally)
        finally:
            # Layer-timed daemons drain so they exit through their normal
            # path and write their totals.
            fleet.close(graceful=arm == "layers")
        part["trace_dir"] = fleet.trace_dir
        part["layer_dir"] = fleet.layer_dir
        bursts[arm].append(part)
    plain = _combined(bursts["plain"])

    latencies = [latency for __, latency, __ in plain["records"]]
    tail = tail_percentile(latencies)
    completed = len(plain["records"])
    if completed:
        outcome.end_to_end = {
            "setup_s": median(setups),
            "online_s": median(latencies),
            "clusterings_per_s": completed / plain["elapsed"],
            "wire_bytes": median(run.result.stats["total_bytes"]
                                 for __, __, run in plain["records"]),
        }
    flat = merged_flat(plain["registry"].values())
    every = [row for parts in bursts.values() for part in parts
             for row in part["records"]]
    outcome.info = {
        "shape": dict(SHAPE, in_flight=IN_FLIGHT, delay_ms=DELAY_S * 1e3,
                      client="one SessionClient, closed loop"),
        "fleets": [arm for arm, __, __ in arms],
        "setups_s": setups,
        "sessions_completed": completed,
        "session_p50_s": median(latencies) if latencies else None,
        "session_tail": {"pct": tail[0], "value_s": tail[1],
                         "samples": completed} if tail else None,
        "reference_identical": identical,
        "deterministic_counts": {
            "timed_session_0": protocol_counts(plain["records"][0][2].result)
            if plain["records"] else None},
        "powmod_memo": memo_figures(
            [_memo(delta) for delta in plain["registry"].values()],
            completed),
        "frames": {"live": series_total(flat, "repro_segment_frames_total",
                                        mode="live"),
                   "replayed": series_total(
                       flat, "repro_segment_frames_total", mode="replayed")},
        "requery": requery_figures(
            (clustering(WORKLOAD, seed, index, **SHAPE),
             run.result.comparisons) for index, __, run in every),
    }
    if trace and bursts["layers"][0]["records"]:
        outcome.per_layer = _per_layer(bursts, plain, setups, tail)
    return outcome


def _combined(parts: list) -> dict:
    """Several bursts as one: their sessions, summed windows, and their
    registry deltas summed per party."""
    return {
        "records": [row for part in parts for row in part["records"]],
        "elapsed": sum(part["elapsed"] for part in parts),
        "submit_s": [value for part in parts for value in part["submit_s"]],
        "registry": {party: merged_flat(part["registry"][party]
                                        for part in parts)
                     for party in NAMES},
    }


def _check_first(fleet: Fleet, burst_result: dict, outcome: Outcome,
                 tally: FailureTally) -> dict:
    records = burst_result["records"]
    if not records or records[0][0] != 0:
        outcome.checks["reference_bit_identical"] = False
        return {}
    identical = reference_check(fleet, 0, records[0][2])
    outcome.checks["reference_bit_identical"] = all(identical.values())
    if not outcome.checks["reference_bit_identical"]:
        tally.fail(fleet.job(0).rng_namespace,
                   "differs from the in-process reference: "
                   f"{sorted(k for k, ok in identical.items() if not ok)}")
    return identical


def _memo(flat: dict) -> dict:
    return {stat: series_total(flat, "repro_powmod_cache", stat=stat)
            for stat in ("hits", "misses", "evictions")}


def _per_layer(bursts: dict, plain: dict, setups: list, tail) -> dict:
    from repro.obs.trace import summarize_trace_dir

    timed = bursts["layers"][0]
    spanned = _combined(bursts["spans"])
    dumps = layers.read_process_dumps(timed["layer_dir"])
    records = timed["records"]
    count = max(1, len(records))
    flat = merged_flat(timed["registry"].values())
    process_registry = merged_flat(flat_snapshot(dump.get("registry", {}))
                                   for dump in dumps)
    runs = [run for __, __, run in records]

    values = layers.clock_metrics(
        layers.merge_exports(dump["layers"] for dump in dumps), count,
        sum(run.result.stats["total_bytes"] for run in runs))
    values.update(memo_figures(
        [_memo(delta) for delta in timed["registry"].values()], count))
    consumed = series_total(flat, "repro_randomness",
                            stat="factors_consumed")
    missed = series_total(flat, "repro_randomness", stat="factors_missed")
    live = series_total(flat, "repro_segment_frames_total", mode="live")
    replayed = series_total(flat, "repro_segment_frames_total",
                            mode="replayed")
    # Span figures come from the fleets with span tracing alone, per
    # session of those fleets.
    spans = merged_flat(span_figures(summarize_trace_dir(part["trace_dir"]))
                        for part in bursts["spans"])
    spanned_count = max(1, len(spanned["records"]))
    infos = [report.runtime_info for run in runs
             for report in run.reports.values()]
    values.update({
        "crypto.pool.prefilled": series_total(
            flat, "repro_randomness", stat="factors_prefilled") / count,
        "crypto.pool.consumed": consumed / count,
        "crypto.pool.misses": missed / count,
        "crypto.pool.hit_ratio": ratio(consumed - missed, consumed),
        "crypto.randomness.background_factors": series_total(
            flat, "repro_randomness", stat="factors_background") / count,
        "crypto.engine.jobs": series_total(flat, "repro_engine",
                                           stat="jobs") / count,
        "crypto.engine.batches": series_total(flat, "repro_engine",
                                              stat="batches") / count,
        "smc.compare.calls": sum(run.result.comparisons
                                 for run in runs) / count,
        "net.protocol.messages": sum(run.result.stats["total_messages"]
                                     for run in runs) / count,
        "net.protocol.rounds": sum(run.result.stats["rounds"]
                                   for run in runs) / count,
        "net.link.auth_failures": (
            series_total(flat, "repro_link_auth_failures_total")
            + series_total(flat, "repro_accept_auth_failures_total")),
        "runtime.restarts": series_total(flat, "repro_restarts_total")
        / count,
        "runtime.frames.live": live / count,
        "runtime.frames.replayed": replayed / count,
        "runtime.replay_ratio": ratio(replayed, live),
        **{name: value / spanned_count for name, value in spans.items()},
        "runtime.session.tail_s": tail[1] if tail else 0.0,
        "runtime.session.tail_pct": tail[0] if tail else 0.0,
        "runtime.session.samples": len(plain["records"]),
        "runtime.sessions.admitted": series_total(
            flat, "repro_sessions_admitted_total") / len(NAMES),
        "runtime.sessions.completed": series_total(
            flat, "repro_sessions_completed_total") / len(NAMES),
        "runtime.sessions.failed": series_total(
            flat, "repro_sessions_failed_total") / len(NAMES),
        "runtime.sessions.rejected": series_total(
            flat, "repro_sessions_rejected_total") / len(NAMES),
        "runtime.daemon.setup_s": median(
            delta.get("repro_daemon_setup_seconds", 0.0)
            for delta in timed["registry"].values()),
        "runtime.daemon.threads_peak": max(
            (info.get("thread_count", 0) for info in infos), default=0),
        "runtime.client.submit_s": median(timed["submit_s"])
        if timed["submit_s"] else 0.0,
        "runtime.spawn_link_s": median(setups),
        "multiparty.queries": (
            series_total(flat, "repro_pass_executor_queries_total")
            + series_total(process_registry,
                           "repro_pass_executor_queries_total")) / count,
        "multiparty.passes": (
            series_total(flat, "repro_pass_executor_passes_total")
            + series_total(process_registry,
                           "repro_pass_executor_passes_total")) / count,
        "multiparty.pool_width": max(
            series_total(flat, "repro_pass_executor_pool_width"),
            series_total(process_registry,
                         "repro_pass_executor_pool_width")),
        "obs.trace_overhead_frac": ratio(
            len(plain["records"]) * spanned["elapsed"],
            plain["elapsed"] * len(spanned["records"])) - 1.0,
    })
    return values
