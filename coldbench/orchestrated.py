"""Workload ``orchestrate-tcp``: cold one-shot orchestrated runs.

Each clustering is one ``orchestrate_run``: the orchestrator derives the
manifest (and every party's key digest), spawns one ``repro party``
process per party, and the parties link up over PSK-authenticated
loopback TCP, run the sync party runtime with the multiparty scheduler,
and report back.  Three parties of 3 points each, 256-bit keys, fresh
seeds and keys per clustering; clusterings run one after another.

Set-up is the orchestrator's wall clock minus the slowest party's
protocol passes: key derivation, process spawn, link-up and handshake.
Online time is that slowest party's passes.
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
    span_figures,
)
from inputs import clustering, labels_match, requery_figures

WORKLOAD = "orchestrate-tcp"
SHAPE = {"parties": 3, "per_party": 3, "key_bits": 256}
MIN_CLUSTERINGS = 4
DEADLINE_S = 150.0
IDENTITY_KEYS = ("labels", "ledger", "comparisons", "transcripts", "stats")


#: Arms of a traced run, taken in turn: untraced; the program's span
#: tracing alone (``trace_dir``); the benchmark's layer timers alone.
#: ``obs.trace_overhead_frac`` compares the first two, so it holds no
#: cost of the benchmark's own timers.
ARMS = ("plain", "spans", "layers")


def orchestrate(seed: int, index: int, workdir: str, arm: str):
    """One cold orchestration; returns ``(job, run, wall_s, dumps,
    span summary)`` or raises the orchestrator's error."""
    from repro.obs.trace import summarize_trace_dir
    from repro.runtime.orchestrator import orchestrate_run

    job = clustering(WORKLOAD, seed, index, **SHAPE)
    run_dir = os.path.join(workdir, f"run{index}")
    layer_dir = os.path.join(workdir, f"layers{index}")
    trace_dir = os.path.join(workdir, f"spans{index}")
    options = dict(seeds=job.seeds, run_dir=run_dir, deadline_s=DEADLINE_S,
                   psk=job.psk)
    if arm == "spans":
        options["trace_dir"] = trace_dir
    started = time.perf_counter()
    if arm == "layers":
        os.makedirs(layer_dir)
        with layers.injected(layer_dir):
            run = orchestrate_run(job.points, job.config, **options)
    else:
        run = orchestrate_run(job.points, job.config, **options)
    wall = time.perf_counter() - started
    dumps = layers.read_process_dumps(layer_dir) if arm == "layers" else []
    spans = summarize_trace_dir(trace_dir) if arm == "spans" else None
    return job, run, wall, dumps, spans


def run(seed: int, seconds: float, trace: bool) -> Outcome:
    from repro.runtime.orchestrator import OrchestrationError, \
        verify_against_in_process

    workdir = os.environ["TMPDIR"]
    tally = FailureTally()
    outcome = Outcome(tally)
    records = []          # (index, arm, job, run, wall, dumps, spans)
    started = time.perf_counter()
    index = 0
    minimum = 2 * len(ARMS) if trace else MIN_CLUSTERINGS
    while index < minimum or time.perf_counter() - started < seconds:
        arm = ARMS[index % len(ARMS)] if trace else "plain"
        tally.attempt()
        try:
            job, run, wall, dumps, spans = orchestrate(seed, index, workdir,
                                                       arm)
        except OrchestrationError as exc:
            tally.fail(str(index), f"orchestration failed: {exc}")
        else:
            if not labels_match(job, run.result.labels_by_party):
                tally.fail(str(index), "labels differ from plaintext DBSCAN")
            records.append((index, arm, job, run, wall, dumps, spans))
        index += 1

    first = next((row for row in records if row[0] == 0), None)
    identical = {}
    if first is not None:
        __, __, job, run, *__ = first
        identical = verify_against_in_process(run, job.points, job.config,
                                              job.seeds)
    outcome.checks["reference_bit_identical"] = bool(identical) and all(
        identical[key] for key in IDENTITY_KEYS)
    if not outcome.checks["reference_bit_identical"]:
        differing = sorted(key for key, ok in identical.items() if not ok)
        tally.fail("0", f"differs from the in-process reference: "
                        f"{differing}")

    plain = [row for row in records if row[1] == "plain"]
    if plain:
        online = [_passes(row[3]) for row in plain]
        outcome.end_to_end = {
            "setup_s": median(row[4] - _passes(row[3]) for row in plain),
            "online_s": median(online),
            "clusterings_per_s": len(plain) / sum(row[4] for row in plain),
            "wire_bytes": median(row[3].result.stats["total_bytes"]
                                 for row in plain),
        }
    outcome.info = {
        "shape": dict(SHAPE, processes="one per party, sequential runs"),
        "clusterings": len(records),
        "reference_identical": identical,
        "deterministic_counts": {
            "timed_clustering_0": protocol_counts(first[3].result)
            if first else None},
        "respawns": sum(sum(row[3].respawns.values()) for row in records),
        "requery": requery_figures((row[2], row[3].result.comparisons)
                                   for row in records),
    }
    if trace:
        arms = {arm: [row for row in records if row[1] == arm]
                for arm in ARMS}
        if all(arms.values()):
            outcome.per_layer = _per_layer(arms)
            # What the benchmark's own layer timers cost.
            outcome.info["layer_timer_overhead_frac"] = ratio(
                median(_passes(row[3]) for row in arms["layers"]),
                median(_passes(row[3]) for row in arms["plain"])) - 1.0
    return outcome


def _passes(run) -> float:
    return max(report.passes_seconds for report in run.reports.values())


def _per_layer(arms: dict) -> dict:
    traced = arms["layers"]
    count = len(traced)
    dumps = [dump for row in traced for dump in row[5]]
    registry = merged_flat(flat_snapshot(dump.get("registry", {}))
                           for dump in dumps)
    runs = [row[3] for row in traced]
    spans = merged_flat(span_figures(row[6]) for row in arms["spans"])
    values = layers.clock_metrics(
        layers.merge_exports(dump["layers"] for dump in dumps), count,
        sum(run.result.stats["total_bytes"] for run in runs))
    values.update(memo_figures([dump["powmod"] for dump in dumps
                                if "powmod" in dump], count))
    values.update({
        "smc.compare.calls": sum(run.result.comparisons
                                 for run in runs) / count,
        "net.protocol.messages": sum(run.result.stats["total_messages"]
                                     for run in runs) / count,
        "net.protocol.rounds": sum(run.result.stats["rounds"]
                                   for run in runs) / count,
        "crypto.engine.jobs": sum(dump["engine"]["jobs"] for dump in dumps
                                  if "engine" in dump) / count,
        "crypto.engine.batches": sum(dump["engine"]["batches"]
                                     for dump in dumps
                                     if "engine" in dump) / count,
        "net.link.auth_failures": series_total(
            registry, "repro_link_auth_failures_total"),
        "runtime.restarts": sum(sum(run.respawns.values())
                                for run in runs) / count,
        **{name: value / len(arms["spans"]) for name, value in spans.items()},
        "runtime.sessions.completed": count,
        "runtime.spawn_link_s": median(row[4] - _passes(row[3])
                                       for row in traced),
        "multiparty.queries": series_total(
            registry, "repro_pass_executor_queries_total") / count,
        "multiparty.passes": series_total(
            registry, "repro_pass_executor_passes_total") / count,
        "multiparty.pool_width": max(
            (series_total(flat_snapshot(dump.get("registry", {})),
                          "repro_pass_executor_pool_width")
             for dump in dumps), default=0.0),
        "obs.trace_overhead_frac": ratio(
            median(_passes(row[3]) for row in arms["spans"]),
            median(_passes(row[3]) for row in arms["plain"])) - 1.0,
    })
    return values
