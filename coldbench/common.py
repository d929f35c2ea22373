"""Helpers shared by the workloads: statistics, failure counting,
registry-snapshot arithmetic, metric naming, and the result line.

Everything here is plain Python with no import of the program, so the
self-tests in ``test_coldbench.py`` run without building anything.
"""

from __future__ import annotations

import json
import math
import re
import statistics

#: Bumped whenever a change to the benchmark alters what a figure means.
METHODOLOGY = "coldbench-1"

#: Metric names: a letter or digit, then letters, digits, ``_ . -``.
_METRIC_NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")

#: The tail percentile needs this many samples strictly beyond it ...
TAIL_BEYOND = 10
#: ... and is never reported below the median: a "tail" under p50 would
#: be a wrong number, not a tail.
TAIL_FLOOR_PCT = 50


def valid_metric_name(name: str) -> bool:
    return isinstance(name, str) and _METRIC_NAME.fullmatch(name) is not None


def median(values) -> float:
    values = list(values)
    if not values:
        raise ValueError("median of no samples")
    return float(statistics.median(values))


def tail_percentile(samples):
    """Highest whole percentile with at least :data:`TAIL_BEYOND` samples
    above it.

    Uses the nearest-rank definition: percentile ``p`` of ``n`` sorted
    samples is the sample at 1-based rank ``ceil(p * n / 100)``, which
    leaves ``n - rank`` samples beyond it.  Returns ``(p, value)``, or
    ``None`` when no percentile at or above :data:`TAIL_FLOOR_PCT`
    qualifies -- too few samples give no number rather than a wrong one.
    """
    ordered = sorted(samples)
    count = len(ordered)
    for pct in range(99, TAIL_FLOOR_PCT - 1, -1):
        rank = math.ceil(pct * count / 100)
        if rank >= 1 and count - rank >= TAIL_BEYOND:
            return pct, float(ordered[rank - 1])
    return None


class FailureTally:
    """Sessions attempted versus sessions that failed, were rejected, or
    returned wrong labels.  A session counts at most once as failed."""

    def __init__(self) -> None:
        self.attempted = 0
        self._failed: dict[str, str] = {}

    def attempt(self) -> None:
        self.attempted += 1

    def fail(self, session: str, reason: str) -> None:
        self._failed.setdefault(session, reason)

    @property
    def failed(self) -> int:
        return len(self._failed)

    @property
    def reasons(self) -> dict[str, str]:
        return dict(self._failed)

    @property
    def frac(self) -> float:
        return self.failed / self.attempted if self.attempted else 1.0


def flat_snapshot(snapshot: dict) -> dict[str, float]:
    """A registry snapshot's counters and gauges as one flat dict."""
    flat: dict[str, float] = {}
    for table in ("counters", "gauges"):
        flat.update(snapshot.get(table, {}))
    return flat


def merged_flat(flats) -> dict[str, float]:
    """Flat series dicts (one per registry) summed key by key."""
    merged: dict[str, float] = {}
    for flat in flats:
        for key, value in flat.items():
            merged[key] = merged.get(key, 0) + value
    return merged


def snapshot_delta(before: dict, after: dict,
                   cumulative: tuple = ()) -> dict[str, float]:
    """What happened between two snapshots of one registry.

    Counters are monotone, so their difference is the work done in
    between (a series new in ``after`` counts from zero).  Gauges are
    levels and keep their ``after`` value -- except gauges named in
    ``cumulative``, which publish running totals (the powmod memo and
    randomness-service reports) and are differenced like counters.
    """
    delta = {key: value - before.get("counters", {}).get(key, 0)
             for key, value in after.get("counters", {}).items()}
    for key, value in after.get("gauges", {}).items():
        if key.partition("{")[0] in cumulative:
            value -= before.get("gauges", {}).get(key, 0)
        delta[key] = value
    return delta


def series_total(flat: dict[str, float], name: str, **labels) -> float:
    """Sum every series of metric ``name`` whose labels include
    ``labels`` (series keys look like ``name{k=v,...}``)."""
    total = 0.0
    for key, value in flat.items():
        base, __, inner = key.partition("{")
        if base != name:
            continue
        have = dict(part.split("=", 1) for part in
                    inner.rstrip("}").split(",") if part)
        if all(have.get(label) == str(want)
               for label, want in labels.items()):
            total += value
    return total


def ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def protocol_counts(result) -> dict:
    """The counts that must repeat exactly for given inputs, from any
    run result with ``stats`` and ``comparisons``."""
    return {"wire_bytes": result.stats["total_bytes"],
            "messages": result.stats["total_messages"],
            "rounds": result.stats["rounds"],
            "comparisons": result.comparisons}


def result_line(*, correct: bool, attempted: int, failed: int,
                metrics: dict[str, tuple[float, str]]) -> str:
    """The last line of standard output: one JSON object."""
    for name in metrics:
        if not valid_metric_name(name):
            raise ValueError(f"invalid metric name {name!r}")
    return json.dumps({
        "correct": bool(correct),
        "attempted": int(attempted),
        "failed": int(failed),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    })


class Outcome:
    """What one workload run hands back to ``run.py``.

    ``end_to_end`` and ``per_layer`` map metric names to values (the
    catalog supplies units); ``checks`` are named correctness gates
    beyond the per-session label check; ``info`` is printed beside the
    result (host, method, deterministic counts, memo figures).
    """

    def __init__(self, tally: FailureTally) -> None:
        self.tally = tally
        self.checks: dict[str, bool] = {}
        self.end_to_end: dict[str, float] = {}
        self.per_layer: dict[str, float] = {}
        self.info: dict = {}

    @property
    def correct(self) -> bool:
        return (self.tally.attempted > 0 and self.tally.failed == 0
                and all(self.checks.values()))


def memo_figures(reports, clusterings: int) -> dict:
    """Per-clustering powmod-memo figures from ``powmod_cache_report``
    dicts (one per process), plus the hit ratio over all of them."""
    hits = sum(report["hits"] for report in reports)
    misses = sum(report["misses"] for report in reports)
    evictions = sum(report["evictions"] for report in reports)
    per = max(1, clusterings)
    return {
        "crypto.powmod.memo_hits": hits / per,
        "crypto.powmod.memo_misses": misses / per,
        "crypto.powmod.memo_evictions": evictions / per,
        "crypto.powmod.memo_hit_ratio": ratio(hits, hits + misses),
    }


def span_figures(summary: dict) -> dict:
    """Totals over sessions: attempts, pass time, critical path, and the
    session time off the critical path (waiting or being scheduled)."""
    attempts = pass_s = critical = offpath = 0.0
    for session in summary["sessions"].values():
        for entry in session["parties"].values():
            passes = entry["passes"]
            attempts += sum(row["attempts"] for row in passes)
            pass_s += sum(row["duration"] for row in passes)
            path = sum(row["critical_path"] for row in passes)
            critical += path
            offpath += max(0.0, entry["duration"] - path)
    return {"runtime.query.attempts": attempts,
            "runtime.pass.s": pass_s,
            "runtime.pass.critical_path_s": critical,
            "runtime.session.offpath_s": offpath}
