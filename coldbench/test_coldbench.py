"""Self-tests for the benchmark's own helpers.

Run from the repository root with ``python3 -m pytest coldbench -q``
(the helpers import nothing from the program except where noted).
"""

from __future__ import annotations

import json
import math
import os
import pathlib
import subprocess
import sys

import pytest

HERE = pathlib.Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import catalog  # noqa: E402
import layers  # noqa: E402
from common import (  # noqa: E402
    FailureTally,
    result_line,
    series_total,
    snapshot_delta,
    span_figures,
    tail_percentile,
    valid_metric_name,
)


# -- tail percentile with at least ten samples beyond it ----------------------

def test_tail_needs_ten_samples_beyond_the_median():
    # 19 samples: p50 leaves only 9 beyond it -- no number, not a wrong one.
    assert tail_percentile(range(19)) is None
    assert tail_percentile([]) is None
    assert tail_percentile([1.0] * 10) is None


def test_tail_picks_highest_percentile_with_ten_beyond():
    pct, value = tail_percentile(range(1, 21))       # 1..20
    assert (pct, value) == (50, 10.0)
    pct, value = tail_percentile(range(1, 101))      # 1..100
    assert (pct, value) == (90, 90.0)
    pct, value = tail_percentile(range(1, 41))       # 1..40
    assert pct == 75 and value == 30.0


@pytest.mark.parametrize("count", [20, 23, 37, 64, 100, 1000])
def test_tail_always_leaves_ten_beyond(count):
    samples = list(range(count))
    pct, value = tail_percentile(samples)
    assert sum(1 for sample in samples if sample > value) >= 10
    assert pct >= 50
    # One percentile higher would leave fewer than ten beyond.
    if pct < 99:
        assert count - math.ceil((pct + 1) * count / 100) < 10


def test_tail_ignores_input_order():
    assert tail_percentile([5, 1, 4, 2, 3] * 5) == \
        tail_percentile(sorted([5, 1, 4, 2, 3] * 5))


# -- failure counting ---------------------------------------------------------

def test_failure_tally_counts_each_session_once():
    tally = FailureTally()
    for __ in range(4):
        tally.attempt()
    tally.fail("s1", "labels differ")
    tally.fail("s1", "differs from reference")     # same session again
    tally.fail("s3", "rejected")
    assert (tally.attempted, tally.failed) == (4, 2)
    assert tally.frac == 0.5
    assert tally.reasons["s1"] == "labels differ"


def test_failure_tally_with_nothing_attempted_is_a_total_failure():
    assert FailureTally().frac == 1.0


# -- registry snapshot arithmetic --------------------------------------------

def test_snapshot_delta_subtracts_counters_and_keeps_gauges():
    before = {"counters": {"a": 3, "b{x=1}": 10}, "gauges": {"g": 7}}
    after = {"counters": {"a": 5, "b{x=1}": 10, "new": 2},
             "gauges": {"g": 4}}
    assert snapshot_delta(before, after) == {"a": 2, "b{x=1}": 0,
                                             "new": 2, "g": 4}


def test_snapshot_delta_differences_cumulative_gauges():
    before = {"gauges": {"memo{stat=hits}": 40, "level": 3}}
    after = {"gauges": {"memo{stat=hits}": 100, "level": 5}}
    assert snapshot_delta(before, after, cumulative=("memo",)) == {
        "memo{stat=hits}": 60, "level": 5}


def test_series_total_matches_label_subsets():
    flat = {"frames{dir=in,kind=m}": 3, "frames{dir=out,kind=m}": 5,
            "frames{dir=out,kind=c}": 2, "frames": 1, "other{dir=out}": 9}
    assert series_total(flat, "frames", dir="out") == 7
    assert series_total(flat, "frames") == 11
    assert series_total(flat, "missing") == 0


def test_span_figures_offpath_is_session_minus_critical_path():
    summary = {"sessions": {"s": {"parties": {"p0": {
        "duration": 3.0,
        "passes": [{"attempts": 2, "duration": 1.0, "critical_path": 0.5},
                   {"attempts": 1, "duration": 1.5, "critical_path": 1.0}],
    }}}}}
    figures = span_figures(summary)
    assert figures == {"runtime.query.attempts": 3,
                       "runtime.pass.s": 2.5,
                       "runtime.pass.critical_path_s": 1.5,
                       "runtime.session.offpath_s": 1.5}


# -- metric names and the result line ----------------------------------------

@pytest.mark.parametrize("name", ["setup_s", "crypto.encrypt.calls",
                                  "net.link.overhead_bytes", "9x", "a-b"])
def test_valid_metric_names(name):
    assert valid_metric_name(name)


@pytest.mark.parametrize("name", ["", "_lead", ".lead", "has space",
                                  "slash/no", "x" * 65, "braces{}", None])
def test_invalid_metric_names(name):
    assert not valid_metric_name(name)


def test_catalog_names_are_valid_and_unique():
    names = [entry["name"] for table in ("end_to_end", "per_layer")
             for entry in catalog.SPEC[table]]
    assert len(names) == len(set(names))
    assert all(valid_metric_name(name) for name in names)


def test_every_workload_has_a_module():
    import run

    assert sorted(entry["name"] for entry in catalog.SPEC["workloads"]) == \
        sorted(run.WORKLOAD_MODULES)


def test_result_line_rejects_invalid_names():
    with pytest.raises(ValueError):
        result_line(correct=True, attempted=1, failed=0,
                    metrics={"bad name": (1.0, "s")})
    line = json.loads(result_line(correct=True, attempted=2, failed=0,
                                  metrics={"setup_s": (0.5, "s")}))
    assert set(line) == {"correct", "attempted", "failed", "metrics"}


# -- natural draws and re-queries (imports the program) ----------------------

def test_requery_figures_measure_comparisons_beyond_one_query_per_point():
    sys.path.insert(0, str(HERE.parent / "src"))
    from inputs import base_comparisons, clustering, requery_figures

    job = clustering("orchestrate-tcp", 1, 0, parties=3, per_party=3,
                     key_bits=128)
    # Three parties of three points: each query meets six other points.
    assert base_comparisons(job) == 3 * 3 * 6
    figures = requery_figures([(job, 54), (job, 54), (job, 60), (job, 66)])
    assert figures["requery_share"] == 0.5
    assert figures["extra_comparisons_frac"] == 18 / (4 * 54)
    assert requery_figures([])["requery_share"] is None


# -- layer clock --------------------------------------------------------------

def test_layer_clock_separates_self_time_from_nested_calls():
    clock = layers.LayerClock()
    inner = clock.wrap("inner", lambda: sum(range(1000)))
    outer = clock.wrap("outer", lambda: [inner() for __ in range(3)])
    outer()
    export = clock.export()
    assert export["inner"]["calls"] == 3 and export["outer"]["calls"] == 1
    assert export["outer"]["self_s"] <= export["outer"]["s"]
    assert export["outer"]["s"] >= export["inner"]["s"]


def test_layer_clock_counts_calls_that_raise():
    clock = layers.LayerClock()

    def boom():
        raise KeyError("x")

    wrapped = clock.wrap("boom", boom)
    with pytest.raises(KeyError):
        wrapped()
    assert clock.export()["boom"]["calls"] == 1


def test_clock_metrics_reports_link_overhead():
    export = {"net.link": {"calls": 4, "s": 0.1, "self_s": 0.1,
                           "bytes": 1000},
              "core.region_query": {"calls": 2, "s": 1.0, "self_s": 0.25,
                                    "bytes": 0}}
    metrics = layers.clock_metrics(export, 2, protocol_bytes=800)
    assert metrics["net.link.frames"] == 2
    assert metrics["net.link.overhead_bytes"] == 100
    assert metrics["core.region_query.self_s"] == 0.125


# -- the command itself -------------------------------------------------------

def test_run_without_program_sources_fails_without_a_result(tmp_path):
    for name in os.listdir(HERE):
        if name.endswith(".py"):
            (tmp_path / "coldbench").mkdir(exist_ok=True)
            (tmp_path / "coldbench" / name).write_text(
                (HERE / name).read_text())
    done = subprocess.run(
        [sys.executable, "coldbench/run.py", "--workload", "mesh-burst",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert done.stdout.strip() == ""
