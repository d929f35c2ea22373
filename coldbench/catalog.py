"""The benchmark's workloads and metric catalog, read from
``BENCHMARK.json`` at the repository root (the one place they are
written down).

Per-layer figures describe *one clustering* unless the name says
otherwise: work counts and times are summed over every process and
party of a clustering and averaged over the clusterings of the arm that
measured them.  ``runtime.sessions.*`` are totals over that arm;
``runtime.daemon.*``, ``runtime.client.submit_s`` and
``runtime.spawn_link_s`` are medians (``threads_peak`` a maximum).  A
figure a workload's runtime does not have (no daemons in-process, no
links in a single process) reads 0.
"""

from __future__ import annotations

import json
import pathlib

SPEC = json.loads((pathlib.Path(__file__).resolve().parent.parent
                   / "BENCHMARK.json").read_text(encoding="utf-8"))

END_TO_END_UNITS = {entry["name"]: entry["unit"]
                    for entry in SPEC["end_to_end"]}
PER_LAYER_UNITS = {entry["name"]: entry["unit"]
                   for entry in SPEC["per_layer"]}


def per_layer_values(values: dict) -> dict:
    """Every per-layer metric, zero where ``values`` has none."""
    unknown = set(values) - set(PER_LAYER_UNITS)
    if unknown:
        raise KeyError(f"not in the per-layer catalog: {sorted(unknown)}")
    return {name: float(values.get(name, 0)) for name in PER_LAYER_UNITS}
