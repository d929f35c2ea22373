#!/usr/bin/env python3
"""Cold-start benchmark for the privacy-preserving DBSCAN protocols.

Usage (from the repository root)::

    python3 coldbench/run.py --workload twoparty-inproc --seed 1 \\
        --seconds 20 --trace 0

Workloads (see ``coldbench/NOTES.md`` for why each exists):

- ``twoparty-inproc``  the two-party protocol in one process;
- ``mesh-burst``       three resident daemon processes, 8 sessions in
  flight;
- ``orchestrate-tcp``  one-shot orchestrated runs, a process per party.

The seed generates every input; the program only sees generated
values.  Every clustering is cold: fresh seeds and keys, and the timed
protocol code runs in processes that ran nothing before it.  Every
clustering's labels are checked against plaintext DBSCAN on the union,
and one per run against a bit-identical in-process reference.

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` splits the
window between untraced runs, runs with the program's span tracing on,
and runs with the benchmark's layer timers on, and reports the
per-layer metrics instead.  The last line of standard output is one
JSON object ``{"correct", "attempted", "failed", "metrics"}``; the line
before it (``info: {...}``) records host, method and the deterministic
counts.  Exit status is 0 only when every check passed.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import platform
import shutil
import sys
import tempfile

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

WORKLOAD_MODULES = {
    "twoparty-inproc": "twoparty",
    "mesh-burst": "meshburst",
    "orchestrate-tcp": "orchestrated",
}


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(WORKLOAD_MODULES))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _prepare_environment(scratch: pathlib.Path) -> None:
    """Program on the import path, temporary files inside the checkout."""
    sys.path.insert(0, str(SRC))
    existing = os.environ.get("PYTHONPATH")
    os.environ["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([existing] if existing else []))
    scratch.mkdir(parents=True, exist_ok=True)
    os.environ["TMPDIR"] = str(scratch)
    tempfile.tempdir = str(scratch)


def main(argv=None) -> int:
    args = _parse(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: program sources not found under {SRC}",
              file=sys.stderr)
        return 2
    scratch = ROOT / ".coldbench_tmp" / f"run-{os.getpid()}"
    _prepare_environment(scratch)
    try:
        import catalog
        from common import METHODOLOGY, result_line

        module = __import__(WORKLOAD_MODULES[args.workload])
        outcome = module.run(args.seed, args.seconds, bool(args.trace))
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        try:
            scratch.parent.rmdir()
        except OSError:
            pass

    if args.trace:
        values = catalog.per_layer_values(outcome.per_layer)
        units = catalog.PER_LAYER_UNITS
    else:
        values = outcome.end_to_end
        units = catalog.END_TO_END_UNITS
    missing = sorted(set(units) - set(values))
    if missing:
        outcome.checks["all_metrics_measured"] = False
    info = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "methodology": METHODOLOGY,
        "host_cpus": os.cpu_count(),
        "python": platform.python_version(),
        "generator": "one benchmark process; see NOTES.md for the "
                     "workload's client shape",
        "failed_frac": outcome.tally.frac,
        "failures": outcome.tally.reasons,
        "checks": outcome.checks,
        "missing_metrics": missing,
        **outcome.info,
    }
    print("info: " + json.dumps(info, sort_keys=True, default=str))
    print(result_line(
        correct=outcome.correct,
        attempted=outcome.tally.attempted,
        failed=outcome.tally.failed,
        metrics={name: (values[name], units[name])
                 for name in units if name in values}))
    return 0 if outcome.correct else 1


if __name__ == "__main__":
    sys.exit(main())
