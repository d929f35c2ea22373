"""Per-layer call timers installed from outside the program.

The benchmark measures layers without adding any tracing to ``src/``:
it wraps a fixed list of each layer's *public* functions and methods
with a timer that counts calls, total time, and self time (total minus
the time spent in other wrapped calls nested inside).  The wrapping
happens in whichever process runs the protocol:

- ``twoparty_worker.py`` calls :func:`install` before it imports the
  protocol code;
- daemon and party subprocesses get it from ``inject/sitecustomize.py``,
  which Python imports at start-up when the benchmark puts ``inject/``
  on ``PYTHONPATH`` for a traced run.  Their totals are written as JSON
  at interpreter exit.

Wrapping is observation only: every wrapper returns exactly what the
wrapped callable returns and re-raises what it raises.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
import os
import sys
import threading
import time

#: (layer key, module, attribute path).  A dotted attribute path names a
#: method on a class; a bare name is a module-level function, which is
#: also re-bound in every ``repro`` module that imported it by name.
#: ``encode_frame`` returns the exact bytes every runtime writes to a
#: socket, so its results are also summed (:data:`SIZED`).
TARGETS = (
    ("crypto.encrypt", "repro.crypto.paillier", "PaillierPublicKey.encrypt"),
    ("crypto.decrypt", "repro.crypto.paillier",
     "PaillierPrivateKey.decrypt_raw"),
    ("crypto.scalar_mul", "repro.crypto.paillier",
     "PaillierCiphertext.__mul__"),
    ("crypto.scalar_mul", "repro.crypto.paillier",
     "PaillierCiphertext.__rmul__"),
    ("crypto.rerandomize", "repro.crypto.paillier",
     "PaillierCiphertext.rerandomize"),
    ("crypto.keygen", "repro.crypto.paillier", "generate_paillier_keypair"),
    ("smc.compare", "repro.smc.session", "SmcSession.compare_leq"),
    ("smc.compare", "repro.smc.session", "SmcSession.compare_leq_batch"),
    ("core.region_query", "repro.core.distance", "hdp_region_query"),
    ("core.region_query", "repro.core.distance", "hdp_region_query_cached"),
    ("net.serialize", "repro.net.serialization", "serialize_message"),
    ("net.deserialize", "repro.net.serialization", "deserialize_message"),
    ("net.link", "repro.net.framing", "encode_frame"),
)
SIZED = frozenset({"net.link"})

#: Environment: where a traced subprocess writes its totals at exit.
LAYER_DIR_ENV = "COLDBENCH_LAYER_DIR"
INJECT_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                          "inject")


class LayerClock:
    """Thread-safe call/total/self-time accumulator keyed by layer."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._local = threading.local()
        self.calls: dict[str, int] = {}
        self.total: dict[str, float] = {}
        self.inner: dict[str, float] = {}
        self.bytes: dict[str, int] = {}

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, key: str, fn):
        clock = self
        sized = key in SIZED

        @functools.wraps(fn)
        def timed(*args, **kwargs):
            stack = clock._stack()
            stack.append(0.0)
            started = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                if sized:
                    with clock._lock:
                        clock.bytes[key] = (clock.bytes.get(key, 0)
                                            + len(result))
                return result
            finally:
                elapsed = time.perf_counter() - started
                nested = stack.pop()
                if stack:
                    stack[-1] += elapsed
                with clock._lock:
                    clock.calls[key] = clock.calls.get(key, 0) + 1
                    clock.total[key] = clock.total.get(key, 0.0) + elapsed
                    clock.inner[key] = clock.inner.get(key, 0.0) + nested

        return timed

    def export(self) -> dict:
        """``{layer: {"calls", "s", "self_s", "bytes"}}`` as plain data."""
        with self._lock:
            return {key: {"calls": self.calls[key],
                          "s": self.total[key],
                          "self_s": self.total[key] - self.inner[key],
                          "bytes": self.bytes.get(key, 0)}
                    for key in sorted(self.calls)}


CLOCK = LayerClock()
_installed = False


def install() -> None:
    """Wrap every :data:`TARGETS` entry with :data:`CLOCK`, once per
    process (the wrapped functions are process-wide, so is the clock)."""
    global _installed
    if _installed:
        return
    for key, module_name, path in TARGETS:
        module = importlib.import_module(module_name)
        if "." in path:
            class_name, attribute = path.split(".")
            owner = getattr(module, class_name)
            original = owner.__dict__[attribute]
            setattr(owner, attribute, CLOCK.wrap(key, original))
            continue
        original = getattr(module, path)
        wrapped = CLOCK.wrap(key, original)
        # Modules that did ``from module import name`` hold their own
        # reference; re-bind it wherever it is the original object.
        for loaded in list(sys.modules.values()):
            name = getattr(loaded, "__name__", "") or ""
            if (name == "repro" or name.startswith("repro.")) and \
                    getattr(loaded, path, None) is original:
                setattr(loaded, path, wrapped)
    _installed = True


def merge_exports(exports) -> dict:
    """Sum several :meth:`LayerClock.export` dicts (one per process)."""
    merged: dict[str, dict] = {}
    for export in exports:
        for key, row in export.items():
            into = merged.setdefault(key, {"calls": 0, "s": 0.0,
                                           "self_s": 0.0, "bytes": 0})
            for field in into:
                into[field] += row[field]
    return merged


def process_dump() -> dict:
    """What a subprocess writes at exit: its layer totals plus the
    program's own process-wide counters (powmod memo, default registry).
    """
    dump = {"pid": os.getpid(), "layers": CLOCK.export()}
    try:
        from repro.crypto.engine import default_engine
        from repro.crypto.integer_math import powmod_cache_report
        from repro.obs.metrics import default_registry
        dump["engine"] = default_engine().report()
        dump["powmod"] = powmod_cache_report()
        dump["registry"] = default_registry().snapshot()
    except Exception as exc:  # noqa: BLE001 - a dump must not crash exit
        dump["error"] = repr(exc)
    return dump


def write_process_dump(directory: str) -> None:
    path = os.path.join(directory, f"layers-{os.getpid()}.json")
    with open(path + ".part", "w", encoding="utf-8") as handle:
        json.dump(process_dump(), handle)
    os.replace(path + ".part", path)


def read_process_dumps(directory: str) -> list[dict]:
    dumps = []
    for entry in sorted(os.listdir(directory)):
        if entry.startswith("layers-") and entry.endswith(".json"):
            with open(os.path.join(directory, entry),
                      encoding="utf-8") as handle:
                dumps.append(json.load(handle))
    return dumps


def clock_metrics(export: dict, clusterings: int,
                  protocol_bytes: float = 0.0) -> dict:
    """Per-clustering figures from a merged clock export: ``<layer>.calls``
    and ``.s`` (region queries also ``self_s``); for links, the frames
    and wire bytes written and the bytes beyond ``protocol_bytes``
    (framing, MACs, control and handshake records)."""
    per = max(1, clusterings)
    metrics = {}
    for key, row in export.items():
        if key == "net.link":
            metrics["net.link.frames"] = row["calls"] / per
            metrics["net.link.bytes"] = row["bytes"] / per
            metrics["net.link.overhead_bytes"] = (
                row["bytes"] - protocol_bytes) / per
            continue
        metrics[f"{key}.calls"] = row["calls"] / per
        metrics[f"{key}.s"] = row["s"] / per
        if key == "core.region_query":
            metrics[f"{key}.self_s"] = row["self_s"] / per
    return metrics


@contextlib.contextmanager
def injected(directory: str):
    """Environment for program subprocesses started inside the block:
    ``inject/`` on ``PYTHONPATH``, so they wrap the layer functions and
    dump their totals into ``directory`` at exit.  (The program copies
    ``os.environ`` when it spawns daemons and parties, so the block
    edits it and restores it afterwards.)"""
    keys = ("PYTHONPATH", LAYER_DIR_ENV)
    saved = {key: os.environ.get(key) for key in keys}
    os.environ["PYTHONPATH"] = os.pathsep.join(
        [INJECT_DIR] + ([saved["PYTHONPATH"]] if saved["PYTHONPATH"]
                        else []))
    os.environ[LAYER_DIR_ENV] = directory
    try:
        yield
    finally:
        for key, value in saved.items():
            if value is None:
                os.environ.pop(key, None)
            else:
                os.environ[key] = value
