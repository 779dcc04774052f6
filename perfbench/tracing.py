"""Span tracing from outside the program: wrap each layer's public functions.

`Tracer.install` replaces every binding of a public function of the traced
modules in the other ``rainbownet`` modules (``cli`` imports
``exact_search`` by name, ``pet`` imports ``encode_block``, ...), so a span
is recorded at each call that crosses a layer boundary. Calls inside one
module are that layer's own work and count as its self time; the one
exception is the profile optimizer, which the distortion sweeps call from
inside ``distortion`` and whose counters must include those calls. No
program file is edited: `uninstall` restores every binding.

Spans live in memory as ``[name, start, end, parent, job, extra]`` lists
and are written out when the run ends. A span's self time is its duration
minus the durations of its direct children; spans nest and run on one
thread, so a job's self times add up to its root span.
"""

from __future__ import annotations

import importlib
import inspect
import sys
import time
from collections import defaultdict

LAYERS = ("cli", "network", "flows", "search", "distortion", "progressive", "pet", "gf256")
ROOT = "cli.main"
# Spans are named <layer>.<function>, except these, which the per-layer
# metrics group under one name.
ALIASES = {
    "progressive.progressive_gaussian_source": "progressive.encode",
    "progressive.ProgressiveGaussianSource.decode_prefix": "progressive.decode",
    "pet.pet_encode": "pet.encode",
    "pet.pet_decode": "pet.decode",
    "pet.description_to_bytes": "pet.description_io",
    "pet.description_from_bytes": "pet.description_io",
    "distortion.more_descriptions_values": "distortion.sweeps",
    "distortion.rate_split_values": "distortion.sweeps",
    "distortion.refinement_sweep": "distortion.sweeps",
}
TRACED_INSIDE_MODULE = {"distortion.optimize_pet_profile"}


def _bound(signature, args, kwargs) -> dict:
    bound = signature.bind(*args, **kwargs)
    bound.apply_defaults()
    return bound.arguments


def _recover_mul_bytes(arguments, result) -> int:
    shares, k = arguments["shares"], arguments["k"]
    width = result.shape[1]
    chosen = sorted(shares)[:k]
    rebuilt = sum(1 for target in range(k) if target not in shares)
    verified = sum(1 for point in shares if point not in chosen and point >= k)
    return (rebuilt + verified) * k * width


# Counters recorded with a span: name -> f(arguments, result, error) -> dict.
# gf256.mul_bytes is computed from the block shapes (one GF(256) multiply
# per coefficient and byte), not measured.
COUNTERS = {
    "network.enumerate_paths": lambda a, r, e: {"paths": len(r)} if e is None else {},
    "search.exact_search": lambda a, r, e: {"overflow": int(type(e).__name__ == "SearchSizeError")},
    "distortion.optimize_pet_profile": lambda a, r, e: (
        {"iterations": r.iterations, "hit_max_iter": int(r.iterations >= a["max_iter"])}
        if e is None else {}
    ),
    "progressive.encode": lambda a, r, e: {"bits": 8 * len(r.bitstream)} if e is None else {},
    "progressive.decode": lambda a, r, e: {
        "bits": min(a["prefix_bits"], 8 * len(a["self"].bitstream if a["data"] is None else a["data"]))
    },
    "pet.encode": lambda a, r, e: {"bytes": a["profile"].source_bytes_required},
    "pet.decode": lambda a, r, e: {"bytes": len(r)} if e is None else {},
    "gf256.encode_block": lambda a, r, e: (
        {"mul_bytes": (r.shape[0] - len(a["data"])) * len(a["data"]) * r.shape[1]} if e is None else {}
    ),
    "gf256.recover_block": lambda a, r, e: (
        {"mul_bytes": _recover_mul_bytes(a, r)} if e is None else {}
    ),
}


class Tracer:
    """Records spans for calls made while a job is active."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._job: int | None = None
        self._patched: list[tuple[object, str, object]] = []

    def span(self, name: str, fn, *args, counters=None, **kwargs):
        """Call fn inside a span; outside a job, just call it."""
        if self._job is None:
            return fn(*args, **kwargs)
        index = len(self.spans)
        record = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1, self._job, None]
        self.spans.append(record)
        self._stack.append(index)
        result = error = None
        record[1] = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
            return result
        except BaseException as exc:
            error = exc
            raise
        finally:
            record[2] = time.perf_counter()
            self._stack.pop()
            if counters is not None:
                record[5] = counters(args, kwargs, result, error)

    def run_job(self, job_id: int, fn, *args):
        """Run one job as a root span named cli.main."""
        self._job = job_id
        try:
            return self.span(ROOT, fn, *args)
        finally:
            self._job = None

    def _wrapper(self, name: str, fn):
        counter = COUNTERS.get(name)
        measure = None
        if counter is not None:
            signature = inspect.signature(fn)

            def measure(args, kwargs, result, error):
                return counter(_bound(signature, args, kwargs), result, error)

        def traced(*args, **kwargs):
            return self.span(name, fn, *args, counters=measure, **kwargs)

        traced.__wrapped__ = fn
        traced.__name__ = fn.__name__
        return traced

    def install(self):
        """Wrap every public function of the traced layers where it is bound."""
        package = importlib.import_module("rainbownet")
        for layer in LAYERS:
            importlib.import_module(f"rainbownet.{layer}")
        modules = [package] + [
            module for name, module in sorted(sys.modules.items())
            if name.startswith("rainbownet.") and module is not None
        ]
        for layer in LAYERS:
            home = sys.modules[f"rainbownet.{layer}"]
            for attr, fn in sorted(vars(home).items()):
                if attr.startswith("_") or not inspect.isfunction(fn) or fn.__module__ != home.__name__:
                    continue
                if f"{layer}.{attr}" == ROOT:
                    continue
                name = ALIASES.get(f"{layer}.{attr}", f"{layer}.{attr}")
                traced = self._wrapper(name, fn)
                for module in modules:
                    if module is home and f"{layer}.{attr}" not in TRACED_INSIDE_MODULE:
                        continue
                    for binding, value in list(vars(module).items()):
                        if value is fn:
                            self._patch(module, binding, traced)
        progressive = sys.modules["rainbownet.progressive"]
        cls = progressive.ProgressiveGaussianSource
        self._patch(cls, "decode_prefix", self._wrapper("progressive.decode", cls.decode_prefix))

    def _patch(self, owner, attr: str, value):
        self._patched.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self):
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()


def self_times(spans: list[list]) -> list[float]:
    """Per-span self time: duration minus the durations of direct children."""
    child_time = [0.0] * len(spans)
    for name, start, end, parent, job, extra in spans:
        if parent >= 0:
            child_time[parent] += end - start
    return [end - start - child_time[i] for i, (_, start, end, *_rest) in enumerate(spans)]


def layer_of(name: str) -> str:
    return name.split(".", 1)[0]


def summarize(spans: list[list]) -> dict:
    """Per-span-name totals, per-job wall times and per-job self-time sums."""
    selfs = self_times(spans)
    totals: dict[str, dict] = defaultdict(lambda: defaultdict(float))
    job_wall: dict[int, float] = {}
    job_self: dict[int, float] = defaultdict(float)
    decode_bits: dict[int, list[int]] = defaultdict(list)
    for (name, start, end, parent, job, extra), own in zip(spans, selfs):
        entry = totals[name]
        entry["calls"] += 1
        entry["s"] += end - start
        entry["self_s"] += own
        for key, value in (extra or {}).items():
            entry[key] += value
        if extra and extra.get("overflow"):
            entry["overflow_s"] += end - start
        if name == "progressive.decode":
            decode_bits[job].append(extra["bits"])
        if parent < 0:
            job_wall[job] = end - start
        job_self[job] += own
    useful = sum(max(bits) for bits in decode_bits.values())
    decoded = sum(sum(bits) for bits in decode_bits.values())
    return {
        "by_name": {name: dict(entry) for name, entry in totals.items()},
        "job_wall": job_wall,
        "job_self": dict(job_self),
        "decode_useful_bits": useful,
        "decode_bits": decoded,
    }
