"""Per-layer tracing of svreg from outside the program.

``Tracer.install`` wraps every public function of svreg's layer modules
where it is looked up: in the module that defines it, in the package
namespace, in the other layer modules that import it by name, and in
``verify.CHECKS``.  A wrapper counts calls and times each one.  The hot
primitives a workload calls millions of times get a C-level counter instead
(``functools.lru_cache(maxsize=0)`` counts its misses and caches nothing),
because a Python wrapper would add more time than the call itself; their
time comes from the sampling profiler.

The profiler samples the call stack on a wall-clock timer.  Each sample's
interval goes to the innermost frame that belongs to svreg or to the
benchmark: that gives each layer's self time, with the standard library
counted in its caller's layer and waiting on a child process in "bench".
A hot primitive's total time is the time of the samples it is on the
stack in.

Spans (name, start, end, parent, attributes) are appended by the
benchmark around each CLI invocation and by the wrappers around each
verify check, kept in memory and written out by ``write``.
"""
from __future__ import annotations

import functools
import inspect
import json
import os
import signal
import time

LAYERS = ("cohomology", "regularity", "tate", "verify", "cli")
SAMPLE_INTERVAL_S = 0.001
BENCH_DIR = os.path.dirname(os.path.abspath(__file__))


class Tracer:
    def __init__(self, pkg, hot=frozenset()):
        self.pkg = pkg
        self.hot = hot
        self.records: dict[str, list[int]] = {}  # name -> [calls, total_ns]
        self.counters: dict[str, object] = {}  # hot name -> C-level counting wrapper
        self.spans: list[dict] = []
        self.columns_returned = 0  # columns in the windows tate_window returned
        self.root: int | None = None
        self._patches: list[tuple[object, str, object]] = []
        self._layer_of_file = {
            os.path.abspath(getattr(pkg, layer).__file__): layer for layer in LAYERS
        }
        self._hot_codes: dict[object, str] = {}
        self._self_ns = dict.fromkeys(LAYERS, 0)
        self._hot_ns: dict[str, int] = {}
        self._last_sample = 0
        self._previous_handler = None
        self.t0 = time.perf_counter_ns()

    # -- wrapping ---------------------------------------------------------
    def install(self) -> None:
        checks = self.pkg.verify.CHECKS
        check_names = {fn: name for name, fn in checks.items()}
        wrapped = {}
        for layer in LAYERS:
            mod = getattr(self.pkg, layer)
            for name, fn in vars(mod).items():
                if name.startswith("_") or not inspect.isfunction(fn) or fn.__module__ != mod.__name__:
                    continue
                key = f"{layer}.{name}"
                if key in self.hot:
                    wrapped[fn] = self.counters[key] = functools.lru_cache(maxsize=0)(fn)
                    self._hot_codes[fn.__code__] = key
                    self._hot_ns[key] = 0
                else:
                    rec = self.records.setdefault(key, [0, 0])
                    wrapped[fn] = self._timed(fn, rec, check_names.get(fn), count_columns=key == "tate.tate_window")
        for ns in (self.pkg, *(getattr(self.pkg, layer) for layer in LAYERS)):
            for name, value in list(vars(ns).items()):
                if inspect.isfunction(value) and value in wrapped:
                    self._patches.append((ns, name, value))
                    setattr(ns, name, wrapped[value])
        for name, fn in list(checks.items()):
            if fn in wrapped:
                self._patches.append((checks, name, fn))
                checks[name] = wrapped[fn]

    def uninstall(self) -> None:
        for ns, name, fn in reversed(self._patches):
            if isinstance(ns, dict):
                ns[name] = fn
            else:
                setattr(ns, name, fn)
        self._patches.clear()

    def _timed(self, fn, rec, check=None, count_columns=False):
        """Count and time each call; a verify check also gets a span, and
        tate_window's returned columns are counted."""
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                rec[0] += 1
                rec[1] += t1 - t0
            if check is not None:
                self.span(f"verify.{check}", t0 - self.t0, t1 - self.t0, self.root, kind="check", instances=result.instances)
            if count_columns:
                self.columns_returned += len(result.terms)
            return result

        return wrapper

    # -- sampling ---------------------------------------------------------
    def _sample(self, signum, frame) -> None:
        now = time.perf_counter_ns()
        weight = now - self._last_sample
        self._last_sample = now
        layer = None
        f = frame
        while f is not None:
            code = f.f_code
            if layer is None:
                filename = code.co_filename
                if filename in self._layer_of_file:
                    layer = self._layer_of_file[filename]
                elif filename.startswith(BENCH_DIR):
                    layer = "bench"
            key = self._hot_codes.get(code)
            if key is not None:
                self._hot_ns[key] += weight
            f = f.f_back
        if layer in self._self_ns:
            self._self_ns[layer] += weight

    def _start_sampling(self) -> None:
        self._last_sample = time.perf_counter_ns()
        self._previous_handler = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL_S, SAMPLE_INTERVAL_S)

    def _stop_sampling(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous_handler)

    # -- spans ------------------------------------------------------------
    def now(self) -> int:
        return time.perf_counter_ns() - self.t0

    def begin(self, name: str) -> None:
        """Open the root span that every check or invocation hangs
        off, and start the profiler."""
        self.root = self.span(name, self.now(), None, None, kind="workload")
        self._start_sampling()

    def finish(self) -> int:
        """Stop the profiler and close the root span; returns its duration in ns."""
        self._stop_sampling()
        root = self.spans[self.root]
        root["end"] = self.now()
        return root["end"] - root["start"]

    def span(self, name: str, start: int, end: int | None, parent: int | None, **attrs) -> int:
        """Record a span; returns its id for use as a parent."""
        self.spans.append(
            {"id": len(self.spans), "name": name, "start": start, "end": end, "parent": parent, "attrs": attrs}
        )
        return len(self.spans) - 1

    # -- results ----------------------------------------------------------
    def calls(self, key: str) -> int:
        if key in self.counters:
            return self.counters[key].cache_info().misses
        return self.records.get(key, [0, 0])[0]

    def us_per_call(self, key: str) -> float:
        calls = self.calls(key)
        total = self._hot_ns[key] if key in self.counters else self.records.get(key, [0, 0])[1]
        return total / calls / 1e3 if calls else 0.0

    def layer_self_s(self, wall_ns: int) -> dict[str, float]:
        """Sampled self time of each layer; "bench" is the rest of the
        traced wall time: the benchmark's loop, tracing and waiting."""
        out = dict(self._self_ns)
        out["bench"] = wall_ns - sum(out.values())
        return {layer: ns / 1e9 for layer, ns in out.items()}

    def write(self, path, meta: dict) -> None:
        doc = {
            "meta": meta,
            "spans": [
                {
                    "id": s["id"],
                    "name": s["name"],
                    "parent": s["parent"],
                    "start_us": s["start"] / 1e3,
                    "end_us": s["end"] / 1e3,
                    "attrs": s["attrs"],
                }
                for s in self.spans
            ],
            "calls": {key: self.calls(key) for key in sorted([*self.records, *self.counters])},
            "us_per_call": {key: self.us_per_call(key) for key in sorted([*self.records, *self.counters])},
        }
        with open(path, "w") as fh:
            json.dump(doc, fh, indent=1, default=str)
