"""svreg benchmark: one command, two workloads, an untraced and a traced mode.

    python3 bench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a source checkout; svreg is imported from ``src``.
Without ``--workload`` (or with ``all``) every workload runs in a fresh
process of its own.  The last line of standard output is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``; the line before
it records the machine, the load average at the start and any problems.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` runs the same
inputs untraced and then traced, reports the per-layer metrics and the
tracing overhead, and writes the spans to ``.bench_out/``.  See README.md.
"""
from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time

from tracer import Tracer
from workloads import CLI_COMMANDS, ROOT, SRC, VERIFY_CHECKS, WORKLOADS, cli_env, fault_injection

# Set-up is timed this many times before the timed phase and as many after
# it, and the median is reported: spread over the run, the repetitions do
# not all fall in one of the machine's slow spells.
SETUP_REPS = 10
PROBE_REPS = 5
REGULARITY_FNS = (
    "is_regular_formula",
    "is_regular_oracle",
    "in_regularity_set",
    "regularity_corners",
    "cm_regularity",
    "check_subadditivity",
    "check_pair_subadditivity",
)


def forget_svreg():
    """Drop svreg from the module table and collect it, so no cache of an
    earlier import survives; not part of any timing."""
    for name in [n for n in sys.modules if n == "svreg" or n.startswith("svreg.")]:
        del sys.modules[name]
    gc.collect()


def import_svreg():
    """Import svreg and its CLI module; call ``forget_svreg`` first."""
    pkg = importlib.import_module("svreg")
    importlib.import_module("svreg.cli")
    return pkg


def machine_info() -> dict:
    model = ""
    try:
        with open("/proc/cpuinfo") as fh:
            model = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), "")
    except OSError:
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "cpu_model": model,
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
    }


def peak_rss_mb(children: bool) -> float:
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024


def p90(values):
    return statistics.quantiles(values, n=10, method="inclusive")[8] if len(values) > 1 else values[0]


def end_to_end(setup_s, wall_s, attempted, ops, rss_mb) -> dict:
    latencies_ms = [op.seconds * 1e3 for op in ops]
    return {
        "setup_s": (setup_s, "s"),
        "wall_s": (wall_s, "s"),
        "items_per_s": (attempted / wall_s, "items/s"),
        "op_p50_ms": (statistics.median(latencies_ms), "ms"),
        "op_p90_ms": (p90(latencies_ms), "ms"),
        "peak_rss_mb": (rss_mb, "MB"),
    }


def _probe_ms(argv, env) -> float:
    times = []
    for _ in range(PROBE_REPS):
        t0 = time.perf_counter()
        subprocess.run(argv, cwd=ROOT, env=env, capture_output=True, check=True, timeout=60)
        times.append((time.perf_counter() - t0) * 1e3)
    return statistics.median(times)


def _mean_us(spans, name) -> float:
    durations = [(s["end"] - s["start"]) / 1e3 for s in spans if s["name"] == name]
    return statistics.fmean(durations) if durations else 0.0


def _cache_entries(fn) -> int:
    info = getattr(fn, "cache_info", None)
    return info().currsize if info is not None else 0


def per_layer(tracer, pkg, wall_ns, overhead_s) -> dict:
    """Every per-layer metric from one traced pass.  A layer the workload
    does not call reads 0 calls and 0 time."""
    spans = [s for s in tracer.spans if s["end"] is not None]
    out = {}
    for name in VERIFY_CHECKS:
        checks = [s for s in spans if s["name"] == f"verify.{name}"]
        seconds = sum(s["end"] - s["start"] for s in checks) / 1e9
        instances = sum(s["attrs"]["instances"] for s in checks)
        out[f"verify.{name}.s"] = (seconds, "s")
        out[f"verify.{name}.instances_per_s"] = (instances / seconds if seconds else 0.0, "1/s")
    for fn in REGULARITY_FNS:
        out[f"regularity.{fn}.calls"] = (tracer.calls(f"regularity.{fn}"), "count")
        out[f"regularity.{fn}.us_per_call"] = (tracer.us_per_call(f"regularity.{fn}"), "us")
    reg = pkg.regularity
    out["regularity.subset_table.entries"] = (_cache_entries(getattr(reg, "_subset_table", None)), "count")
    out["regularity.corner_points.entries"] = (_cache_entries(getattr(reg, "_corner_points", None)), "count")
    out["tate.p_minus.us_per_call"] = (tracer.us_per_call("tate.p_minus"), "us")
    built = tracer.calls("tate.tate_term")
    out["tate.tate_window.ms_per_call"] = (tracer.us_per_call("tate.tate_window") / 1e3, "ms")
    out["tate.columns_returned"] = (tracer.columns_returned, "count")
    out["tate.tate_term.calls"] = (built, "count")
    out["tate.useful_column_ratio"] = (tracer.columns_returned / built if built else 0.0, "ratio")
    out["cohomology.product_cohomology.calls"] = (tracer.calls("cohomology.product_cohomology"), "count")
    out["cohomology.product_cohomology.us_per_call"] = (tracer.us_per_call("cohomology.product_cohomology"), "us")
    env = cli_env()
    out["cli.python_bare_ms"] = (_probe_ms([sys.executable, "-c", "pass"], env), "ms")
    out["cli.startup_ms"] = (_probe_ms([sys.executable, "-m", "svreg.cli", "--version"], env), "ms")
    for cmd in CLI_COMMANDS:
        ms = [(s["end"] - s["start"]) / 1e6 for s in spans if s["name"] == f"cli.{cmd}" and s["attrs"]["kind"] == "invocation"]
        out[f"cli.{cmd}.p50_ms"] = (statistics.median(ms) if ms else 0.0, "ms")
    out["cli.parse_args.us"] = (tracer.us_per_call("cli.parse_args"), "us")
    out["cli.run.us"] = (tracer.us_per_call("cli.run"), "us")
    out["cli.render.us"] = (_mean_us(spans, "cli.render"), "us")
    out["cli.output_bytes"] = (sum(s["attrs"].get("bytes", 0) for s in spans if s["attrs"]["kind"] == "invocation"), "bytes")
    for layer, seconds in tracer.layer_self_s(wall_ns).items():
        out[f"layer.{layer}.self_s"] = (seconds, "s")
    out["trace.overhead_s"] = (overhead_s, "s")
    return out


def declared_metrics(trace: bool) -> list[str] | None:
    path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.exists(path):
        return None
    with open(path) as fh:
        spec = json.load(fh)
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def timed_pass(wl, seed, rounds, trace=False):
    """Fresh import, generate, then run the inputs once; returns
    (pkg, inputs, ops, wall_ns, rss_mb, tracer)."""
    forget_svreg()
    pkg = import_svreg()
    inputs = wl.generate(pkg, seed, rounds)
    tracer = None
    if trace:
        tracer = Tracer(pkg, wl.hot)
        tracer.install()
    gc.collect()
    t0 = time.perf_counter_ns()
    if tracer:
        tracer.begin(wl.name)
    ops = wl.execute(pkg, inputs, tracer)
    wall_ns = tracer.finish() if tracer else time.perf_counter_ns() - t0
    rss = peak_rss_mb(children=wl.runs_children)
    if tracer:
        tracer.uninstall()
    return pkg, inputs, ops, wall_ns, rss, tracer


def setup_times(wl, seed, rounds) -> list[float]:
    """Import svreg into a clean module table and generate the inputs,
    SETUP_REPS times; the seconds of each."""
    times = []
    for _ in range(SETUP_REPS):
        forget_svreg()
        t0 = time.perf_counter()
        wl.generate(import_svreg(), seed, rounds)
        times.append(time.perf_counter() - t0)
    return times


def run_workload(name, seed, seconds, trace) -> tuple[dict, dict]:
    wl = WORKLOADS[name]
    rounds = wl.rounds(seconds)
    info = {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "rounds": rounds,
        "machine": machine_info(),
        "loadavg_start": list(os.getloadavg()),
    }
    problems = []
    if name == "verify-reference":
        forget_svreg()
        problems += fault_injection(import_svreg(), seed)
        info["fault_injection"] = problems or "both planted faults caught"

    setup_runs = [] if trace else setup_times(wl, seed, rounds)
    pkg, inputs, ops, wall_ns, rss, _ = timed_pass(wl, seed, rounds)
    attempted = wl.attempted(inputs, ops)
    failed, found = wl.check(inputs, ops)
    problems += found
    if not trace:
        setup_runs += setup_times(wl, seed, rounds)
        info["setup_runs_s"] = setup_runs
        metrics = end_to_end(statistics.median(setup_runs), wall_ns / 1e9, attempted, ops, rss)
    else:
        untraced_wall_ns = wall_ns
        del pkg, inputs, ops
        pkg, inputs, ops, wall_ns, _, tracer = timed_pass(wl, seed, rounds, trace=True)
        attempted = wl.attempted(inputs, ops)
        failed, found = wl.check(inputs, ops)
        problems += [f"traced: {p}" for p in found]
        # cli-oneshot's in-process replays are extra work of the traced pass,
        # not tracing cost
        replay_ns = sum(s["end"] - s["start"] for s in tracer.spans if s["attrs"].get("kind") == "replay")
        overhead_s = (wall_ns - replay_ns - untraced_wall_ns) / 1e9
        metrics = per_layer(tracer, pkg, wall_ns, overhead_s)
        out_dir = os.path.join(ROOT, ".bench_out")
        os.makedirs(out_dir, exist_ok=True)
        info["spans_file"] = os.path.relpath(os.path.join(out_dir, f"trace-{name}-seed{seed}.json"), ROOT)
        tracer.write(os.path.join(ROOT, info["spans_file"]), info)
        info["layer_self_s"] = {k: v for k, (v, _) in metrics.items() if k.startswith("layer.")}

    declared = declared_metrics(trace)
    if declared is not None and sorted(declared) != sorted(metrics):
        raise SystemExit(f"metrics {sorted(set(metrics) ^ set(declared))} differ from BENCHMARK.json")
    info.update(attempted=attempted, failed=failed, problems=problems)
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    return info, result


def run_all(args) -> dict:
    """Each workload in a fresh process; prints their lines, returns the sum."""
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        argv = [sys.executable, os.path.abspath(__file__), "--workload", name, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(argv, capture_output=True, text=True)
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            raise SystemExit(f"{name} exited with {proc.returncode}")
        res = json.loads(lines[-1])
        total["correct"] &= res["correct"]
        total["attempted"] += res["attempted"]
        total["failed"] += res["failed"]
        total["metrics"].update({f"{name}/{k}": v for k, v in res["metrics"].items()})
    return total


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all", choices=["all", *WORKLOADS])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=15)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "svreg", "__init__.py")):
        print(f"bench: no svreg sources under {SRC}; run from a source checkout", file=sys.stderr)
        return 2
    if args.workload == "all":
        result = run_all(args)
    else:
        sys.path.insert(0, SRC)
        info, result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
        print(json.dumps(info, default=str))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
