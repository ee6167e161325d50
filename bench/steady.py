"""Steadiness check: run the untraced benchmark ten times per workload in
each of two sets, each run with another seed, and compare the end-to-end
metrics.

    python3 bench/steady.py [--workload NAME|all]

For each metric it prints the median and quartiles of each set of runs,
the spread (third minus first quartile, over the median), and whether it
stays within the metric's bound in BENCHMARK.json: the spread of every
metric but ``setup_s``, and the two sets' medians, which must lie within
the bound of each other in either direction.  It also checks that the
failed share of attempted operations is the same in every run.  Each run
lasts ``run_seconds`` from BENCHMARK.json; the first set uses seeds 1-10,
the second 11-20.
"""
from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUNS = 10
SETS = 2


def run_once(workload, seed, seconds):
    argv = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True)
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} exited {proc.returncode}: {proc.stderr[-500:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def quartiles(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def check_workload(workload, spec) -> bool:
    sets = []
    for k in range(SETS):
        runs = []
        for i in range(RUNS):
            seed = k * RUNS + i + 1
            res = run_once(workload, seed, spec["run_seconds"])
            runs.append(res)
            print(f"  {workload} seed {seed}: correct={res['correct']} attempted={res['attempted']} "
                  f"failed={res['failed']}", file=sys.stderr, flush=True)
        sets.append(runs)
    ok = all(r["correct"] for runs in sets for r in runs)
    shares = {r["failed"] / r["attempted"] for runs in sets for r in runs}
    ok &= len(shares) == 1
    report = {"workload": workload, "failed_shares": sorted(shares), "metrics": {}}
    print(f"{workload}: failed share {sorted(shares)}")
    print(f"  {'metric':<14}{'set':>4}{'q1':>14}{'median':>14}{'q3':>14}{'spread':>9}{'bound':>7}  verdict")
    for metric in spec["end_to_end"]:
        name, bound = metric["name"], metric["bound"]
        medians = []
        for k, runs in enumerate(sets):
            values = [r["metrics"][name]["value"] for r in runs]
            q1, med, q3 = quartiles(values)
            spread = (q3 - q1) / med
            medians.append(med)
            verdict = "-" if name == "setup_s" else ("ok" if spread <= bound / 3 else "within" if spread <= bound else "WIDE")
            ok &= verdict != "WIDE"
            print(f"  {name:<14}{k:>4}{q1:>14.6g}{med:>14.6g}{q3:>14.6g}{spread:>9.3f}{bound:>7.2f}  {verdict}")
            report["metrics"].setdefault(name, []).append(
                {"q1": q1, "median": med, "q3": q3, "spread": spread, "runs": values}
            )
        shift = (medians[1] - medians[0]) / medians[0]
        agree = abs(shift) <= bound
        ok &= agree
        print(f"  {name:<14} second median moved {shift:+.3f} (bound {bound}): {'agree' if agree else 'DISAGREE'}")
    report["ok"] = ok
    print(json.dumps(report))
    return ok


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all")
    args = parser.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    names = [w["name"] for w in spec["workloads"]] if args.workload == "all" else [args.workload]
    results = [check_workload(name, spec) for name in names]
    return 0 if all(results) else 1


if __name__ == "__main__":
    sys.exit(main())
