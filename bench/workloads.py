"""The benchmark's two workloads.

Each workload builds its inputs from the seed (``generate``), runs them as
a closed loop with one caller (``execute``) and checks every answer against
the reference routes in ``reference.py`` (``check``).  The amount of work is
a whole number of rounds, so the failed share of attempted operations never
depends on how fast a run goes.

svreg functions are looked up through their modules at call time, so the
tracer's wrappers see every call; the package passed in is a fresh import.
"""
from __future__ import annotations

import json
import os
import random
import subprocess
import sys
import time
from math import comb

import reference as ref

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")

VERIFY_CHECKS = (
    "cohomology",
    "formula-vs-oracle",
    "corner-membership",
    "minimal-twist",
    "segre-r2",
    "ideal-bound",
    "subadditivity",
    "pair-subadditivity",
    "tate-endpoints",
    "tate-window",
)
CLI_COMMANDS = (
    "cohomology",
    "regular",
    "oracle",
    "member",
    "regset",
    "reg",
    "segre2",
    "lambda",
    "subadd",
    "tate",
    "endpoints",
)


class Op:
    """One finished operation: a whole verify run or a CLI
    invocation, with its wall-clock interval in perf_counter_ns."""

    __slots__ = ("name", "start", "end", "result", "error", "attrs")

    def __init__(self, name, start, end, result, error, attrs):
        self.name, self.start, self.end = name, start, end
        self.result, self.error, self.attrs = result, error, attrs

    @property
    def seconds(self) -> float:
        return (self.end - self.start) / 1e9


def _call(name, fn, args, attrs):
    start = time.perf_counter_ns()
    try:
        result, error = fn(*args), None
    except Exception as exc:  # a failed operation is counted, not fatal
        result, error = None, f"{type(exc).__name__}: {exc}"
    return Op(name, start, time.perf_counter_ns(), result, error, attrs)


def _record_spans(tracer, ops, kind):
    if tracer is None:
        return
    for op in ops:
        tracer.span(op.name, op.start - tracer.t0, op.end - tracer.t0, tracer.root, kind=kind, **op.attrs)


def _rounds(seconds: float, nominal_round_s: float) -> int:
    return max(1, round(seconds / nominal_round_s))


# -- verify-reference --------------------------------------------------------


def expected_verify_counts(config) -> dict[str, int]:
    """Instance count of each check, derived from the grid definitions."""
    lm, dm = config.lmax, config.dmax
    lo, hi = config.box
    box = hi - lo + 1
    embeddings = {r: (lm * dm) ** r for r in (1, 2)}
    pairs_grid = sum(e * box ** (2 * r) for r, e in embeddings.items()) + config.r3_samples
    points_grid = sum(e * box**r for r, e in embeddings.items()) + config.r3_samples
    n_embeddings = sum(embeddings.values())
    twist_range = 13  # m entries in -6..6
    return {
        "cohomology": sum(lm**r * box**r for r in (1, 2, 3)),
        "formula-vs-oracle": pairs_grid,
        "corner-membership": pairs_grid,
        "minimal-twist": points_grid,
        "segre-r2": 3 * 3 * 11 * 11,
        "ideal-bound": n_embeddings + 1,
        "subadditivity": n_embeddings * config.subadd_pairs,
        "pair-subadditivity": n_embeddings * config.pair_samples,
        "tate-endpoints": 3 * lm * twist_range
        + sum(lm * comb(twist_range + r - 1, r) for r in (1, 2, 3))
        + 2 * lm * 9
        + points_grid,
        "tate-window": sum(e * 9**r for r, e in embeddings.items()),
    }


class VerifyReference:
    """``run_checks(VerifyConfig(), names=[...])`` with the ten checks named:
    the reference grid ``svreg verify`` runs.  One operation is one such
    run, which is what a user of ``svreg verify`` waits for; the traced pass
    gets one span per check from the tracer's wrappers of the checks."""

    name = "verify-reference"
    nominal_round_s = 55.0
    runs_children = False
    # called millions of times per run: counted in C and timed by sampling
    hot = frozenset(
        {
            "cohomology.binom",
            "cohomology.factor_cohomology",
            "cohomology.product_cohomology",
            "cohomology.twist",
            "regularity.in_regularity_set",
            "regularity.is_regular_formula",
            "regularity.is_regular_oracle",
        }
    )

    def rounds(self, seconds):
        return _rounds(seconds, self.nominal_round_s)

    def generate(self, pkg, seed, rounds):
        config = pkg.verify.VerifyConfig()
        return {"config": config, "rounds": rounds, "expected": expected_verify_counts(config)}

    def execute(self, pkg, inputs, tracer):
        verify = pkg.verify
        args = (inputs["config"], list(VERIFY_CHECKS))
        return [_call("verify.run_checks", verify.run_checks, args, {}) for _ in range(inputs["rounds"])]

    def attempted(self, inputs, ops):
        return len(ops) * sum(inputs["expected"].values())

    def check(self, inputs, ops):
        """Returns (failed instances, problems)."""
        expected = inputs["expected"]
        failed, problems = 0, []
        for op in ops:
            if op.error is not None:
                failed += sum(expected.values())
                problems.append(op.error)
                continue
            names = [res.name for res in op.result]
            if names != list(VERIFY_CHECKS):
                problems.append(f"checks {names} ran, not {list(VERIFY_CHECKS)}")
            for res in op.result:
                failed += res.failures
                if res.failures:
                    problems.append(f"{res.name}: {res.failures} failures, first {res.counterexample}")
                if res.instances != expected.get(res.name):
                    problems.append(f"{res.name}: {res.instances} instances, the grid gives {expected.get(res.name)}")
        return failed, problems


def fault_injection(pkg, seed) -> list[str]:
    """Plant off-by-one closed forms for ``is_regular_formula`` and
    ``cm_regularity``, run ``formula-vs-oracle`` and ``minimal-twist`` on a
    small grid, and confirm both report a counterexample that the
    reference scan shows to be a real disagreement."""
    reg = pkg.regularity

    def off_by_one_formula(E, m, p, *_):
        return ref.sorted_max(E.l, [(mk + pk + lk + 1) // dk for mk, pk, lk, dk in zip(m, p, E.l, E.d)]) <= 0

    def off_by_one_cm(E, m, *_):
        return ref.sorted_max(E.l, [(mk + lk + 1) // dk for mk, lk, dk in zip(m, E.l, E.d)])

    config = pkg.verify.VerifyConfig(lmax=2, dmax=2, box=(-3, 3), r3_samples=50, seed=seed)
    saved = reg.is_regular_formula, reg.cm_regularity
    reg.is_regular_formula, reg.cm_regularity = off_by_one_formula, off_by_one_cm
    try:
        fo, mt = pkg.verify.run_checks(config, ["formula-vs-oracle", "minimal-twist"])
    finally:
        reg.is_regular_formula, reg.cm_regularity = saved
    problems = []
    if fo.failures == 0:
        problems.append("planted formula fault not caught by formula-vs-oracle")
    else:
        ce = fo.counterexample
        l, d, m, p = ce["l"], ce["d"], ce["m"], ce["p"]
        truth = ref.regular_scan(l, d, m, p)
        planted = off_by_one_formula(pkg.SegreVeronese(l, d), m, p)
        if not (ce["oracle"] == truth and ce["formula"] == planted and planted != truth):
            problems.append(f"formula-vs-oracle counterexample is not a real disagreement: {ce}")
    if mt.failures == 0:
        problems.append("planted cm_regularity fault not caught by minimal-twist")
    else:
        ce = mt.counterexample
        l, d, m = ce["l"], ce["d"], ce["m"]
        least = ref.least_regular_twist(l, d, m)
        planted = off_by_one_cm(pkg.SegreVeronese(l, d), m)
        if not (ce.get("minimal_twist") == least and ce.get("cm_regularity") == planted and planted != least):
            problems.append(f"minimal-twist counterexample is not a real disagreement: {ce}")
    if (reg.is_regular_formula, reg.cm_regularity) != saved:
        problems.append("planted faults were not restored")
    return problems


# -- cli-oneshot -------------------------------------------------------------

# Columns of the long Tate windows, three per round.  They are a fifth of
# the invocations and slower than the quick ones, so p90 falls in the middle
# of this block, on the 2500-column windows, rather than on the slowest of
# the quick invocations, where it would swing with single slow calls.
LONG_WINDOWS = (1000, 1500, 2000, 2500, 3000, 3500, 4000, 5000)
LONG_PER_ROUND = 3


def _csv(v):
    return ",".join(str(x) for x in v)


def cli_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC
    return env


class CliOneshot:
    """One-shot ``python -m svreg.cli <cmd> ... --format json`` invocations,
    one at a time, covering every subcommand except verify at r <= 3."""

    name = "cli-oneshot"
    nominal_round_s = 2.25
    runs_children = True  # peak RSS is the largest child's
    hot = frozenset()

    def rounds(self, seconds):
        return _rounds(seconds, self.nominal_round_s)

    def generate(self, pkg, seed, rounds):
        rng = random.Random(f"cli-oneshot|{seed}")
        long_windows = [LONG_WINDOWS[i % len(LONG_WINDOWS)] for i in range(LONG_PER_ROUND * rounds)]
        rng.shuffle(long_windows)
        invocations = []
        for i in range(rounds):
            invocations.extend(self._round(rng, i, long_windows[LONG_PER_ROUND * i : LONG_PER_ROUND * (i + 1)]))
        rng.shuffle(invocations)
        return invocations

    @staticmethod
    def _round(rng, i, long_columns):
        """One of each quick invocation, a short Tate window and a long
        window of each size in ``long_columns``."""
        def embedding(r=None):
            r = r or rng.randint(1, 3)
            return tuple(rng.randint(1, 3) for _ in range(r)), tuple(rng.randint(1, 3) for _ in range(r))

        def vec(r, lo=-8, hi=8):
            return tuple(rng.randint(lo, hi) for _ in range(r))

        def inv(cmd, params, *flags):
            return (cmd, params, [cmd, *flags, "--format", "json"])

        def eflags(l, d, **vectors):
            return ["--l", _csv(l), "--d", _csv(d), *(f"--{k}={_csv(v)}" for k, v in vectors.items())]

        out = []
        l, d = embedding()
        a = vec(len(l))
        out.append(inv("cohomology", {"l": l, "d": d, "a": a}, *eflags(l, d, a=a)))
        for cmd in ("regular", "oracle", "member"):
            l, d = embedding()
            m, p = vec(len(l)), vec(len(l))
            out.append(inv(cmd, {"l": l, "d": d, "m": m, "p": p}, *eflags(l, d, m=m, p=p)))
        l, d = embedding()
        m = vec(len(l))
        antichain = i % 2 == 1
        out.append(inv("regset", {"l": l, "d": d, "m": m, "antichain": antichain},
                       *eflags(l, d, m=m), *(["--antichain"] if antichain else [])))
        l, d = embedding()
        m = vec(len(l))
        explain = i % 2 == 0
        out.append(inv("reg", {"l": l, "d": d, "m": m, "explain": explain},
                       *eflags(l, d, m=m), *(["--explain"] if explain else [])))
        dims, tw = (rng.randint(1, 3), rng.randint(1, 3)), vec(2)
        out.append(inv("segre2", {"dims": dims, "twist": tw}, "--dims", _csv(dims), f"--twist={_csv(tw)}"))
        l, d = embedding()
        out.append(inv("lambda", {"l": l, "d": d}, *eflags(l, d)))
        l, d = embedding()
        m, m2 = vec(len(l)), vec(len(l))
        out.append(inv("subadd", {"l": l, "d": d, "m": m, "m2": m2}, *eflags(l, d, m=m, m2=m2)))
        # pair-level form: p and p2 dominate a corner, so the hypothesis holds
        l, d = embedding()
        m, m2 = vec(len(l)), vec(len(l))
        p = tuple(c + rng.randint(0, 2) for c in rng.choice(ref.corners_ref(l, d, m))[1])
        p2 = tuple(c + rng.randint(0, 2) for c in rng.choice(ref.corners_ref(l, d, m2))[1])
        out.append(inv("subadd", {"l": l, "d": d, "m": m, "m2": m2, "p": p, "p2": p2},
                       *eflags(l, d, m=m, m2=m2, p=p, p2=p2)))
        if i % 2 == 0:  # balanced: constant l and d = 1, which adds the closed form
            r = rng.randint(1, 3)
            l, d = (rng.randint(1, 3),) * r, (1,) * r
        else:
            l, d = embedding()
        m = vec(len(l))
        out.append(inv("endpoints", {"l": l, "d": d, "m": m}, *eflags(l, d, m=m)))
        # a short window: tens of columns
        l, d = embedding()
        m, pad = vec(len(l)), rng.randint(0, 6)
        out.append(inv("tate", {"l": l, "d": d, "m": m, "pad": pad}, *eflags(l, d, m=m), "--pad", str(pad)))
        # long windows on P^1 x P^1: m = (0, M) has p+ - p- = M, so
        # columns = M + 2 pad + 1 exactly
        for columns in long_columns:
            pad = rng.randint(0, 5)
            big = columns - 2 * pad - 1
            l, d, m = (1, 1), (1, 1), ((0, big) if rng.random() < 0.5 else (big, 0))
            out.append(inv("tate", {"l": l, "d": d, "m": m, "pad": pad}, *eflags(l, d, m=m), "--pad", str(pad)))
        return out

    def execute(self, pkg, inputs, tracer):
        env = cli_env()
        ops = []
        for cmd, _, argv in inputs:
            ops.append(_call(f"cli.{cmd}", self._invoke, (argv, env), {}))
            if tracer is not None:
                self._replay(pkg, tracer, argv, ops[-1])
        for op in ops:
            if op.result is not None:
                op.attrs["bytes"] = len(op.result[1])
        _record_spans(tracer, ops, "invocation")
        return ops

    @staticmethod
    def _invoke(argv, env):
        proc = subprocess.run(
            [sys.executable, "-m", "svreg.cli", *argv], cwd=ROOT, env=env, capture_output=True, timeout=120
        )
        return proc.returncode, proc.stdout, proc.stderr

    @staticmethod
    def _replay(pkg, tracer, argv, op):
        """Re-run the invocation in-process to split its time into
        parse_args, run and render; traced runs only."""
        cli = pkg.cli
        t0 = tracer.now()
        request = cli.parse_args(argv)
        t1 = tracer.now()
        doc, _ = cli.run(request)
        t2 = tracer.now()
        doc.to_json()
        t3 = tracer.now()
        parent = tracer.span(f"replay.{op.name}", t0, t3, tracer.root, kind="replay")
        tracer.span("cli.parse_args", t0, t1, parent, kind="layer")
        tracer.span("cli.run", t1, t2, parent, kind="layer")
        tracer.span("cli.render", t2, t3, parent, kind="render")

    def attempted(self, inputs, ops):
        return len(ops)

    def check(self, inputs, ops):
        failed, problems = 0, []
        for (cmd, params, argv), op in zip(inputs, ops):
            problem = None
            if op.error is not None:
                problem = op.error
            else:
                code, out, err = op.result
                lines = out.decode().splitlines()
                if code != 0:
                    problem = f"exit {code}: {err.decode().strip()[-300:]}"
                elif len(lines) != 1:
                    problem = f"{len(lines)} output lines"
                else:
                    doc = json.loads(lines[0])
                    want = expected_cli_result(cmd, params)
                    if doc.get("command") != cmd or doc.get("result") != want:
                        problem = f"result {doc.get('result')} != reference {want}"
            if problem is not None:
                failed += 1
                if len(problems) < 5:
                    problems.append(f"{' '.join(argv)}: {problem}")
        return failed, problems


def expected_cli_result(cmd, q):
    """The ``result`` document a subcommand must print, from the reference
    routes."""
    if cmd == "segre2":
        return {"value": ref.cm_sorted(q["dims"], (1, 1), q["twist"])}
    l, d = q["l"], q["d"]
    if cmd == "cohomology":
        a, n = q["a"], sum(l)
        c = ref.line_cohomology(l, a)
        table = [ref.h(l, a, i) for i in range(n + 1)]
        return {
            "degree": None if c is None else c[0],
            "dimension": None if c is None else str(c[1]),
            "table": [str(x) for x in table],
            "euler_characteristic": str(sum((-1) ** i * x for i, x in enumerate(table))),
            "n": n,
            "ambient_dim": str(ref.ambient_dim(l, d)),
        }
    if cmd in ("regular", "oracle"):
        return {"regular": ref.regular_scan(l, d, q["m"], q["p"])}
    if cmd == "member":
        return {"member": ref.regular_scan(l, d, q["m"], q["p"])}
    if cmd == "regset":
        corners = ref.corners_ref(l, d, q["m"], q["antichain"])
        return {"corners": [{"sigma": list(s), "corner": list(c)} for s, c in corners]}
    if cmd == "reg":
        value = ref.cm_sorted(l, d, q["m"])
        out = {"value": value}
        if q["explain"]:
            rows = ref.subset_rows(l, d, q["m"])
            out["subsets"] = [
                {"J": list(J), "l_J": lJ, "value": v, "max": v == value}
                for J, (lJ, v) in sorted(rows.items(), key=lambda kv: sum(1 << k for k in kv[0]))
            ]
        return out
    if cmd == "lambda":
        lam = ref.lambda_ref(l, d)
        return {"value": lam, "case_split_value": lam, "reg_zero": ref.cm_sorted(l, d, (0,) * len(l))}
    if cmd == "subadd":
        m, m2 = q["m"], q["m2"]
        total = tuple(x + y for x, y in zip(m, m2))
        if "p" in q:
            p, p2 = q["p"], q["p2"]
            if not (ref.regular_scan(l, d, m, p) and ref.regular_scan(l, d, m2, p2)):
                return {"status": "hypothesis-not-met"}
            psum = tuple(x + y for x, y in zip(p, p2))
            return {"status": "holds" if ref.regular_scan(l, d, total, psum) else "fails"}
        a, b, c = ref.cm_sorted(l, d, m), ref.cm_sorted(l, d, m2), ref.cm_sorted(l, d, total)
        return {"reg_m": a, "reg_m2": b, "reg_sum": c, "holds": a + b >= c}
    hi, lo = ref.cm_sorted(l, d, q["m"]), ref.p_minus_ref(l, d, q["m"])
    if cmd == "endpoints":
        out = {"p_plus": hi, "p_minus": lo, "length": hi - lo, "dual_twist": list(ref.dual(l, d, q["m"]))}
        if len(set(l)) == 1 and set(d) == {1}:
            out["balanced"] = {"p_plus": hi, "p_minus": lo}
        return out
    if cmd == "tate":
        pad = q["pad"]
        terms = [
            {"p": p, "entries": [{"i": i, "twist": t, "rank": str(rank)} for i, t, rank in ref.tate_column(l, d, q["m"], p)]}
            for p in range(lo - pad, hi + pad + 1)
        ]
        return {"p_minus": lo, "p_plus": hi, "length": hi - lo, "terms": terms}
    raise ValueError(f"no reference for {cmd}")


WORKLOADS = {w.name: w for w in (VerifyReference(), CliOneshot())}
