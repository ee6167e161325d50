"""Command line front end: one subcommand per operation.

Every invocation produces a single report document, rendered either as a
human-readable table (default) or as one line of JSON, so batch runs can
concatenate documents line by line.  Dimensions, ranks and other values
that can outgrow 64 bits are serialized as decimal strings; everything is
exact; the only floats are the per-check timings of ``verify``.

Exit codes: 0 success, 1 usage or input error, 2 a verification check
found a counterexample, 3 an internal error (a broken invariant the
library detected, reported in one line on stderr).
"""
from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass
from typing import Any

from . import __version__
from . import verify as verify_mod
from .cohomology import SegreVeronese, euler_characteristic, product_cohomology
from .regularity import (
    PERMUTATION_CAP,
    SUBSET_CAP,
    check_pair_subadditivity,
    check_subadditivity,
    cm_regularity,
    cm_regularity_breakdown,
    ideal_sheaf_bound,
    in_regularity_set,
    is_regular_formula,
    is_regular_oracle,
    regularity_corners,
    segre_regularity,
)
from .tate import balanced_endpoints, dual_twist, p_minus, p_plus, tate_window

INT64_MIN = -(2**63)
INT64_MAX = 2**63 - 1


class UsageError(Exception):
    """Bad command line input; reported on stderr with exit code 1."""


@dataclass
class CliRequest:
    """A validated invocation: the subcommand, the output format and the
    already-parsed operation parameters."""

    command: str
    format: str
    params: dict[str, Any]


@dataclass
class ReportDocument:
    """What an invocation reports: the echoed inputs, the result payload, a
    note naming the result the subcommand rests on, and the tool version."""

    command: str
    inputs: dict[str, Any]
    result: dict[str, Any]
    note: str
    version: str

    def as_dict(self) -> dict[str, Any]:
        return {
            "command": self.command,
            "inputs": self.inputs,
            "result": self.result,
            "note": self.note,
            "version": self.version,
        }

    def to_json(self) -> str:
        return json.dumps(self.as_dict(), sort_keys=True, separators=(",", ":"))


class _Parser(argparse.ArgumentParser):
    # argparse exits with code 2 on bad flags; 2 is reserved for verify
    # counterexamples, so surface parse problems as UsageError instead.
    def error(self, message: str):
        raise UsageError(message)


def _int_list(text: str, flag: str) -> tuple[int, ...]:
    try:
        values = tuple(int(part) for part in text.split(","))
    except ValueError:
        raise UsageError(f"{flag} expects a comma-separated integer list, got {text!r}") from None
    for v in values:
        if not INT64_MIN <= v <= INT64_MAX:
            raise UsageError(f"{flag} entry {v} is outside the signed 64-bit range")
    return values


def _int_value(text: str, flag: str) -> int:
    try:
        v = int(text)
    except ValueError:
        raise UsageError(f"{flag} expects an integer, got {text!r}") from None
    if not INT64_MIN <= v <= INT64_MAX:
        raise UsageError(f"{flag} value {v} is outside the signed 64-bit range")
    return v


def _parse_caps(text: str) -> dict[str, int]:
    caps = {"subsets": SUBSET_CAP, "perms": PERMUTATION_CAP}
    for part in text.split(","):
        key, sep, value = part.partition("=")
        if not sep or key not in caps:
            raise UsageError(f"--caps expects subsets=<n>,perms=<n>, got {part!r}")
        try:
            v = int(value)
        except ValueError:
            raise UsageError(f"--caps {key} expects an integer, got {value!r}") from None
        if v < 1:
            raise UsageError(f"--caps {key} must be positive, got {v}")
        caps[key] = v
    return caps


def _build_parser() -> _Parser:
    parser = _Parser(
        prog="svreg",
        description=(
            "Exact regularity, cohomology and Tate-resolution windows for "
            "line bundles on products of projective spaces under a "
            "Segre-Veronese embedding.  Write negative lists in the "
            "--flag=-1,2 form."
        ),
    )
    parser.add_argument("--version", action="version", version=f"svreg {__version__}")
    fmt = argparse.ArgumentParser(add_help=False)
    fmt.add_argument("--format", choices=("table", "json"), default="table")
    caps = argparse.ArgumentParser(add_help=False)
    caps.add_argument("--caps", default=None, metavar="subsets=<n>,perms=<n>")

    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    # operation vectors are validated by hand after the embedding so that
    # an l/d length mismatch is reported before anything else
    p = sub.add_parser("cohomology", parents=[fmt], help="cohomology profile of O(a)")
    p.add_argument("--l", required=True)
    p.add_argument("--d", default=None, help="defaults to 1,...,1; irrelevant to cohomology")
    p.add_argument("--a", default=None)

    for name, help_text in (
        ("regular", "closed-form test that O(m) is O(p)-regular"),
        ("oracle", "brute-force cohomology test that O(m) is O(p)-regular"),
        ("member", "regularity-set membership of p via corner domination"),
    ):
        p = sub.add_parser(name, parents=[fmt, caps], help=help_text)
        p.add_argument("--l", required=True)
        p.add_argument("--d", required=True)
        p.add_argument("--m", default=None)
        p.add_argument("--p", default=None)

    p = sub.add_parser("regset", parents=[fmt, caps], help="corners of the regularity set of O(m)")
    p.add_argument("--l", required=True)
    p.add_argument("--d", required=True)
    p.add_argument("--m", default=None)
    p.add_argument("--antichain", action="store_true")

    p = sub.add_parser("reg", parents=[fmt, caps], help="Castelnuovo-Mumford regularity of the pushforward of O(m)")
    p.add_argument("--l", required=True)
    p.add_argument("--d", required=True)
    p.add_argument("--m", default=None)
    p.add_argument("--explain", action="store_true", help="print one row per subset J")

    p = sub.add_parser("segre2", parents=[fmt], help="two-factor Segre regularity closed form")
    p.add_argument("--dims", required=True, help="a,b: the two factor dimensions")
    p.add_argument("--twist", required=True, help="k,l: the two twist entries")

    p = sub.add_parser("lambda", parents=[fmt], help="regularity bound for the ideal sheaf of the image")
    p.add_argument("--l", required=True)
    p.add_argument("--d", required=True)

    p = sub.add_parser("subadd", parents=[fmt, caps], help="subadditivity check; add --p/--p2 for the pair-level form")
    p.add_argument("--l", required=True)
    p.add_argument("--d", required=True)
    p.add_argument("--m", default=None)
    p.add_argument("--m2", default=None)
    p.add_argument("--p", default=None)
    p.add_argument("--p2", default=None)

    p = sub.add_parser("tate", parents=[fmt, caps], help="Tate resolution columns around the interesting window")
    p.add_argument("--l", required=True)
    p.add_argument("--d", required=True)
    p.add_argument("--m", default=None)
    p.add_argument("--pad", default="2")

    p = sub.add_parser("endpoints", parents=[fmt, caps], help="window endpoints p+ and p-")
    p.add_argument("--l", required=True)
    p.add_argument("--d", required=True)
    p.add_argument("--m", default=None)

    p = sub.add_parser("verify", parents=[fmt], help="replay the closed forms against the cohomology oracle")
    p.add_argument("--checks", default=None, help="comma list; default: all")
    p.add_argument("--lmax", default="3")
    p.add_argument("--dmax", default="3")
    p.add_argument("--box", default="-8,8")
    p.add_argument("--r3-samples", default="10000", dest="r3_samples")
    p.add_argument("--seed", default="1729")
    p.add_argument("--subadd-pairs", default="1000", dest="subadd_pairs")
    p.add_argument("--pair-samples", default="200", dest="pair_samples")

    return parser


def _embedding(ns: argparse.Namespace, d_optional: bool = False) -> tuple[SegreVeronese, dict]:
    l = _int_list(ns.l, "--l")
    if d_optional and ns.d is None:
        d = (1,) * len(l)
    else:
        d = _int_list(ns.d, "--d")
    if len(l) != len(d):
        raise UsageError(f"--l has {len(l)} entries but --d has {len(d)}")
    if any(x < 1 for x in l):
        raise UsageError(f"--l entries must be >= 1, got {list(l)}")
    if any(x < 1 for x in d):
        raise UsageError(f"--d entries must be >= 1, got {list(d)}")
    return SegreVeronese(l, d), {"l": list(l), "d": list(d)}


def _vector(ns: argparse.Namespace, name: str, r: int) -> tuple[int, ...]:
    raw = getattr(ns, name)
    if raw is None:
        raise UsageError(f"--{name} is required")
    value = _int_list(raw, f"--{name}")
    if len(value) != r:
        raise UsageError(f"--{name} has {len(value)} entries, expected {r}")
    return value


def parse_args(argv: list[str]) -> CliRequest:
    """Validate argv into a CliRequest; raises UsageError naming the
    offending flag before any computation happens."""
    ns = _build_parser().parse_args(argv)
    params: dict[str, Any] = {}
    command = ns.command

    if command == "verify":
        lo_hi = _int_list(ns.box, "--box")
        if len(lo_hi) != 2 or lo_hi[0] > lo_hi[1]:
            raise UsageError(f"--box expects lo,hi with lo <= hi, got {ns.box!r}")
        counts = {}
        for flag, attr, minimum in (
            ("--lmax", "lmax", 1),
            ("--dmax", "dmax", 1),
            ("--r3-samples", "r3_samples", 0),
            ("--subadd-pairs", "subadd_pairs", 0),
            ("--pair-samples", "pair_samples", 0),
        ):
            v = _int_value(getattr(ns, attr), flag)
            if v < minimum:
                raise UsageError(f"{flag} must be >= {minimum}, got {v}")
            counts[attr] = v
        try:
            seed = int(ns.seed)
        except ValueError:
            raise UsageError(f"--seed expects an integer, got {ns.seed!r}") from None
        if not 0 <= seed < 2**64:
            raise UsageError(f"--seed expects an unsigned 64-bit integer, got {seed}")
        names = None
        if ns.checks is not None:
            names = [part.strip() for part in ns.checks.split(",") if part.strip()]
            unknown = [n for n in names if n not in verify_mod.CHECKS]
            if unknown:
                raise UsageError(
                    f"--checks: unknown {', '.join(unknown)}; available: {', '.join(verify_mod.CHECKS)}"
                )
        params = {
            "config": verify_mod.VerifyConfig(box=(lo_hi[0], lo_hi[1]), seed=seed, **counts),
            "names": names,
        }
        return CliRequest(command, ns.format, params)

    if command == "segre2":
        dims = _int_list(ns.dims, "--dims")
        tw = _int_list(ns.twist, "--twist")
        if len(dims) != 2:
            raise UsageError(f"--dims expects exactly two entries, got {len(dims)}")
        if len(tw) != 2:
            raise UsageError(f"--twist expects exactly two entries, got {len(tw)}")
        if dims[0] < 1 or dims[1] < 1:
            raise UsageError(f"--dims entries must be >= 1, got {list(dims)}")
        return CliRequest(command, ns.format, {"dims": dims, "twist": tw})

    E, echo = _embedding(ns, d_optional=command == "cohomology")
    params["E"] = E
    params["echo"] = echo
    if getattr(ns, "caps", None):
        params["caps"] = _parse_caps(ns.caps)
    else:
        params["caps"] = {"subsets": SUBSET_CAP, "perms": PERMUTATION_CAP}

    if command == "cohomology":
        params["a"] = _vector(ns, "a", E.r)
    elif command in ("regular", "oracle", "member"):
        params["m"] = _vector(ns, "m", E.r)
        params["p"] = _vector(ns, "p", E.r)
    elif command == "regset":
        params["m"] = _vector(ns, "m", E.r)
        params["antichain"] = ns.antichain
    elif command == "reg":
        params["m"] = _vector(ns, "m", E.r)
        params["explain"] = ns.explain
    elif command == "lambda":
        pass
    elif command == "subadd":
        params["m"] = _vector(ns, "m", E.r)
        params["m2"] = _vector(ns, "m2", E.r)
        if (ns.p is None) != (ns.p2 is None):
            raise UsageError("--p and --p2 must be given together for the pair-level check")
        if ns.p is not None:
            params["p"] = _vector(ns, "p", E.r)
            params["p2"] = _vector(ns, "p2", E.r)
    elif command == "tate":
        params["m"] = _vector(ns, "m", E.r)
        pad = _int_value(ns.pad, "--pad")
        if pad < 0:
            raise UsageError(f"--pad must be >= 0, got {pad}")
        params["pad"] = pad
    elif command == "endpoints":
        params["m"] = _vector(ns, "m", E.r)
    return CliRequest(command, ns.format, params)


def _profile_payload(E: SegreVeronese, a: tuple[int, ...]) -> dict[str, Any]:
    profile = product_cohomology(E, a)
    return {
        "degree": profile.degree,
        "dimension": None if profile.dimension is None else str(profile.dimension),
        "table": [str(h) for h in profile.table(E.n)],
        "euler_characteristic": str(euler_characteristic(E, a)),
        "n": E.n,
        "ambient_dim": str(E.ambient_dim),
    }


def run(request: CliRequest) -> tuple[ReportDocument, int]:
    """Execute a validated request; returns the report and the exit code."""
    command = request.command
    params = request.params
    code = 0

    if command == "verify":
        results = verify_mod.run_checks(params["config"], params["names"])
        ok = all(res.ok for res in results)
        config = params["config"]
        result = {
            "ok": ok,
            "checks": [res.as_dict() for res in results],
            "total_instances": sum(res.instances for res in results),
        }
        inputs = {
            "lmax": config.lmax,
            "dmax": config.dmax,
            "box": list(config.box),
            "r3_samples": config.r3_samples,
            "seed": config.seed,
            "subadd_pairs": config.subadd_pairs,
            "pair_samples": config.pair_samples,
            "checks": params["names"] or list(verify_mod.CHECKS),
        }
        note = "closed forms replayed against the brute-force cohomology oracle"
        return ReportDocument("verify", inputs, result, note, __version__), 0 if ok else 2

    if command == "segre2":
        a, b = params["dims"]
        k, twist_l = params["twist"]
        result = {"value": segre_regularity(a, b, k, twist_l)}
        inputs = {"dims": [a, b], "twist": [k, twist_l]}
        return ReportDocument(command, inputs, result, "Theorem theo_reg, r=2 Segre specialization", __version__), 0

    E: SegreVeronese = params["E"]
    inputs = dict(params["echo"])
    caps = params["caps"]

    if command == "cohomology":
        inputs["a"] = list(params["a"])
        result = _profile_payload(E, params["a"])
        note = "Bott rules + Kunneth formula"
    elif command == "regular":
        inputs["m"] = list(params["m"])
        inputs["p"] = list(params["p"])
        result = {"regular": is_regular_formula(E, params["m"], params["p"], caps["subsets"])}
        note = "Theorem theo_Lreg"
    elif command == "oracle":
        inputs["m"] = list(params["m"])
        inputs["p"] = list(params["p"])
        result = {"regular": is_regular_oracle(E, params["m"], params["p"])}
        note = "Definition Lregular, checked degree by degree"
    elif command == "member":
        inputs["m"] = list(params["m"])
        inputs["p"] = list(params["p"])
        result = {"member": in_regularity_set(E, params["m"], params["p"], caps["perms"])}
        note = "Proposition regset"
    elif command == "regset":
        inputs["m"] = list(params["m"])
        inputs["antichain"] = params["antichain"]
        corners = regularity_corners(E, params["m"], params["antichain"], caps["perms"])
        result = {
            "corners": [{"sigma": list(c.sigma), "corner": list(c.corner)} for c in corners]
        }
        note = "Proposition regset"
    elif command == "reg":
        inputs["m"] = list(params["m"])
        value = cm_regularity(E, params["m"], caps["subsets"])
        result = {"value": value}
        if params["explain"]:
            rows = cm_regularity_breakdown(E, params["m"], caps["subsets"])
            result["subsets"] = [
                {"J": list(members), "l_J": lJ, "value": v, "max": v == value}
                for members, lJ, v in rows
            ]
        note = "Theorem theo_reg"
    elif command == "lambda":
        bound = ideal_sheaf_bound(E)
        result = {
            "value": bound.value,
            "case_split_value": bound.case_split_value,
            "reg_zero": cm_regularity(E, (0,) * E.r),
        }
        note = "ideal sheaf bound lambda = n + 1 - min floor(l_k/d_k)"
    elif command == "subadd":
        inputs["m"] = list(params["m"])
        inputs["m2"] = list(params["m2"])
        if "p" in params:
            inputs["p"] = list(params["p"])
            inputs["p2"] = list(params["p2"])
            status = check_pair_subadditivity(
                E, params["m"], params["p"], params["m2"], params["p2"], caps["subsets"]
            )
            result = {"status": status}
            note = "Theorem Lregadd"
        else:
            report = check_subadditivity(E, params["m"], params["m2"], caps["subsets"])
            result = {
                "reg_m": report.reg_m,
                "reg_m2": report.reg_m2,
                "reg_sum": report.reg_sum,
                "holds": report.holds,
            }
            note = "Theorem Fmreg"
    elif command == "tate":
        inputs["m"] = list(params["m"])
        inputs["pad"] = params["pad"]
        window = tate_window(E, params["m"], params["pad"], caps["subsets"])
        result = {
            "p_minus": window.p_minus,
            "p_plus": window.p_plus,
            "length": window.p_plus - window.p_minus,
            "terms": [
                {
                    "p": t.p,
                    "entries": [
                        {"i": e.i, "twist": e.twist, "rank": str(e.rank)} for e in t.entries
                    ],
                }
                for t in window.terms
            ],
        }
        note = "Tate term formula tate_form"
    elif command == "endpoints":
        inputs["m"] = list(params["m"])
        hi = p_plus(E, params["m"], caps["subsets"])
        lo = p_minus(E, params["m"], caps["subsets"])
        result = {
            "p_plus": hi,
            "p_minus": lo,
            "length": hi - lo,
            "dual_twist": list(dual_twist(E, params["m"])),
        }
        if len(set(E.l)) == 1 and set(E.d) == {1}:
            bp, bm = balanced_endpoints(E.r, E.l[0], tuple(sorted(params["m"])))
            result["balanced"] = {"p_plus": bp, "p_minus": bm}
        note = "Tate endpoint theorem: p+ = reg(m), p- = -reg(dual twist)"
    else:  # pragma: no cover - the parser rejects unknown commands first
        raise UsageError(f"unknown subcommand {command!r}")

    return ReportDocument(command, inputs, result, note, __version__), code


def _fmt_scalar(value: Any) -> str:
    if value is None:
        return "-"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (list, tuple)):
        return ",".join(_fmt_scalar(v) for v in value)
    return str(value)


def _table_rows(rows: list[list[str]], header: list[str]) -> list[str]:
    widths = [max(len(header[i]), *(len(row[i]) for row in rows)) if rows else len(header[i]) for i in range(len(header))]
    lines = ["  " + "  ".join(header[i].ljust(widths[i]) for i in range(len(header)))]
    for row in rows:
        lines.append("  " + "  ".join(row[i].ljust(widths[i]) for i in range(len(header))))
    return lines


def render_table(doc: ReportDocument) -> str:
    """Human-readable rendering of a report document."""
    lines = [f"command: {doc.command}"]
    for key, value in doc.inputs.items():
        lines.append(f"{key}: {_fmt_scalar(value)}")
    result = doc.result
    for key, value in result.items():
        if key == "corners":
            lines.append("corners:")
            lines.extend(
                _table_rows(
                    [[_fmt_scalar(c["sigma"]), _fmt_scalar(c["corner"])] for c in value],
                    ["sigma", "corner"],
                )
            )
        elif key == "subsets":
            lines.append("subsets:")
            rows = [
                [_fmt_scalar(row["J"]), str(row["l_J"]), str(row["value"]), "*" if row["max"] else ""]
                for row in value
            ]
            lines.extend(_table_rows(rows, ["J", "l_J", "value", "max"]))
        elif key == "terms":
            lines.append("columns:")
            rows = []
            for term in value:
                if not term["entries"]:
                    rows.append([str(term["p"]), "-", "-", "0"])
                for e in term["entries"]:
                    rows.append([str(term["p"]), str(e["i"]), str(e["twist"]), e["rank"]])
            lines.extend(_table_rows(rows, ["p", "i", "twist", "rank"]))
        elif key == "checks":
            lines.append("checks:")
            rows = [
                [
                    c["name"],
                    str(c["instances"]),
                    str(c["failures"]),
                    f"{c['elapsed_s']:.3f}",
                    "ok" if c["failures"] == 0 else "FAIL",
                ]
                for c in value
            ]
            lines.extend(_table_rows(rows, ["check", "instances", "failures", "seconds", "status"]))
            bad = next((c for c in value if c["counterexample"]), None)
            if bad is not None:
                lines.append(f"counterexample ({bad['name']}): {json.dumps(bad['counterexample'], sort_keys=True)}")
        elif key == "balanced":
            lines.append(f"balanced: p_plus={value['p_plus']} p_minus={value['p_minus']}")
        else:
            lines.append(f"{key}: {_fmt_scalar(value)}")
    lines.append(f"note: {doc.note}")
    return "\n".join(lines)


def main(argv: list[str] | None = None) -> int:
    args = sys.argv[1:] if argv is None else argv
    try:
        request = parse_args(args)
    except UsageError as exc:
        print(f"svreg: error: {exc}", file=sys.stderr)
        return 1
    try:
        doc, code = run(request)
    except (UsageError, ValueError) as exc:
        print(f"svreg: error: {exc}", file=sys.stderr)
        return 1
    except RuntimeError as exc:
        message = " ".join(str(exc).split())
        print(f"svreg: internal error: {message}", file=sys.stderr)
        return 3
    print(doc.to_json() if request.format == "json" else render_table(doc))
    return code


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
