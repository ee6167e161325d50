"""Command line front end: one subcommand per operation.

Every invocation produces a single report document, rendered either as a
human-readable table (default) or as one line of JSON, so batch runs can
concatenate documents line by line.  The document echoes every flag it
read.  The table is rendered from the document by one rule set, the same
for every subcommand (``render_table``).  Everything is exact; the only
floats are the per-check timings of ``verify``.  The values that grow
fastest, a cohomology dimension, table, Euler characteristic and
ambient dimension and a Tate rank, are serialized as decimal strings.
Every other integer is a JSON number, which can outgrow 64 bits as well
(a ``regset`` corner, a ``reg`` value on int64 inputs), so read it with
a parser that keeps integers exact.

This module only reads the flags, checking how they are written
(integers, list entries in signed 64 bits, list lengths, required flags),
and renders the library's answers.  A value outside the domain of the
record or call it feeds (``VerifyConfig``, ``tate_window``), or over its
cost limits, is refused by it before any work is done.  Both kinds of
refusal are a ValueError, reported in one line on stderr.

Exit codes: 0 success, 1 usage or input error, 2 a verification check
found a counterexample, 3 an internal error (a broken invariant the
library detected, a RuntimeError reported in one line on stderr; a
ValueError raised while a ``verify`` check runs is one too).
Output that cannot be written exits 1 as well: quietly when the reader
closed the pipe (as ``| head`` does), otherwise with one line on stderr.
"""
from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Any, Callable, NamedTuple

from . import __version__
from .cohomology import SegreVeronese, product_cohomology
from .regularity import (
    check_pair_subadditivity,
    check_subadditivity,
    cm_regularity,
    cm_regularity_breakdown,
    ideal_sheaf_bound,
    is_regular_formula,
    is_regular_oracle,
    regularity_corners,
)
from .tate import dual_twist, p_minus, tate_window

INT64_MIN = -(2**63)
INT64_MAX = 2**63 - 1


# The records here and in the library are NamedTuples and the embedding a
# slotted class, because every one-shot call pays for this import: with
# dataclasses, whose import loads inspect (8 ms) and which take about 1 ms
# each to build, importing svreg took 25 ms instead of 8 (-X importtime,
# Python 3.11 on a 2-vCPU Xeon).
class CliRequest(NamedTuple):
    """A validated invocation: the subcommand, the output format and the
    already-parsed operation parameters."""

    command: str
    format: str
    params: dict[str, Any]


class ReportDocument(NamedTuple):
    """What an invocation reports: the echoed inputs, the result payload, a
    note naming the result the subcommand rests on, and the tool version."""

    command: str
    inputs: dict[str, Any]
    result: dict[str, Any]
    note: str
    version: str

    def to_json(self) -> str:
        return json.dumps(self._asdict(), sort_keys=True, separators=(",", ":"))


class _Parser(argparse.ArgumentParser):
    # argparse exits with code 2 on bad flags; 2 is reserved for verify
    # counterexamples, so surface parse problems as ValueError instead.
    def error(self, message: str):
        raise ValueError(message)


def _int_list(text: str, flag: str) -> tuple[int, ...]:
    try:
        values = tuple(int(part) for part in text.split(","))
    except ValueError:
        raise ValueError(f"{flag} expects a comma-separated integer list, got {text!r}") from None
    for v in values:
        if not INT64_MIN <= v <= INT64_MAX:
            raise ValueError(f"{flag} entry {v} is outside the signed 64-bit range")
    return values


def _integer(text: str, flag: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise ValueError(f"{flag} expects an integer, got {text!r}") from None


def _two(text: str, flag: str) -> tuple[int, ...]:
    values = _int_list(text, flag)
    if len(values) != 2:
        raise ValueError(f"{flag} expects exactly two entries, got {len(values)}")
    return values


def _check_names(text: str, flag: str) -> list[str]:
    return [part.strip() for part in text.split(",") if part.strip()]


def _embedding(ns: argparse.Namespace) -> SegreVeronese:
    l = _int_list(ns.l, "--l")
    d = (1,) * len(l) if ns.d is None else _int_list(ns.d, "--d")
    return SegreVeronese(l, d)


def _vector(ns: argparse.Namespace, name: str, r: int) -> tuple[int, ...]:
    raw = getattr(ns, name)
    if raw is None:
        raise ValueError(f"--{name} is required")
    value = _int_list(raw, f"--{name}")
    if len(value) != r:
        raise ValueError(f"--{name} has {len(value)} entries, expected {r}")
    return value


# Payload builders: each takes the parsed params and the inputs echoed so far
# (verify adds its grid) and returns (result, note).  They name library
# functions through this module's globals when they run, so a function patched
# here is the one called.


def _cohomology(params: dict, inputs: dict) -> tuple[dict, str]:
    E = params["E"]
    profile = product_cohomology(E, params["a"])
    result = {
        "degree": profile.degree,
        "dimension": None if profile.dimension is None else str(profile.dimension),
        "table": [str(h) for h in profile.table(E.n)],
        "euler_characteristic": str(profile.euler_characteristic),
        "n": E.n,
        "ambient_dim": str(E.ambient_dim),
    }
    return result, "Bott rules + Kunneth formula"


def _regular(params: dict, inputs: dict) -> tuple[dict, str]:
    regular = is_regular_formula(params["E"], params["m"], params["p"])
    return {"regular": regular}, "Theorem theo_Lreg"


def _oracle(params: dict, inputs: dict) -> tuple[dict, str]:
    regular = is_regular_oracle(params["E"], params["m"], params["p"])
    return {"regular": regular}, "Definition Lregular, checked degree by degree"


def _member(params: dict, inputs: dict) -> tuple[dict, str]:
    member = is_regular_formula(params["E"], params["m"], params["p"])
    return {"member": member}, "Proposition regset"


def _regset(params: dict, inputs: dict) -> tuple[dict, str]:
    corners = regularity_corners(params["E"], params["m"])
    return {"corners": [c._asdict() for c in corners]}, "Proposition regset"


def _reg(params: dict, inputs: dict) -> tuple[dict, str]:
    E, m = params["E"], params["m"]
    value = cm_regularity(E, m)
    result = {"value": value}
    if params["explain"]:
        result["subsets"] = [
            {"J": list(members), "l_J": lJ, "value": v, "max": v == value}
            for members, lJ, v in cm_regularity_breakdown(E, m)
        ]
    return result, "Theorem theo_reg"


def _segre2(params: dict, inputs: dict) -> tuple[dict, str]:
    # reg on P^a x P^b under the Segre embedding, whose dimensions it refuses
    E = SegreVeronese(params["dims"], (1, 1))
    return _reg({"E": E, "m": params["twist"], "explain": False}, inputs)


def _lambda(params: dict, inputs: dict) -> tuple[dict, str]:
    E = params["E"]
    value = ideal_sheaf_bound(E)
    # case_split_value repeats value until the benchmark stops reading it
    result = {"value": value, "case_split_value": value, "reg_zero": cm_regularity(E, (0,) * E.r)}
    return result, "ideal sheaf bound lambda = n + 1 - min floor(l_k/d_k)"


def _subadd(params: dict, inputs: dict) -> tuple[dict, str]:
    E, m, m2 = params["E"], params["m"], params["m2"]
    if "p" in params:
        status = check_pair_subadditivity(E, m, params["p"], m2, params["p2"])
        return {"status": status}, "Theorem Lregadd"
    return check_subadditivity(E, m, m2)._asdict(), "Theorem Fmreg"


def _tate(params: dict, inputs: dict) -> tuple[dict, str]:
    window = tate_window(params["E"], params["m"], params["pad"])
    result = {
        "p_minus": window.p_minus,
        "p_plus": window.p_plus,
        "length": window.p_plus - window.p_minus,
        "terms": [
            {"p": t.p, "entries": [{"i": i, "twist": i - t.p, "rank": str(rank)} for i, rank in t.entries]}
            for t in window.terms
        ],
    }
    return result, "Tate term formula tate_form"


def _endpoints(params: dict, inputs: dict) -> tuple[dict, str]:
    E, m = params["E"], params["m"]
    hi, lo = cm_regularity(E, m), p_minus(E, m)
    result = {"p_plus": hi, "p_minus": lo, "length": hi - lo, "dual_twist": list(dual_twist(E, m))}
    if set(E.d) == {1} and len(set(E.l)) == 1:
        # balanced repeats the endpoints until the benchmark stops reading it
        result["balanced"] = {"p_plus": hi, "p_minus": lo}
    return result, "Tate endpoint theorem: p+ = reg(m), p- = -reg(dual twist)"


def _verify(params: dict, inputs: dict) -> tuple[dict, str]:
    from . import verify  # loaded for ``svreg verify`` only

    names = params["checks"]
    # flags left out keep VerifyConfig's defaults, the reference grid
    fields = {k: v for k, v in params.items() if k != "checks" and v is not None}
    config = verify.VerifyConfig(**fields)
    results = verify.run_checks(config, names)
    inputs.update(vars(config), checks=names or list(verify.CHECKS))
    result = {
        "ok": all(res.ok for res in results),
        "checks": [res.as_dict() for res in results],
        "total_instances": sum(res.instances for res in results),
    }
    return result, "closed forms replayed against the brute-force cohomology oracle"


class _Flag(NamedTuple):
    """A subcommand flag other than --l, --d and the length-r vectors."""

    name: str
    convert: Callable[[str, str], Any] | None = None  # (text, flag) -> value
    settings: dict[str, Any] = {}  # argparse keywords


class _Command(NamedTuple):
    """One subcommand, described once: the parser, parse_args and run loop over these."""

    help: str
    build: Callable[[dict, dict], tuple[dict, str]]
    vectors: tuple[str, ...] = ()  # length-r vectors, read after --l/--d and echoed in order
    pair: tuple[str, ...] = ()  # optional length-r vectors that must be given together
    flags: tuple[_Flag, ...] = ()  # in --help and parsing order
    d: dict[str, Any] | None = {"required": True}  # argparse keywords of --d; None: no embedding


_COMMANDS: dict[str, _Command] = {
    "cohomology": _Command(
        "cohomology profile of O(a)", _cohomology, ("a",),
        d=dict(help="defaults to 1,...,1; sets only ambient_dim"),
    ),
    "regular": _Command("closed-form test that O(m) is O(p)-regular", _regular, ("m", "p")),
    "oracle": _Command(
        "brute-force cohomology test that O(m) is O(p)-regular", _oracle, ("m", "p")
    ),
    "member": _Command("regularity-set membership of p by the closed form", _member, ("m", "p")),
    "regset": _Command(
        "corners of the regularity set of O(m)", _regset, ("m",),
        flags=(
            _Flag("--antichain", None, dict(action="store_true", help="no effect: the corners always form an antichain")),
        ),
    ),
    "reg": _Command(
        "Castelnuovo-Mumford regularity of the pushforward of O(m)", _reg, ("m",),
        flags=(
            _Flag("--explain", None, dict(action="store_true", help="print one row per subset J")),
        ),
    ),
    "segre2": _Command(
        "Castelnuovo-Mumford regularity of O(k, l) under the Segre embedding of P^a x P^b", _segre2, d=None,
        flags=(
            _Flag("--dims", _two, dict(required=True, help="a,b: the two factor dimensions")),
            _Flag("--twist", _two, dict(required=True, help="k,l: the two twist entries")),
        ),
    ),
    "lambda": _Command("regularity bound for the ideal sheaf of the image", _lambda),
    "subadd": _Command(
        "subadditivity check; add --p/--p2 for the pair-level form", _subadd, ("m", "m2"),
        pair=("p", "p2"),
    ),
    "tate": _Command(
        "Tate resolution columns around the interesting window", _tate, ("m",),
        flags=(_Flag("--pad", _integer, dict(default="2")),),
    ),
    "endpoints": _Command("window endpoints p+ and p-", _endpoints, ("m",)),
    "verify": _Command(
        "replay the closed forms against the cohomology oracle", _verify, d=None,
        flags=(
            _Flag("--box", _int_list),
            _Flag("--lmax", _integer),
            _Flag("--dmax", _integer),
            _Flag("--r3-samples", _integer),
            _Flag("--seed", _integer),
            _Flag("--checks", _check_names, dict(help="comma list; default: all")),
        ),
    ),
}


def _build_parser(invoked: str | None, alone: bool) -> _Parser:
    """The parser, with flags only for the ``invoked`` subcommand.  The
    others are registered with their help, for the top-level ``--help`` and
    the invalid-choice error, unless ``invoked`` is to be registered
    ``alone``: building them would be wasted on a one-shot call."""
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
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)
    for name, command in _COMMANDS.items():
        if name == invoked or not alone:
            p = sub.add_parser(name, help=command.help, description=command.help)
        if name != invoked:
            continue
        p.add_argument("--format", choices=("table", "json"), default="table")
        if command.d is not None:
            # the vectors are validated by hand after the embedding, so that
            # an l/d length mismatch is reported before anything else
            p.add_argument("--l", required=True)
            p.add_argument("--d", **command.d)
            for vector in (*command.vectors, *command.pair):
                p.add_argument(f"--{vector}")
        for flag in command.flags:
            p.add_argument(flag.name, **flag.settings)
    return parser


def parse_args(argv: list[str]) -> CliRequest:
    """Read argv into a CliRequest; raises ValueError naming the flag that
    is missing or badly written.  Values outside the domain of a record or
    library call, or over its cost limits, are refused by it before any
    work is done, with a ValueError too: SegreVeronese here (segre2's in
    its payload builder), the others (VerifyConfig among them) when the
    payload builders run."""
    # the top-level parser has no option that takes a value, so its first
    # positional argument is the subcommand; an argv that starts with it can
    # reach neither the top-level help nor the invalid-choice error
    invoked = next((arg for arg in argv if not arg.startswith("-")), None)
    ns = _build_parser(invoked, argv[:1] == [invoked] and invoked in _COMMANDS).parse_args(argv)
    command = _COMMANDS[ns.command]
    params: dict[str, Any] = {}
    if command.d is not None:
        E = params["E"] = _embedding(ns)
        for vector in command.vectors:
            params[vector] = _vector(ns, vector, E.r)
        given = [vector for vector in command.pair if getattr(ns, vector) is not None]
        if given and len(given) < len(command.pair):
            flags = " and ".join(f"--{vector}" for vector in command.pair)
            raise ValueError(f"{flags} must be given together for the pair-level check")
        for vector in given:
            params[vector] = _vector(ns, vector, E.r)
    for flag in command.flags:
        dest = flag.name[2:].replace("-", "_")
        value = getattr(ns, dest)
        if flag.convert is not None and value is not None:
            value = flag.convert(value, flag.name)
        params[dest] = value
    return CliRequest(ns.command, ns.format, params)


def run(request: CliRequest) -> tuple[ReportDocument, int]:
    """Execute a validated request; returns the report and the exit code.
    The inputs echo every parsed parameter, the embedding as l and d."""
    params = request.params
    inputs: dict[str, Any] = {}
    for key, value in params.items():
        if key == "E":
            inputs.update(l=list(value.l), d=list(value.d))
        else:
            inputs[key] = list(value) if isinstance(value, tuple) else value
    result, note = _COMMANDS[request.command].build(params, inputs)
    code = 2 if result.get("ok") is False else 0  # a verify check found a counterexample
    return ReportDocument(request.command, inputs, result, note, __version__), code


def _cell(value: Any) -> str:
    if value is None:
        return "-"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return f"{value:.3f}"
    if isinstance(value, dict):
        return " ".join(f"{k}={_cell(v)}" for k, v in value.items())
    if isinstance(value, (list, tuple)):
        return ",".join(_cell(v) for v in value)
    return str(value)


def _records(value: Any) -> bool:
    return isinstance(value, list) and bool(value) and all(isinstance(v, dict) for v in value)


def _rows(record: dict) -> list[dict]:
    """The table rows of a record: one per entry of a list of records it
    holds, each with the record's other fields, or else the record itself."""
    for key, value in record.items():
        if _records(value):
            rest = {k: v for k, v in record.items() if k != key}
            return [{**rest, **entry} for entry in value]
    return [record]


def render_table(doc: ReportDocument) -> str:
    """Human-readable rendering of a report document, by one rule set for
    every subcommand: a list of records is a table headed by their keys,
    with one row per entry of a list of records a record holds; any other
    value is a ``key: value`` line, a list comma-joined, a record as
    ``k=v`` pairs, a float to 3 decimals."""
    lines = [f"command: {doc.command}"]
    for key, value in (*doc.inputs.items(), *doc.result.items()):
        if not _records(value):
            lines.append(f"{key}: {_cell(value)}")
            continue
        rows = [row for record in value for row in _rows(record)]
        header = list(dict.fromkeys(k for row in rows for k in row))
        cells = [header, *([_cell(row.get(k)) for k in header] for row in rows)]
        widths = [max(map(len, column)) for column in zip(*cells)]
        lines.append(f"{key}:")
        lines.extend("  " + "  ".join(c.ljust(w) for c, w in zip(row, widths)) for row in cells)
    lines.append(f"note: {doc.note}")
    return "\n".join(lines)


def main(argv: list[str] | None = None) -> int:
    args = sys.argv[1:] if argv is None else argv
    # Exact values may be longer than CPython's 4,300-digit limit on
    # int-to-str conversion (3.10.7 on); parsing keeps the limit.
    limit = getattr(sys, "get_int_max_str_digits", lambda: None)()
    try:
        request = parse_args(args)
        if limit is not None:
            sys.set_int_max_str_digits(0)
        doc, code = run(request)
        text = doc.to_json() if request.format == "json" else render_table(doc)
    except ValueError as exc:
        print(f"svreg: error: {exc}", file=sys.stderr)
        return 1
    except RuntimeError as exc:
        message = " ".join(str(exc).split())
        print(f"svreg: internal error: {message}", file=sys.stderr)
        return 3
    finally:
        if limit is not None:
            sys.set_int_max_str_digits(limit)
    try:
        print(text)
        sys.stdout.flush()  # so that a write error is raised here, not at exit
    except OSError as exc:
        # the interpreter flushes stdout again at exit: send what is left
        # to devnull, so that it fails no second time
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        if not isinstance(exc, BrokenPipeError):
            print(f"svreg: error: cannot write output: {exc}", file=sys.stderr)
        return 1
    return code


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
