"""Command line front end: one subcommand per operation.

Every invocation produces a single report document, rendered either as a
human-readable table (default) or as one line of JSON, so batch runs can
concatenate documents line by line.  The document echoes every flag the
subcommand declares, as argparse read it.  The table is rendered from the
document by one rule set, the same for every subcommand
(``render_table``).  Everything is exact; the only floats are the
per-check timings of ``verify``.  The values that grow fastest, a
cohomology dimension, table, Euler characteristic and ambient dimension
and a Tate rank, are serialized as decimal strings.
Every other integer is a JSON number, which can outgrow 64 bits as well
(a ``regset`` corner, a ``reg`` value on int64 inputs), so read it with
a parser that keeps integers exact.

This module only reads the flags and renders the library's answers.
argparse reads and converts every flag, from one list per subcommand
(``_COMMANDS``), and each flag that takes a value has a ``type`` that
reads it, so a badly written value is refused naming its flag
(``argument --m: expects a comma-separated integer list, got '0,x'``):
integers, list entries in signed 64 bits, ``segre2``'s two-entry pairs,
``--format`` and required flags.  One rule decides the first entry of
argv: a subcommand, ``-h``, ``--help`` or ``--version``; ``parse_args``
refuses any other in svreg's own words, before any parser is built, so
argparse never reads an unknown first entry.  The CLI keeps no limit of
its own and counts no vector's entries.  A value outside the domain of
the record or call it feeds (``SegreVeronese``, ``VerifyConfig``,
``run_checks``, ``tate_window``), a vector of the wrong length among
them, or over its cost limits, is refused by it before any work is done,
in its own words; ``subadd`` refuses a ``--p`` given without ``--p2`` or
the reverse.

Exit codes: 0 success, 1 a usage or input error, 2 a verification check
found a counterexample, 3 an internal error.  One rule tells 1 from 3:
a ``Refusal`` is a refusal, any other exception (a plain ValueError, or
any from a ``verify`` shard, among them) a library fault; each is one line
on stderr, a fault with its type.
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
from .cohomology import Refusal, SegreVeronese, product_cohomology
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
    # counterexamples, so surface parse problems as a Refusal instead.
    def error(self, message: str):
        raise Refusal(message)


def _int_list(text: str) -> tuple[int, ...]:
    try:
        values = tuple(int(part) for part in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"expects a comma-separated integer list, got {text!r}") from None
    for v in values:
        if not INT64_MIN <= v <= INT64_MAX:
            raise argparse.ArgumentTypeError(f"entry {v} is outside the signed 64-bit range")
    return values


def _int_pair(text: str) -> tuple[int, ...]:
    values = _int_list(text)
    if len(values) != 2:
        raise argparse.ArgumentTypeError(f"expects two comma-separated integers, got {text!r}")
    return values


def _format(text: str) -> str:
    if text not in ("table", "json"):
        raise argparse.ArgumentTypeError(f"expects table or json, got {text!r}")
    return text


def _check_names(text: str) -> list[str]:
    return [part.strip() for part in text.split(",") if part.strip()]


# Payload builders: each takes the parsed params and returns (result, note);
# the params themselves are echoed by ``run``.  They name library functions
# through this module's globals when they run, so a function patched here is
# the one called.


def _cohomology(params: dict) -> tuple[dict, str]:
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


def _regular(params: dict) -> tuple[dict, str]:
    regular = is_regular_formula(params["E"], params["m"], params["p"])
    return {"regular": regular}, "Theorem theo_Lreg"


def _oracle(params: dict) -> tuple[dict, str]:
    regular = is_regular_oracle(params["E"], params["m"], params["p"])
    return {"regular": regular}, "Definition Lregular, checked degree by degree"


def _member(params: dict) -> tuple[dict, str]:
    member = is_regular_formula(params["E"], params["m"], params["p"])
    return {"member": member}, "Proposition regset"


def _regset(params: dict) -> tuple[dict, str]:
    corners = regularity_corners(params["E"], params["m"])
    return {"corners": [c._asdict() for c in corners]}, "Proposition regset"


def _reg(params: dict) -> tuple[dict, str]:
    E, m = params["E"], params["m"]
    value = cm_regularity(E, m)
    result = {"value": value}
    if params["explain"]:
        result["subsets"] = [
            {"J": list(members), "l_J": lJ, "value": v, "max": v == value}
            for members, lJ, v in cm_regularity_breakdown(E, m)
        ]
    return result, "Theorem theo_reg"


def _segre2(params: dict) -> tuple[dict, str]:
    # reg on P^a x P^b under the Segre embedding: the parser reads two
    # entries of each flag, and SegreVeronese refuses dimensions below 1
    E = SegreVeronese(params["dims"], (1, 1))
    return _reg({"E": E, "m": params["twist"], "explain": False})


def _lambda(params: dict) -> tuple[dict, str]:
    E = params["E"]
    value = ideal_sheaf_bound(E)
    # case_split_value repeats value until the benchmark stops reading it
    result = {"value": value, "case_split_value": value, "reg_zero": cm_regularity(E, (0,) * E.r)}
    return result, "ideal sheaf bound lambda = n + 1 - min floor(l_k/d_k)"


def _subadd(params: dict) -> tuple[dict, str]:
    E, m, m2, p, p2 = params["E"], params["m"], params["m2"], params["p"], params["p2"]
    if (p is None) != (p2 is None):
        raise Refusal("--p and --p2 must be given together for the pair-level check")
    if p is not None:
        status = check_pair_subadditivity(E, m, p, m2, p2)
        return {"status": status}, "Theorem Lregadd"
    return check_subadditivity(E, m, m2)._asdict(), "Theorem Fmreg"


def _tate(params: dict) -> tuple[dict, str]:
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


def _endpoints(params: dict) -> tuple[dict, str]:
    E, m = params["E"], params["m"]
    hi, lo = cm_regularity(E, m), p_minus(E, m)
    result = {"p_plus": hi, "p_minus": lo, "length": hi - lo, "dual_twist": list(dual_twist(E, m))}
    if set(E.d) == {1} and len(set(E.l)) == 1:
        # balanced repeats the endpoints until the benchmark stops reading it
        result["balanced"] = {"p_plus": hi, "p_minus": lo}
    return result, "Tate endpoint theorem: p+ = reg(m), p- = -reg(dual twist)"


def _verify(params: dict) -> tuple[dict, str]:
    from . import verify  # loaded for ``svreg verify`` only

    names = params["checks"]
    # flags left out keep VerifyConfig's defaults, the reference grid
    fields = {k: v for k, v in params.items() if k != "checks" and v is not None}
    config = verify.VerifyConfig(**fields)
    results = verify.run_checks(config, names)
    result = {
        "grid": vars(config),
        "ok": all(res.ok for res in results),
        "checks": [res.as_dict() for res in results],
        "total_instances": sum(res.instances for res in results),
    }
    return result, "closed forms replayed against the brute-force cohomology oracle"


class _Command(NamedTuple):
    """One subcommand, described once: the parser, parse_args and run loop
    over these, so a new subcommand is one entry and its builder.  Its
    flags are (name, argparse keywords) in --help, parsing and echo order;
    each that takes a value has a ``type`` that reads it.  Every flag
    reaches the params and the echo as argparse read it, None when left out
    without a default; a subcommand with --l and --d gets the embedding
    they describe instead, echoed as l and d.  The builder takes the params
    alone and returns (result, note): the answer only, so ``verify``
    reports the grid it ran as ``result["grid"]``.  A rule that ties flags
    together lives in the builder of its subcommand."""

    help: str
    build: Callable[[dict], tuple[dict, str]]
    flags: tuple[tuple[str, dict[str, Any]], ...]


def _vectors(*names: str) -> tuple[tuple[str, dict[str, Any]], ...]:
    return tuple((f"--{name}", dict(type=_int_list, required=True)) for name in names)


_COMMANDS: dict[str, _Command] = {
    "cohomology": _Command(
        "cohomology profile of O(a)", _cohomology,
        (*_vectors("l"), ("--d", dict(type=_int_list, help="defaults to 1,...,1; sets only ambient_dim")),
         *_vectors("a")),
    ),
    "regular": _Command("closed-form test that O(m) is O(p)-regular", _regular, _vectors("l", "d", "m", "p")),
    "oracle": _Command(
        "brute-force cohomology test that O(m) is O(p)-regular", _oracle, _vectors("l", "d", "m", "p")
    ),
    "member": _Command(
        "regularity-set membership of p by the closed form", _member, _vectors("l", "d", "m", "p")
    ),
    "regset": _Command(
        "corners of the regularity set of O(m)", _regset,
        (*_vectors("l", "d", "m"),
         ("--antichain", dict(action="store_true", help="no effect: the corners always form an antichain"))),
    ),
    "reg": _Command(
        "Castelnuovo-Mumford regularity of the pushforward of O(m)", _reg,
        (*_vectors("l", "d", "m"), ("--explain", dict(action="store_true", help="print one row per subset J"))),
    ),
    "segre2": _Command(
        "Castelnuovo-Mumford regularity of O(k, l) under the Segre embedding of P^a x P^b", _segre2,
        (("--dims", dict(type=_int_pair, required=True, help="a,b: the two factor dimensions")),
         ("--twist", dict(type=_int_pair, required=True, help="k,l: the two twist entries"))),
    ),
    "lambda": _Command("regularity bound for the ideal sheaf of the image", _lambda, _vectors("l", "d")),
    "subadd": _Command(
        "subadditivity check; add --p/--p2 for the pair-level form", _subadd,
        (*_vectors("l", "d", "m", "m2"), *((f"--{name}", dict(type=_int_list)) for name in ("p", "p2"))),
    ),
    "tate": _Command(
        "Tate resolution columns around the interesting window", _tate,
        (*_vectors("l", "d", "m"), ("--pad", dict(type=int, default=2))),
    ),
    "endpoints": _Command("window endpoints p+ and p-", _endpoints, _vectors("l", "d", "m")),
    "verify": _Command(
        "replay the closed forms against the cohomology oracle", _verify,
        (("--box", dict(type=_int_list)),
         *((name, dict(type=int)) for name in ("--lmax", "--dmax", "--r3-samples", "--seed")),
         ("--checks", dict(type=_check_names, help="comma list; default: all"))),
    ),
}


def _build_parser(invoked: str | None) -> _Parser:
    """The parser of an argv that starts with ``invoked``: that subcommand
    alone when it is one, as on every one-shot call, else every subcommand
    with all its flags.  ``parse_args`` admits no other first entry than
    a subcommand, ``-h``, ``--help`` or ``--version``, so the second form
    serves only the top-level help, the version and the empty argv."""
    parser = _Parser(
        prog="svreg",
        usage=f"%(prog)s [-h] [--version] {{{','.join(_COMMANDS)}}} ...",
        description=(
            "Exact regularity, cohomology and Tate-resolution windows for "
            "line bundles on products of projective spaces under a "
            "Segre-Veronese embedding.  Write negative lists in the "
            "--flag=-1,2 form."
        ),
    )
    parser.add_argument("--version", action="version", version=f"svreg {__version__}")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser, prog="svreg")
    for name, command in _COMMANDS.items():
        if invoked in _COMMANDS and name != invoked:
            continue
        p = sub.add_parser(name, help=command.help, description=command.help)
        p.add_argument("--format", type=_format, default="table", metavar="{table,json}")
        for flag, settings in command.flags:
            p.add_argument(flag, **settings)
    return parser


def parse_args(argv: list[str]) -> CliRequest:
    """Read argv into a CliRequest; raises Refusal naming an unknown
    subcommand, or the flag that is missing or badly written.  A non-empty
    argv must start with a subcommand or with ``-h``, ``--help`` or
    ``--version``, which print and exit 0; any other first entry, an
    option, ``-`` or a negative number among them, is refused as an
    unknown subcommand before any parser is built.  A value outside the
    domain of a record or library call is refused by it, with a Refusal
    too: by SegreVeronese here, by the others (segre2's SegreVeronese,
    VerifyConfig, run_checks) when the payload builders run.  ``verify``
    builds its config before it runs the checks, so a bad grid is reported
    before a bad check name."""
    if argv and argv[0] not in _COMMANDS and argv[0] not in ("-h", "--help", "--version"):
        raise Refusal(f"unknown subcommand {argv[0]!r}; available: {', '.join(_COMMANDS)}")
    ns = vars(_build_parser(argv[0] if argv else None).parse_args(argv))
    dests = (flag[2:].replace("-", "_") for flag, _ in _COMMANDS[ns["command"]].flags)
    params = {dest: ns[dest] for dest in dests}
    if "l" in params:
        l, d = params.pop("l"), params.pop("d")
        params = {"E": SegreVeronese(l, (1,) * len(l) if d is None else d), **params}
    return CliRequest(ns["command"], ns["format"], params)


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
    result, note = _COMMANDS[request.command].build(params)
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
    every subcommand: the echoed inputs are one ``inputs:`` record line,
    so no input shares a label with a result key.  In the result, a list
    of records is a table headed by their keys, with one row per entry of
    a list of records a record holds; any other value is a ``key: value``
    line, a list comma-joined, a record as ``k=v`` pairs, a float to 3
    decimals."""
    lines = [f"command: {doc.command}", f"inputs: {_cell(doc.inputs)}"]
    for key, value in doc.result.items():
        if not _records(value):
            lines.append(f"{key}: {_cell(value)}")
            continue
        rows = [row for record in value for row in _rows(record)]
        header = list(dict.fromkeys(k for row in rows for k in row))
        cells = [header, *([_cell(row.get(k)) for k in header] for row in rows)]
        widths = [max(map(len, column)) for column in zip(*cells)]
        lines.append(f"{key}:")
        lines.extend(("  " + "  ".join(c.ljust(w) for c, w in zip(row, widths))).rstrip() for row in cells)
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
    except Refusal as exc:
        print(f"svreg: error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:
        message = " ".join(f"{type(exc).__name__}: {exc}".split())
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
        os.close(devnull)
        if not isinstance(exc, BrokenPipeError):
            print(f"svreg: error: cannot write output: {exc}", file=sys.stderr)
        return 1
    return code


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
