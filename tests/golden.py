"""The golden CLI contract and its one runner, which needs no pytest.

The contract is the exit code, stdout and stderr of every subcommand in
table and JSON form, of ``--help``, ``--version`` and each subcommand's
``--help``, and of the usage errors, one flag at a time and in the
combinations that pin which of two errors is reported.  The recorded
outputs live in ``cli_golden.json``, and ``tests/test_cli_golden.py``
compares against them.

Running this file checks whichever svreg it imports against the contract,
on any interpreter, and records the outputs::

    PYTHONPATH=src python tests/golden.py

It rewrites ``cli_golden.json``, prints the argv of each case whose
recorded output changed, with the streams (code, stdout, stderr) that
differ, and exits 1 when any case changed.  Without ``PYTHONPATH`` it
checks the installed package.  On an interpreter below ``REQUIRES``,
pyproject's ``requires-python``, it exits 2 before it reads or writes
the file: argparse's help texts differ there.

Every case runs in one environment (``contract_env``).  Help texts are
rendered at ``COLUMNS=80`` so argparse wraps them the same way on every
terminal, and on every supported Python (3.10 to 3.13): the top-level
usage line is given explicitly, as argparse's wrapping of it changed in
3.13.  ``verify`` runs on one forked worker on small grids, and the
per-check timings it reports are masked.
"""
import contextlib
import io
import json
import os
import re
import sys
from unittest import mock

from svreg import cli, verify

GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "cli_golden.json")
REQUIRES = (3, 10)
SUBCOMMANDS = tuple(cli._COMMANDS)
BIG = str(2**63)  # one past the signed 64-bit range
E2 = ["--l=1,1", "--d=1,1"]
SMALL_VERIFY = ["--lmax=1", "--dmax=1", "--box=-2,2", "--r3-samples=10"]

# one valid invocation per subcommand first: its flags are varied below
VALID = [
    ["cohomology", "--l=1,2", "--a=-2,-4"],
    ["cohomology", "--l=3", "--a=100"],
    ["cohomology", "--l=1,1", "--d=2,3", "--a=0,-1"],
    ["regular", *E2, "--m=0,0", "--p=1,1"],
    ["regular", "--l=2,1", "--d=1,2", "--m=-2,3", "--p=1,-1"],
    ["oracle", *E2, "--m=0,0", "--p=0,0"],
    ["oracle", "--l=2,1", "--d=1,2", "--m=-2,3", "--p=1,-1"],
    ["member", *E2, "--m=5,5", "--p=-4,-5"],
    ["member", "--l=1,2,1", "--d=1,1,2", "--m=0,1,-1", "--p=2,0,0"],
    ["regset", *E2, "--m=5,5"],
    ["regset", "--l=1,2,1", "--d=1,1,2", "--m=0,1,-1", "--antichain"],
    ["reg", *E2, "--m=0,0"],
    ["reg", "--l=1,2,1", "--d=2,1,1", "--m=3,-1,0", "--explain"],
    ["segre2", "--dims=2,3", "--twist=0,0"],
    ["segre2", "--dims", "1,4", "--twist=-3,2"],
    ["lambda", "--l=1,2", "--d=1,1"],
    ["lambda", "--l=2,3", "--d=2,1"],
    ["subadd", *E2, "--m=0,0", "--m2=0,0"],
    ["subadd", "--l=1,2", "--d=2,1", "--m=-3,1", "--m2=2,-4"],
    ["subadd", *E2, "--m=0,0", "--m2=0,0", "--p=1,1", "--p2=0,1"],
    ["subadd", *E2, "--m=0,0", "--m2=0,0", "--p=0,0", "--p2=0,0"],
    ["subadd", "--l=2", "--d=3", "--m=-4", "--m2=5"],
    ["subadd", "--l=2", "--d=1", "--m=-1", "--m2=3", "--p=2", "--p2=-2"],
    ["subadd", "--l=1,2,1", "--d=1,1,2", "--m=0,1,-1", "--m2=2,-3,1"],
    ["subadd", "--l=1,2,1", "--d=1,1,2", "--m=0,1,-1", "--m2=2,-3,1", "--p=1,2,2", "--p2=0,3,7"],
    ["tate", *E2, "--m=0,0", "--pad=1"],
    ["tate", *E2, "--m=0,40", "--pad=0"],  # 41 columns, the longest window kept here
    ["tate", "--l=1,2", "--d=2,1", "--m=1,-1"],
    ["endpoints", *E2, "--m=0,2"],
    ["endpoints", "--l=2,1", "--d=1,2", "--m=3,-2"],
    ["verify", *SMALL_VERIFY],
    ["verify", "--checks=segre-r2,tate-endpoints", "--lmax=2", "--dmax=1", "--box=-1,1"],
    # every span one point: the box -1..-1 gives the r = 1 and r = 2
    # embeddings one pair each, and the 5 r = 3 samples the rest
    ["verify", "--checks=formula-vs-oracle,corner-membership", "--lmax=1", "--dmax=1", "--box=-1,-1",
     "--r3-samples=5"],
]

# two or more bad flags: the parent's validation order decides which is named
MULTI_ERRORS = [
    ["segre2", "--dims=1", "--twist=x"],
    ["segre2", "--dims=0,1", "--twist=1"],
    ["segre2", "--dims=1,2,3", "--twist=1"],
    ["verify", "--box=3,1", "--lmax=0", "--checks=nope"],
    ["verify", "--seed=x", "--r3-samples=-1"],
    ["verify", "--checks=nope", "--seed=-1"],
    ["verify", "--checks=nope", "--r3-samples=-1", "--dmax=0"],
    ["tate", *E2, "--m=0,x", "--pad=-1"],
    ["tate", *E2, "--m=0,0", "--pad=-1", "--caps", "subsets=0"],
    ["reg", *E2, "--m=0,x", "--caps", "nope=1"],
    ["reg", "--l=1,x", "--d=1", "--m=0"],
    ["reg", "--l=0,1", "--d=1", "--m=0"],
    ["subadd", *E2, "--m=0,x", "--m2=0,0", "--p=1,1"],
    ["subadd", *E2, "--m=0,0", "--m2=0,x", "--p=1,1"],
    ["regular", *E2, "--m=0,x", "--p=0"],
]


def _with(argv, flag, value):
    """``argv`` with ``--flag=value`` in place of ``flag``'s current value,
    or without the flag when ``value`` is None."""
    out = [arg for arg in argv if not arg.startswith(f"{flag}=")]
    return out if value is None else [*out, f"{flag}={value}"]


def _single_errors():
    out = [
        [],
        ["frobnicate"],
        ["--bogus"],
        ["--bogus", "reg", *E2, "--m=0,0"],
        # argparse would read these first entries as a positional, an option
        # and an option with its value
        ["-1"],
        ["-"],
        ["--bogus", "x"],
        ["reg", *E2, "--m=0,0", "--bogus"],
        ["reg", *E2, "--m=0,0", "--format=xml"],
        ["lambda", *E2, "--caps", "subsets=5"],
        ["reg", *E2, "--m=0,0", "--caps", "subsets=1"],
        ["regset", "--l=1,1,1", "--d=1,1,1", "--m=0,0,0", "--caps", "perms=2"],
        ["regset", *E2, "--m=5,5", "--antichain=yes"],
        ["reg", *E2, "--m=0,0", "--explain=1"],
    ]
    for name, command in cli._COMMANDS.items():
        flags = dict(command.flags)
        if "--l" not in flags:  # no embedding flags
            continue
        base = next(argv for argv in VALID if argv[0] == name)
        out.append(_with(base, "--l", None))
        if flags["--d"].get("required"):  # else --d defaults to ones
            out.append(_with(base, "--d", None))
        out += [_with(base, "--l", "1,x"), _with(base, "--l", BIG), _with(base, "--l", "1")]
        out += [_with(base, "--l", "0,1"), _with(base, "--d", "1,0"), _with(base, "--d", "1,1,1")]
        for flag, settings in command.flags:  # every list flag but the embedding's
            if settings.get("type") is cli._int_list and flag not in ("--l", "--d"):
                out += [_with(base, flag, value) for value in (None, "0,x", "0", f"0,{BIG}")]
    tate = next(argv for argv in VALID if argv[0] == "tate")
    out += [_with(tate, "--pad", value) for value in ("x", "-1", BIG)]
    segre2 = ["segre2", "--dims=2,3", "--twist=0,0"]
    out += [_with(segre2, "--dims", None), _with(segre2, "--twist", None)]
    for flag, value in (("--dims", "1"), ("--dims", "0,1"), ("--dims", "x"), ("--twist", "1,2,3"),
                        ("--twist", "x"), ("--twist", f"{BIG},0")):
        out.append(_with(segre2, flag, value))
    for flag, values in (
        ("--box", ("3,1", "1", "x", "1,2,3", f"-{2**63 + 1},0", f"{BIG},0")),
        ("--lmax", ("0", "x", BIG)),
        ("--dmax", ("0", "1.5")),
        ("--r3-samples", ("-1",)),
        ("--subadd-pairs", ("-1",)),  # removed flags, refused as unrecognized
        ("--pair-samples", ("-1",)),
        ("--seed", ("x", "-1", str(2**64))),
        ("--checks", ("nope", "nope,segre-r2,bad")),
    ):
        out += [["verify", f"{flag}={value}"] for value in values]
    return out


def cases():
    """Every argv of the contract, in the order of ``cli_golden.json``."""
    # argv that does not start with its subcommand: the help must still list
    # every subcommand, and any other first entry is refused by svreg
    out = [["--help"], ["--version"], ["-h", "reg"], ["--version", "reg"],
           ["--format=json", "reg", *E2, "--m=0,0"], ["--bogus", "reg"], ["x", "reg"]]
    out += [[name, "--help"] for name in SUBCOMMANDS]
    for argv in VALID:
        out += [argv, [*argv, "--format=json"]]
    return out + _single_errors() + MULTI_ERRORS


def _mask(argv, text):
    if argv[:1] != ["verify"]:
        return text
    text = re.sub(r'"elapsed_s":[0-9.e+-]+', '"elapsed_s":0', text)
    return re.sub(r"(?m)^(  \S+ +\d+ +\d+ +)\d+\.\d{3}", r"\1#.###", text)


def capture(argv):
    """[exit code, stdout, stderr] of one in-process ``svreg`` call."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(list(argv))
        except SystemExit as exc:  # --help and --version
            code = exc.code
    return [code, _mask(argv, out.getvalue()), _mask(argv, err.getvalue())]


@contextlib.contextmanager
def contract_env():
    """The environment every case is captured in: 80 columns, one worker."""
    with mock.patch.dict(os.environ, COLUMNS="80"), mock.patch.object(verify, "_available_cpus", lambda: 1):
        yield


def load():
    with open(GOLDEN, encoding="utf-8") as fh:
        return json.load(fh)


def main():
    """Record every case; returns 1 when the recorded outputs changed, and
    2, touching no file, on an interpreter below ``REQUIRES``."""
    if sys.version_info < REQUIRES:
        running, needed = ".".join(map(str, sys.version_info[:3])), ".".join(map(str, REQUIRES))
        print(f"golden.py: Python {running} is below requires-python >={needed}; nothing recorded", file=sys.stderr)
        return 2
    recorded = {tuple(record["argv"]): record for record in load()} if os.path.exists(GOLDEN) else {}
    with contract_env():
        records = [dict(zip(("argv", "code", "stdout", "stderr"), [argv, *capture(argv)]))
                   for argv in cases()]
    changed = 0
    for record in records:
        old = recorded.get(tuple(record["argv"]))
        streams = [key for key in ("code", "stdout", "stderr") if old is None or old[key] != record[key]]
        if streams:
            changed += 1
            print(f"{'new' if old is None else ','.join(streams)}: {json.dumps(record['argv'])}")
    for argv in recorded.keys() - {tuple(record["argv"]) for record in records}:  # cases no longer listed
        changed += 1
        print(f"removed: {json.dumps(list(argv))}")
    with open(GOLDEN, "w", encoding="utf-8") as fh:
        json.dump(records, fh, indent=1, ensure_ascii=False)
        fh.write("\n")
    print(f"wrote {len(records)} cases to {GOLDEN}, {changed} changed")
    return 1 if changed else 0


if __name__ == "__main__":
    sys.exit(main())
