"""CLI tests: parsing, exit codes, document shape and output stability."""
import argparse
import json
import math
import os
import re
import subprocess
import sys
import time
from types import SimpleNamespace

import pytest

from svreg import cli
from svreg import cohomology, regularity, tate, verify
from conftest import SRC, names_started, refuse_to_start


# a library function each subcommand calls, and an invocation that calls it;
# member calls the function regular does and segre2 the one reg does, and
# each goes by its command
LIBRARY_CALLS = [
    ("product_cohomology", ["cohomology", "--l=1,1", "--a=0,0"]),
    ("is_regular_formula", ["regular", "--l=1,1", "--d=1,1", "--m=0,0", "--p=0,0"]),
    ("is_regular_oracle", ["oracle", "--l=1,1", "--d=1,1", "--m=0,0", "--p=0,0"]),
    ("is_regular_formula", ["member", "--l=1,1", "--d=1,1", "--m=0,0", "--p=0,0"]),
    ("regularity_corners", ["regset", "--l=1,1", "--d=1,1", "--m=0,0"]),
    ("cm_regularity", ["reg", "--l=1,1", "--d=1,1", "--m=0,0"]),
    ("cm_regularity", ["segre2", "--dims=2,3", "--twist=0,0"]),
    ("ideal_sheaf_bound", ["lambda", "--l=1,1", "--d=1,1"]),
    ("check_subadditivity", ["subadd", "--l=1,1", "--d=1,1", "--m=0,0", "--m2=0,0"]),
    (
        "check_pair_subadditivity",
        ["subadd", "--l=1,1", "--d=1,1", "--m=0,0", "--m2=0,0", "--p=1,1", "--p2=0,1"],
    ),
    ("tate_window", ["tate", "--l=1,1", "--d=1,1", "--m=0,0"]),
    ("p_minus", ["endpoints", "--l=1,1", "--d=1,1", "--m=0,2"]),
]

# a one-line answer, and a 5,000-column window larger than any pipe buffer
WRITES = [["reg", "--l=1,1", "--d=1,1", "--m=0,0"], ["tate", "--l=1,1", "--d=1,1", "--m=0,4995", "--format=json"]]


def run_cli(argv, capsys):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestParseArgs:
    def test_reg_request(self):
        request = cli.parse_args(["reg", "--l", "1,1", "--d", "1,1", "--m", "0,0"])
        assert request.command == "reg"
        assert request.params["E"].l == (1, 1)
        assert request.params["m"] == (0, 0)

    def test_tate_request(self):
        request = cli.parse_args(
            ["tate", "--l", "1,1", "--d", "1,1", "--m", "0,0", "--pad", "1"]
        )
        assert request.command == "tate"
        assert request.params["pad"] == 1

    def test_length_mismatch_rejected(self):
        # refused by SegreVeronese, which main maps to exit 1
        with pytest.raises(ValueError, match="^l has 2 entries but d has 1$"):
            cli.parse_args(["reg", "--l", "1,1", "--d", "1", "--m", "0,0"])

    def test_malformed_list_rejected(self):
        with pytest.raises(ValueError, match="--m"):
            cli.parse_args(["reg", "--l", "1,1", "--d", "1,1", "--m", "0,x"])

    def test_int64_range_enforced(self):
        big = str(2**63)
        with pytest.raises(ValueError, match="64-bit"):
            cli.parse_args(["reg", "--l", "1,1", "--d", "1,1", "--m", f"0,{big}"])

    def test_unknown_subcommand_rejected(self, monkeypatch, capsys):
        # in svreg's words, whatever the interpreter's argparse prints, and
        # before any parser is built: any first entry but a subcommand, -h,
        # --help and --version, whether argparse would read it as a
        # positional (-1, -), an option or an abbreviation of one (--vers)
        monkeypatch.setattr(cli, "_build_parser", None)
        available = ", ".join(cli._COMMANDS)
        reg = ["reg", "--l=1,1", "--d=1,1", "--m=0,0"]
        for argv in (["frobnicate"], ["x", "reg"], ["-1"], ["-"], ["--bogus"], ["--bogus", "x"], ["--vers"],
                     ["--format=json", *reg]):
            message = f"unknown subcommand '{argv[0]}'; available: {available}"
            with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
                cli.parse_args(argv)
        # help and the version still reach argparse, whatever follows them
        monkeypatch.undo()
        for argv, printed in ((["-h", "reg"], "usage: svreg [-h] [--version] {"), (["--version", "reg"], "svreg ")):
            with pytest.raises(SystemExit) as exc:
                cli.parse_args(argv)
            assert exc.value.code == 0
            assert capsys.readouterr().out.startswith(printed)

    def test_caps_flag_is_gone(self):
        # and so are verify's sample counts of the subadditivity checks
        for argv, unrecognized in (
            (["reg", "--l", "1,1", "--d", "1,1", "--m", "0,0", "--caps", "subsets=5"], "--caps subsets=5"),
            (["verify", "--subadd-pairs=10"], "--subadd-pairs=10"),
            (["verify", "--pair-samples=5"], "--pair-samples=5"),
        ):
            with pytest.raises(ValueError, match=f"^unrecognized arguments: {unrecognized}$"):
                cli.parse_args(argv)

    def test_every_flag_that_takes_a_value_has_a_type(self):
        # argparse converts every value, so no payload builder reads a raw
        # string; read off the parser, so that --format, which every
        # subcommand gets outside _COMMANDS, is held to it too
        (sub,) = [a for a in cli._build_parser(None)._actions if isinstance(a, argparse._SubParsersAction)]
        valued = [
            (name, action)
            for name, parser in sub.choices.items()
            for action in parser._actions
            if action.option_strings and action.nargs != 0
        ]
        assert [f"{name} {a.option_strings[0]}" for name, a in valued if not callable(a.type)] == []
        assert sum(a.option_strings == ["--format"] for _, a in valued) == len(cli._COMMANDS)

    def test_negative_entries_with_equals_form(self):
        request = cli.parse_args(["member", "--l=1,1", "--d=1,1", "--m=-2,3", "--p=-1,-1"])
        assert request.params["m"] == (-2, 3)
        assert request.params["p"] == (-1, -1)


class TestRun:
    def test_reg_document(self):
        doc, code = cli.run(cli.parse_args(["reg", "--l", "1,1", "--d", "1,1", "--m", "0,0"]))
        assert code == 0
        assert doc.result["value"] == 1
        assert doc.note == "Theorem theo_reg"

    def test_reg_explain_marks_max_subset(self):
        doc, _ = cli.run(
            cli.parse_args(["reg", "--l", "1,1", "--d", "1,1", "--m", "0,0", "--explain"])
        )
        starred = [row for row in doc.result["subsets"] if row["max"]]
        assert starred == [{"J": [0, 1], "l_J": 2, "value": 1, "max": True}]

    def test_regular_and_oracle_agree(self):
        for command in ("regular", "oracle"):
            doc, code = cli.run(
                cli.parse_args([command, "--l=1,1", "--d=1,1", "--m=0,0", "--p=0,0"])
            )
            assert code == 0
            assert doc.result["regular"] is False

    def test_cohomology_defaults_d_to_ones(self):
        doc, _ = cli.run(cli.parse_args(["cohomology", "--l=1,2", "--a=-2,-4"]))
        assert doc.inputs["d"] == [1, 1]
        assert doc.result["degree"] == 3
        assert doc.result["dimension"] == "3"
        assert doc.result["table"] == ["0", "0", "0", "3"]

    def test_big_values_serialized_as_strings(self):
        doc, _ = cli.run(cli.parse_args(["cohomology", "--l=3", "--a=100"]))
        assert doc.result["dimension"] == str(103 * 102 * 101 // 6)

    def test_subadd_report(self):
        doc, code = cli.run(
            cli.parse_args(["subadd", "--l=1,1", "--d=1,1", "--m=0,0", "--m2=0,0"])
        )
        assert code == 0
        assert doc.result == {"reg_m": 1, "reg_m2": 1, "reg_sum": 1, "holds": True}

    def test_subadd_pair_mode(self):
        doc, _ = cli.run(
            cli.parse_args(
                ["subadd", "--l=1,1", "--d=1,1", "--m=0,0", "--m2=0,0", "--p=1,1", "--p2=0,1"]
            )
        )
        assert doc.result == {"status": "holds"}
        assert doc.note == "Theorem Lregadd"

    def test_segre2(self):
        doc, _ = cli.run(cli.parse_args(["segre2", "--dims=2,3", "--twist=0,0"]))
        assert doc.result["value"] == 2

    def test_lambda(self):
        # case_split_value repeats the one value the library computes
        doc, _ = cli.run(cli.parse_args(["lambda", "--l=1,2", "--d=1,1"]))
        assert doc.result == {"value": 3, "case_split_value": 3, "reg_zero": 1}

    def test_endpoints_with_balanced_cross_check(self):
        # on a balanced embedding, balanced repeats the endpoints
        doc, _ = cli.run(cli.parse_args(["endpoints", "--l=1,1", "--d=1,1", "--m=0,2"]))
        assert doc.result["p_plus"] == 0
        assert doc.result["p_minus"] == -2
        assert doc.result["balanced"] == {"p_plus": 0, "p_minus": -2}
        doc, _ = cli.run(cli.parse_args(["endpoints", "--l=2,2,2", "--d=1,1,1", "--m=-3,0,2"]))
        assert doc.result["balanced"] == {"p_plus": doc.result["p_plus"], "p_minus": doc.result["p_minus"]}

    def test_endpoints_skips_balanced_when_inapplicable(self):
        # l not constant, d not all 1, and both
        for l, d, m in (("1,2", "1,1", "0,0"), ("1,1", "1,2", "0,0"), ("2", "3", "0")):
            doc, _ = cli.run(cli.parse_args(["endpoints", f"--l={l}", f"--d={d}", f"--m={m}"]))
            assert "balanced" not in doc.result

    @pytest.mark.parametrize(
        "command, vectors",
        [("reg", ("m",)), ("regular", ("m", "p")), ("member", ("m", "p")), ("endpoints", ("m",)),
         ("subadd", ("m", "m2")), ("subadd", ("m", "m2", "p", "p2"))],
    )
    def test_wide_r_answers_at_once(self, capsys, command, vectors):
        # 2^26 - 1 subsets and 26! permutations; the sorted form reads 26 prefixes
        ones = ",".join(["1"] * 26)
        argv = [command, f"--l={ones}", f"--d={ones}", *(f"--{v}={ones}" for v in vectors), "--format=json"]
        started = time.perf_counter()
        code, out, _ = run_cli(argv, capsys)
        assert time.perf_counter() - started < 1
        assert code == 0
        assert json.loads(out)["result"]


class TestMain:
    def test_exit_zero_and_value(self, capsys):
        code, out, _ = run_cli(
            ["reg", "--l", "1,1", "--d", "1,1", "--m", "0,0", "--format", "json"], capsys
        )
        assert code == 0
        assert json.loads(out)["result"]["value"] == 1

    def test_cohomology_makes_one_kunneth_call(self, capsys, monkeypatch):
        # chi is read off the profile the payload already holds
        calls = []
        real = cohomology._kunneth
        monkeypatch.setattr(cohomology, "_kunneth", lambda l, a: calls.append(a) or real(l, a))
        code, out, _ = run_cli(["cohomology", "--l=1,2", "--a=-2,-4", "--format=json"], capsys)
        assert (code, json.loads(out)["result"]["euler_characteristic"]) == (0, "-3")
        assert len(calls) == 1

    def test_integers_past_64_bits_read_back_exactly(self, capsys):
        # only the cohomology and Tate values that grow fastest are strings;
        # these are JSON numbers past 64 bits, exact for an exact parser
        E = cohomology.SegreVeronese((2, 1), (2**63 - 1, 1))
        code, out, _ = run_cli(["regset", "--l=2,1", f"--d={2**63 - 1},1", "--m=0,0", "--format=json"], capsys)
        corners = [c["corner"] for c in json.loads(out)["result"]["corners"]]
        assert code == 0 and corners == [list(c.corner) for c in regularity.regularity_corners(E, (0, 0))]
        assert corners[0][0] == 27670116110564327419
        big, low = 2**63 - 1, -(2**63)
        E = cohomology.SegreVeronese((big, big), (1, 1))
        code, out, _ = run_cli(["reg", f"--l={big},{big}", "--d=1,1", f"--m={low},{low}", "--format=json"], capsys)
        value = json.loads(out)["result"]["value"]
        assert code == 0 and value == regularity.cm_regularity(E, (low, low)) == 18446744073709551615

    @pytest.mark.parametrize(
        "a, b, k, l",
        [
            (1, 1, 0, 0),
            (2, 3, 0, 0),
            (1, 4, -3, 2),
            (3, 1, 5, -7),
            (2**63 - 1, 2**63 - 1, -(2**63), -(2**63)),
            (1, 2**63 - 1, 2**63 - 1, -(2**63)),
            (2**63 - 1, 1, 2**63 - 1, 2**63 - 1),
        ],
    )
    def test_segre2_is_reg_on_two_factors(self, capsys, a, b, k, l):
        # the same answer and note as reg on P^a x P^b, and the formula's
        results = []
        for argv in (["segre2", f"--dims={a},{b}", f"--twist={k},{l}"], ["reg", f"--l={a},{b}", "--d=1,1", f"--m={k},{l}"]):
            code, out, _ = run_cli([*argv, "--format=json"], capsys)
            doc = json.loads(out)
            assert code == 0
            results.append((doc["result"], doc["note"]))
        assert results[0] == results[1] == ({"value": verify._segre_regularity(a, b, k, l)}, "Theorem theo_reg")

    def test_segre2_dimensions_are_refused_by_the_embedding(self, capsys):
        code, out, err = run_cli(["segre2", "--dims=0,1", "--twist=0,0"], capsys)
        assert (code, out) == (1, "")
        assert err == "svreg: error: factor dimensions must all be >= 1, got l=(0, 1)\n"

    @pytest.mark.parametrize("given", ["--p=1,1", "--p2=0,1"])
    def test_subadd_pair_flags_go_together_before_any_work(self, capsys, monkeypatch, given):
        def refuse(*args):
            raise AssertionError("a subadditivity check ran")

        monkeypatch.setattr(cli, "check_pair_subadditivity", refuse)
        monkeypatch.setattr(cli, "check_subadditivity", refuse)
        code, out, err = run_cli(["subadd", "--l=1,1", "--d=1,1", "--m=0,0", "--m2=0,0", given], capsys)
        assert (code, out) == (1, "")
        assert err == "svreg: error: --p and --p2 must be given together for the pair-level check\n"

    def test_usage_error_exit_one(self, capsys):
        code, _, err = run_cli(["reg", "--l", "1,1", "--d", "1"], capsys)
        assert code == 1
        assert "error" in err

    def test_json_output_is_one_line(self, capsys):
        _, out, _ = run_cli(
            ["tate", "--l=1,1", "--d=1,1", "--m=0,0", "--format", "json"], capsys
        )
        assert out.count("\n") == 1

    def test_json_output_is_stable(self, capsys):
        argv = ["regset", "--l=1,1", "--d=1,1", "--m=5,5", "--format", "json"]
        _, first, _ = run_cli(argv, capsys)
        _, second, _ = run_cli(argv, capsys)
        assert first == second

    def test_json_round_trips(self, capsys):
        _, out, _ = run_cli(
            ["endpoints", "--l=2,1", "--d=1,2", "--m=3,-2", "--format", "json"], capsys
        )
        document = json.loads(out)
        assert json.dumps(document, sort_keys=True, separators=(",", ":")) == out.strip()

    def test_table_output_mentions_note(self, capsys):
        _, out, _ = run_cli(["reg", "--l", "1,1", "--d", "1,1", "--m", "0,0"], capsys)
        assert "value: 1" in out
        assert "note: Theorem theo_reg" in out

    @pytest.mark.parametrize("argv", WRITES, ids=["short", "long"])
    def test_closed_pipe_exits_one_quietly(self, argv):
        read, write = os.pipe()
        os.close(read)  # the reader has gone before the first write
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "svreg.cli", *argv],
                stdout=write,
                stderr=subprocess.PIPE,
                text=True,
                env={**os.environ, "PYTHONPATH": SRC},
            )
        finally:
            os.close(write)
        assert (proc.returncode, proc.stderr) == (1, "")

    @pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="needs /proc/self/fd")
    def test_failed_write_leaks_no_descriptor(self, monkeypatch):
        # main sends what is left of stdout to devnull, and closes the
        # descriptor it opened for that: in-process calls keep none open
        before = len(os.listdir("/proc/self/fd"))
        for _ in range(3):
            read, write = os.pipe()
            os.close(read)
            with open(write, "w") as stdout:
                monkeypatch.setattr(sys, "stdout", stdout)
                assert cli.main(WRITES[0]) == 1
                monkeypatch.undo()
        assert len(os.listdir("/proc/self/fd")) == before

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs the /dev/full device")
    @pytest.mark.parametrize("argv", WRITES, ids=["short", "long"])
    def test_unwritable_output_is_one_error_line(self, argv):
        with open("/dev/full", "w") as full:
            proc = subprocess.run(
                [sys.executable, "-m", "svreg.cli", *argv],
                stdout=full,
                stderr=subprocess.PIPE,
                text=True,
                env={**os.environ, "PYTHONPATH": SRC},
            )
        assert proc.returncode == 1
        assert proc.stderr == "svreg: error: cannot write output: [Errno 28] No space left on device\n"

    def test_verify_small_grid_exit_zero(self, capsys):
        code, out, _ = run_cli(
            [
                "verify",
                "--lmax=1",
                "--dmax=1",
                "--box=-2,2",
                "--r3-samples=10",
                "--format=json",
            ],
            capsys,
        )
        assert code == 0
        document = json.loads(out)
        assert document["result"]["ok"] is True
        assert all(c["failures"] == 0 for c in document["result"]["checks"])

    def test_verify_selected_checks_only(self, capsys):
        code, out, _ = run_cli(
            [
                "verify",
                "--checks=segre-r2",
                "--lmax=1",
                "--dmax=1",
                "--box=-1,1",
                "--format=json",
            ],
            capsys,
        )
        assert code == 0
        checks = json.loads(out)["result"]["checks"]
        assert [c["name"] for c in checks] == ["segre-r2"]

    def test_verify_unknown_check_rejected(self, capsys):
        code, _, err = run_cli(["verify", "--checks=nope"], capsys)
        assert code == 1
        assert "nope" in err

    def test_verify_counterexample_exit_two(self, capsys, monkeypatch):
        # sabotage the closed form on one input; verify must catch it,
        # serialize the smallest counterexample and exit 2
        real = regularity.is_regular_formula
        target = ((1,), (1,), (-2,), (-2,))

        def broken(E, m, p):
            if (E.l, E.d, tuple(m), tuple(p)) == target:
                return not real(E, m, p)
            return real(E, m, p)

        monkeypatch.setattr(regularity, "is_regular_formula", broken)
        code, out, _ = run_cli(
            [
                "verify",
                "--checks=formula-vs-oracle",
                "--lmax=1",
                "--dmax=1",
                "--box=-2,2",
                "--r3-samples=0",
                "--format=json",
            ],
            capsys,
        )
        assert code == 2
        document = json.loads(out)
        check = document["result"]["checks"][0]
        assert check["failures"] == 1
        assert check["counterexample"] == {
            "l": [1],
            "d": [1],
            "m": [-2],
            "p": [-2],
            "formula": True,
            "oracle": False,
        }

    def test_verify_table_shows_each_counterexample_on_its_row(self, capsys, monkeypatch):
        # both pair checks fail on the same planted pair; each row carries it
        real = regularity.is_regular_formula
        target = ((1,), (1,), (-2,), (-2,))

        def broken(E, m, p):
            value = real(E, m, p)
            return not value if (E.l, E.d, tuple(m), tuple(p)) == target else value

        monkeypatch.setattr(regularity, "is_regular_formula", broken)
        argv = ["verify", "--checks=formula-vs-oracle,corner-membership,segre-r2", "--lmax=1", "--dmax=1"]
        code, out, _ = run_cli([*argv, "--box=-2,2", "--r3-samples=0"], capsys)
        assert code == 2
        rows = {line.split()[0]: line.rstrip() for line in out.splitlines() if line.startswith("  ")}
        assert rows["formula-vs-oracle"].endswith("l=1 d=1 m=-2 p=-2 formula=true oracle=false")
        assert rows["corner-membership"].endswith("l=1 d=1 m=-2 p=-2 formula=true corners=false")
        assert rows["segre-r2"].endswith(" -")

    @pytest.mark.parametrize("cpus", [1, 2])
    @pytest.mark.parametrize(
        "plant, checks, message",
        [
            ("dimension", "cohomology", "cohomology failed on shard (1,): dimension must be >= 1, got 0"),
            ("dual-twist", "tate-endpoints", "tate-endpoints failed on shard None: m has 2 entries, expected 1"),
            ("index", "formula-vs-oracle", "formula-vs-oracle failed on shard SegreVeronese(l=(1,), d=(1,)): planted"),
        ],
    )
    def test_library_value_error_in_a_shard_exit_three(self, capsys, monkeypatch, plant, checks, message, cpus):
        # VerifyConfig and run_checks refuse every bad input before a shard
        # starts, so a ValueError a shard raises is the library's fault, and
        # so is any other exception: the line names its type and the shard
        if plant == "index":

            def broken(*args):
                raise IndexError("planted")

            monkeypatch.setattr(regularity, "is_regular_formula", broken)
        elif plant == "dimension":
            real = cohomology._kunneth

            def zero(l, a):
                l, a = tuple(l), tuple(a)
                found = real(l, a)
                return (found[0], 0) if (l, a) == ((1,), (2,)) else found

            monkeypatch.setattr(cohomology, "_kunneth", zero)
        else:
            real = tate.dual_twist

            def longer(E, m):
                return real(E, m) + ((0,) if tuple(m) == (0,) else ())

            monkeypatch.setattr(tate, "dual_twist", longer)
        monkeypatch.setattr(verify, "_available_cpus", lambda: cpus)
        argv = ["verify", f"--checks={checks}", "--lmax=1", "--dmax=1", "--box=-2,2", "--r3-samples=0"]
        code, out, err = run_cli(argv, capsys)
        shard, _, what = message.partition(": ")
        kind = "IndexError" if plant == "index" else "ValueError"
        assert (code, out, err) == (3, "", f"svreg: internal error: RuntimeError: {shard}: {kind}: {what}\n")

    @pytest.mark.parametrize(
        "name, argv",
        LIBRARY_CALLS,
        ids=[argv[0] if argv[0] in ("member", "segre2") else name for name, argv in LIBRARY_CALLS],
    )
    def test_internal_error_exit_three(self, capsys, monkeypatch, name, argv):
        # each subcommand calls its library function through the cli module
        # when it runs, so the function patched there is the one that raises;
        # any exception but a Refusal is an internal error, named by type
        for kind in (RuntimeError, IndexError):

            def broken(*args):
                raise kind("routes disagree\non two lines")

            monkeypatch.setattr(cli, name, broken)
            code, out, err = run_cli(argv, capsys)
            assert (code, out) == (3, "")
            assert err == f"svreg: internal error: {kind.__name__}: routes disagree on two lines\n"

    @pytest.mark.parametrize(
        "name, argv",
        LIBRARY_CALLS,
        ids=[argv[0] if argv[0] in ("member", "segre2") else name for name, argv in LIBRARY_CALLS],
    )
    def test_value_error_mid_call_exit_three(self, capsys, monkeypatch, name, argv):
        # a ValueError that is no Refusal, raised after the call has begun
        # its work, is a library fault and not a usage error
        def planted(*args):
            raise ValueError("planted mid-call")

        monkeypatch.setattr(cli, name, planted)
        code, out, err = run_cli(argv, capsys)
        assert (code, out, err) == (3, "", "svreg: internal error: ValueError: planted mid-call\n")

    @pytest.mark.parametrize("flags", [[f"--m=0,{2**63 - 1}"], ["--m=0,0", f"--pad={2**63 - 1}"]])
    def test_tate_window_over_limit_exit_one(self, capsys, flags):
        code, out, err = run_cli(["tate", "--l=1,1", "--d=1,1", *flags], capsys)
        assert (code, out) == (1, "")
        assert err.startswith("svreg: error: the window has ")
        assert err.endswith(f" columns, over the limit of {tate._MAX_COLUMNS}\n")

    def test_tate_window_limit_is_inclusive(self, capsys, kunneth_calls):
        # on P^1 x P^1, m = (0, M) has p+ - p- = M: M + 2 pad + 1 columns
        limit = tate._MAX_COLUMNS
        doc, _ = cli.run(cli.parse_args(["tate", "--l=1,1", "--d=1,1", f"--m=0,{limit - 5}", "--pad=2"]))
        assert len(doc.result["terms"]) == limit
        kunneth_calls.clear()
        code, out, err = run_cli(["tate", "--l=1,1", "--d=1,1", f"--m=0,{limit - 4}", "--pad=2"], capsys)
        assert (code, out, kunneth_calls) == (1, "", [])
        assert err == f"svreg: error: the window has {limit + 1} columns, over the limit of {limit}\n"

    @pytest.mark.parametrize(
        "argv",
        [
            ["tate", "--l=1000000000", "--d=1", "--m=0", "--pad=0"],
            ["tate", f"--l={','.join(['1'] * 2000)}", f"--d={','.join(['1'] * 2000)}", f"--m={','.join(['0'] * 2000)}"],
        ],
    )
    def test_tate_work_over_limit_exit_one(self, capsys, argv):
        started = time.perf_counter()
        code, out, err = run_cli(argv, capsys)
        assert time.perf_counter() - started < 1
        assert (code, out) == (1, "")
        assert err.startswith("svreg: error: the window takes ")
        assert err.endswith(f" factor steps, over the limit of {tate._MAX_WORK}\n")

    def test_tate_work_limit_is_inclusive(self, capsys, kunneth_calls):
        # on (P^1)^64, m = 0 has p+ - p- = 64: 65 + 2 pad columns and 64
        # more twists, 64 factor steps each; far under the other limits
        limit = tate._MAX_WORK
        pad = (limit // 64 - 129) // 2
        ones, zeros = ",".join(["1"] * 64), ",".join(["0"] * 64)
        flags = ["tate", f"--l={ones}", f"--d={ones}", f"--m={zeros}"]
        doc, _ = cli.run(cli.parse_args([*flags, f"--pad={pad}"]))
        assert (len(doc.result["terms"]) + 64) * 64 == limit
        kunneth_calls.clear()
        code, out, err = run_cli([*flags, f"--pad={pad + 1}"], capsys)
        assert (code, out, kunneth_calls) == (1, "", [])
        assert err == f"svreg: error: the window takes {limit + 128} factor steps, over the limit of {limit}\n"

    def test_tate_digits_over_limit_exit_one(self, capsys):
        # 1,008 columns and 1,998 factor steps, both under their limits,
        # but 37 MB of digits in the ranks
        started = time.perf_counter()
        code, out, err = run_cli(["tate", "--l=990", f"--d={2**63 - 1}", "--m=0", "--pad=8"], capsys)
        assert time.perf_counter() - started < 1
        assert (code, out) == (1, "")
        assert err == f"svreg: error: the window's ranks take up to 947788063200 squared digits, over the limit of {tate._MAX_DIGIT_WORK}\n"

    @pytest.mark.parametrize("l", [[650], [1] * 650, [65] * 10], ids=["P650", "P1^650", "P65^10"])
    def test_tate_few_long_ranks_refused_at_once(self, capsys, l):
        # 748 columns of ranks up to 14,300 digits long: 2 * 10^7 digits in
        # all, but building and printing them took 5.5 to 8.1 s on one core
        r = len(l)
        argv = ["tate", f"--l={','.join(map(str, l))}", f"--d={','.join([str(2**63 - 1)] * r)}", f"--m={','.join(['0'] * r)}", "--pad=48"]
        started = time.perf_counter()
        code, out, err = run_cli(argv, capsys)
        assert time.perf_counter() - started < 1
        assert (code, out) == (1, "")
        assert err == f"svreg: error: the window's ranks take up to 285877020000 squared digits, over the limit of {tate._MAX_DIGIT_WORK}\n"

    @pytest.mark.parametrize(
        "argv",
        [
            ["--l=1,1", "--d=1,1", "--m=0,99999", "--pad=0"],  # 100,000 columns
            ["--l=19", "--d=1", "--m=0", "--pad=24999"],  # 50,000 columns
            ["--l=100", "--d=1000000", "--m=0", "--pad=4899"],  # 9,900 columns, bound at 10^10
            # 5,911 columns at the step limit, bound at 5.995 * 10^10
            [f"--l={','.join(['5'] * 150)}", f"--d={','.join(['3'] * 150)}", f"--m={','.join(['0'] * 150)}", "--pad=2580"],
        ],
    )
    def test_tate_digits_limit_admits_the_largest_windows(self, kunneth_calls, argv):
        doc, _ = cli.run(cli.parse_args(["tate", *argv]))
        result = doc.result
        assert len(result["terms"]) == result["length"] + 2 * doc.inputs["pad"] + 1

    def test_tate_negative_pad_is_reported_before_the_window_limits(self, capsys):
        # the window would have 99,999,998 columns
        code, out, err = run_cli(["tate", "--l=1,1", "--d=1,1", "--m=0,99999999", "--pad=-1"], capsys)
        assert (code, out, err) == (1, "", "svreg: error: pad must be >= 0, got -1\n")

    def test_regset_corner_limit_is_inclusive(self, capsys, monkeypatch):
        # stubbed: at the limit regularity_corners walks 8! permutations
        walked = []

        def one_permutation(factors):
            walked.append(len(factors))
            return iter([tuple(factors)])

        monkeypatch.setattr(regularity, "itertools", SimpleNamespace(permutations=one_permutation))
        limit = regularity._MAX_CORNER_FACTORS
        for r in (limit, limit + 1):
            ones = ",".join(["1"] * r)
            code, out, err = run_cli(["regset", f"--l={ones}", f"--d={ones}", f"--m={ones}", "--format=json"], capsys)
            if r == limit:
                assert (code, walked, len(json.loads(out)["result"]["corners"])) == (0, [limit], 1)
        assert (code, out, walked) == (1, "", [limit])
        assert err == f"svreg: error: r={limit + 1} has {limit + 1}! permutations of the factors, over the limit of r={limit}\n"

    def test_explain_subset_limit_is_inclusive(self, capsys, monkeypatch):
        # stubbed: at the limit cm_regularity_breakdown lists 2^16 - 1 rows
        listed = []

        def one_subset(l):
            listed.append(len(l))
            return [((0,), l[0])]

        monkeypatch.setattr(regularity, "_subsets", one_subset)
        limit = regularity._MAX_BREAKDOWN_FACTORS
        for r in (limit, limit + 1):
            ones = ",".join(["1"] * r)
            code, out, err = run_cli(["reg", f"--l={ones}", f"--d={ones}", f"--m={ones}", "--explain"], capsys)
            if r == limit:
                assert (code, listed) == (0, [limit])
                assert "subsets:" in out
        assert (code, out, listed) == (1, "", [limit])
        assert err == f"svreg: error: r={limit + 1} has 2^{limit + 1} - 1 subsets of the factors, over the limit of r={limit}\n"

    @pytest.mark.parametrize(
        "flags, columns", [(["--m=0,4990", "--pad=4"], 4999), (["--m=4999,0", "--pad=0"], 5000)]
    )
    def test_long_windows_within_limit(self, capsys, flags, columns):
        code, out, _ = run_cli(["tate", "--l=1,1", "--d=1,1", *flags, "--format=json"], capsys)
        assert code == 0
        assert len(json.loads(out)["result"]["terms"]) == columns

    def test_regset_antichain_at_seven_factors(self, capsys):
        ones, zeros = ",".join(["1"] * 7), ",".join(["0"] * 7)
        started = time.perf_counter()
        code, out, _ = run_cli(["regset", f"--l={ones}", f"--d={ones}", f"--m={zeros}", "--antichain", "--format=json"], capsys)
        assert time.perf_counter() - started < 5
        assert (code, len(json.loads(out)["result"]["corners"])) == (0, 5040)

    @pytest.mark.parametrize("checks", ["--checks=", "--checks=,"])
    def test_verify_empty_check_list_exit_one(self, capsys, checks):
        code, out, err = run_cli(["verify", checks, "--format=json"], capsys)
        assert (code, out) == (1, "")
        assert err == f"svreg: error: no checks named; available: {', '.join(verify.CHECKS)}\n"

    def test_verify_grid_over_limit_exit_one(self, capsys, monkeypatch):
        monkeypatch.setattr(verify, "_pooled", refuse_to_start)
        code, out, err = run_cli(["verify", f"--box={-2**63},0", "--checks=cohomology"], capsys)
        # a cohomology instance weighs 2 * lmax + 13 = 19 at the default lmax
        count = verify.instance_counts(verify.VerifyConfig(box=(-2**63, 0)))["cohomology"]
        assert (code, out) == (1, "")
        assert err == (
            f"svreg: error: the run has {count} instances, or {count * 19} weighted instances, "
            f"over the limit of {verify.MAX_INSTANCES}\n"
        )

    @pytest.mark.parametrize("flag", ["--lmax", "--dmax"])
    def test_verify_factor_bound_over_limit_exit_one(self, capsys, monkeypatch, flag):
        monkeypatch.setattr(verify, "_pooled", refuse_to_start)
        code, out, err = run_cli(["verify", f"{flag}=9", "--box=0,0", "--checks=cohomology"], capsys)
        assert (code, out) == (1, "")
        assert err == f"svreg: error: {flag[2:]} must be between 1 and 8, got 9\n"

    def test_verify_factor_bound_at_limit_runs(self, capsys, monkeypatch):
        ran = []

        def started(tasks):
            ran.append(sorted({(name, config.lmax, config.dmax) for names, _, _, config in tasks for name in names}))
            return [[verify.CheckResult(name, 0, 0) for name in names] for names, *_ in tasks]

        monkeypatch.setattr(verify, "_pooled", started)
        code, _, _ = run_cli(["verify", "--lmax=8", "--dmax=8", "--box=0,0", "--checks=tate-window"], capsys)
        assert (code, ran) == (0, [[("tate-window", 8, 8)]])

    @pytest.mark.parametrize(
        "flags, config, name",
        [
            # about 4,500 CPU-s at 46 us an instance
            (["--checks=tate-endpoints", "--r3-samples=99000000"], dict(r3_samples=99_000_000), "tate-endpoints"),
            # one step past the widest boxes the weights in verify.CHECKS admit:
            # 121.6M units, about 280 CPU-s, and 100.9M units
            (
                ["--box=-17,17", "--r3-samples=0", "--checks=formula-vs-oracle"],
                dict(box=(-17, 17), r3_samples=0),
                "formula-vs-oracle",
            ),
            (["--box=-48,48", "--checks=minimal-twist"], dict(box=(-48, 48)), "minimal-twist"),
            # nearly all r=3 samples, priced apart from the box: about 2,200-3,600,
            # 3,800-4,700 and 590-700 CPU-s at 22-36, 38-47 and 450-536 us a sample
            (
                ["--box=0,0", "--r3-samples=99999000", "--checks=formula-vs-oracle"],
                dict(box=(0, 0), r3_samples=99_999_000),
                "formula-vs-oracle",
            ),
            (
                ["--box=0,0", "--r3-samples=99999000", "--checks=corner-membership"],
                dict(box=(0, 0), r3_samples=99_999_000),
                "corner-membership",
            ),
            (
                ["--lmax=8", "--dmax=8", "--box=0,0", "--r3-samples=1300000", "--checks=minimal-twist"],
                dict(lmax=8, dmax=8, box=(0, 0), r3_samples=1_300_000),
                "minimal-twist",
            ),
        ],
    )
    def test_verify_long_runs_refused_at_once(self, capsys, monkeypatch, flags, config, name):
        monkeypatch.setattr(verify, "_pooled", refuse_to_start)
        started = time.perf_counter()
        code, out, err = run_cli(["verify", *flags], capsys)
        assert time.perf_counter() - started < 1
        cost = verify.CHECKS[name].cost(verify.VerifyConfig(**config))
        instances, price = sum(n for n, _ in cost), sum(n * weight for n, weight in cost)
        assert (code, out) == (1, "")
        assert err == (
            f"svreg: error: the run has {instances} instances, or {price} weighted instances, "
            f"over the limit of {verify.MAX_INSTANCES}\n"
        )

    @pytest.mark.parametrize(
        "flags",
        [
            ["--lmax=1000", "--dmax=1", "--checks=tate-window"],
            ["--lmax=400", "--dmax=1", "--box=0,0", "--checks=cohomology"],
            ["--lmax=2000", "--dmax=1", "--box=0,0", "--r3-samples=0", "--checks=formula-vs-oracle"],
        ],
    )
    def test_verify_costly_instances_refused_at_once(self, capsys, flags):
        # each of these is under MAX_INSTANCES but ran for more than 10 s
        started = time.perf_counter()
        code, out, err = run_cli(["verify", *flags], capsys)
        assert time.perf_counter() - started < 1
        assert (code, out) == (1, "")
        assert err.startswith("svreg: error: lmax must be between 1 and 8, got ")

    def test_verify_repeated_check_exit_one(self, capsys):
        code, out, err = run_cli(["verify", "--checks=segre-r2,ideal-bound,segre-r2"], capsys)
        assert (code, out) == (1, "")
        assert err == "svreg: error: checks named more than once: segre-r2\n"

    @pytest.mark.parametrize(
        "flag, message",
        [
            ("--lmax=0", "lmax must be between 1 and 8, got 0"),
            ("--dmax=0", "dmax must be between 1 and 8, got 0"),
            ("--box=3,1", "box needs lo <= hi, got 3,1"),
            ("--r3-samples=-1", "r3_samples must be >= 0, got -1"),
            ("--checks=nope", f"unknown checks: nope; available: {', '.join(verify.CHECKS)}"),
            ("--checks=segre-r2,segre-r2", "checks named more than once: segre-r2"),
            ("--seed=-1", f"seed must be between 0 and {2**64 - 1}, got -1"),
            (f"--seed={2**64}", f"seed must be between 0 and {2**64 - 1}, got {2**64}"),
        ],
    )
    def test_verify_domain_is_refused_by_run_checks(self, capsys, monkeypatch, flag, message):
        # the CLI reads these flags as integers and names only; VerifyConfig
        # refuses the values when it is built, and run_checks the names,
        # before any check starts
        monkeypatch.setattr(verify, "_pooled", refuse_to_start)
        code, out, err = run_cli(["verify", flag], capsys)
        assert (code, out, err) == (1, "", f"svreg: error: {message}\n")

    def test_verify_cohomology_weight_refuses_a_long_run_at_once(self, capsys, monkeypatch):
        # 95,027,208 cohomology instances at about 33 us each: 52 CPU-minutes
        monkeypatch.setattr(verify, "_pooled", refuse_to_start)
        started_at = time.perf_counter()
        argv = ["verify", "--lmax=8", "--box=-28,28", "--r3-samples=0", "--checks=cohomology"]
        code, out, err = run_cli(argv, capsys)
        assert time.perf_counter() - started_at < 1
        count = verify.instance_counts(verify.VerifyConfig(lmax=8, box=(-28, 28), r3_samples=0))["cohomology"]
        assert count == 95_027_208
        assert (code, out) == (1, "")
        assert err == (
            f"svreg: error: the run has {count} instances, or {count * 29} weighted instances, "
            f"over the limit of {verify.MAX_INSTANCES}\n"
        )

    def test_verify_reference_grid_is_admitted(self, capsys, monkeypatch):
        ran = []

        def started(tasks):
            ran.append(names_started(tasks))
            return [[verify.CheckResult(name, 0, 0) for name in names] for names, *_ in tasks]

        monkeypatch.setattr(verify, "_pooled", started)
        code, _, _ = run_cli(["verify"], capsys)
        assert (code, ran) == (0, [sorted(verify.CHECKS)])

    def test_verify_minimal_twist_scan_over_limit_exit_one(self, capsys):
        # two points, each scanning about 2^64 twists
        started = time.perf_counter()
        argv = ["verify", f"--box={-2**63},{-2**63}", "--checks=minimal-twist", "--lmax=1", "--dmax=1",
                "--r3-samples=0"]
        code, out, err = run_cli(argv, capsys)
        assert time.perf_counter() - started < 1
        assert (code, out) == (1, "")
        assert err.startswith("svreg: error: the run has ")
        assert err.endswith(f" weighted instances, over the limit of {verify.MAX_INSTANCES}\n")

    @pytest.mark.parametrize(
        "argv",
        [
            ["oracle", "--l=4611686018427387903", "--d=1", "--m=0", "--p=0"],
            ["oracle", "--l=1000,1001", "--d=1,1", "--m=0,0", "--p=0,0"],
            ["cohomology", "--l=3000000", "--a=5"],
        ],
    )
    def test_dimension_over_limit_exit_one(self, capsys, argv):
        # refused by the library call, which the CLI reports
        code, out, err = run_cli(argv, capsys)
        assert (code, out) == (1, "")
        assert err.startswith("svreg: error: the product has dimension n=")
        assert err.endswith(f", over the limit of {cohomology._MAX_DIMENSION}\n")

    def test_dimension_limit_is_inclusive_and_checked_last(self, capsys):
        n = cohomology._MAX_DIMENSION
        at_limit = [
            ["oracle", f"--l={n}", "--d=1", "--m=0", "--p=0"],
            ["cohomology", f"--l={n // 2},{n - n // 2}", "--a=0,0"],
        ]
        for argv in at_limit:
            assert run_cli(argv, capsys)[0] == 0
        code, _, err = run_cli(["oracle", f"--l={n + 1}", "--d=1", "--m=0,0", "--p=0"], capsys)
        assert (code, err) == (1, "svreg: error: m has 2 entries, expected 1\n")

    def test_exact_values_print_at_any_length(self, capsys):
        # a dimension of 32,195 digits, past CPython's 4,300-digit limit on
        # int-to-str conversion, which the CLI lifts for its output only
        a = 2**63 - 1
        code, out, _ = run_cli(["cohomology", "--l=2000", f"--a={a}", "--format=json"], capsys)
        assert code == 0
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(0)
        try:
            assert int(json.loads(out)["result"]["dimension"]) == math.comb(a + 2000, 2000)
        finally:
            sys.set_int_max_str_digits(limit)

    def test_internal_error_in_worker_exit_three(self, capsys, monkeypatch):
        def broken(*args):
            raise RuntimeError("planted invariant failure")

        monkeypatch.setattr(regularity, "is_regular_formula", broken)
        monkeypatch.setattr(verify, "_available_cpus", lambda: 2)
        code, _, err = run_cli(["verify", "--checks=formula-vs-oracle", "--lmax=1", "--dmax=1", "--box=-1,1"], capsys)
        assert code == 3
        shard = "formula-vs-oracle failed on shard SegreVeronese(l=(1,), d=(1,))"
        assert err == f"svreg: internal error: RuntimeError: {shard}: RuntimeError: planted invariant failure\n"
