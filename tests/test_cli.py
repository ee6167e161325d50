"""CLI tests: parsing, exit codes, document shape and output stability."""
import json

import pytest

from svreg import cli
from svreg import regularity, verify


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
        with pytest.raises(cli.UsageError, match="--d"):
            cli.parse_args(["reg", "--l", "1,1", "--d", "1"])

    def test_malformed_list_rejected(self):
        with pytest.raises(cli.UsageError, match="--m"):
            cli.parse_args(["reg", "--l", "1,1", "--d", "1,1", "--m", "0,x"])

    def test_int64_range_enforced(self):
        big = str(2**63)
        with pytest.raises(cli.UsageError, match="64-bit"):
            cli.parse_args(["reg", "--l", "1,1", "--d", "1,1", "--m", f"0,{big}"])

    def test_unknown_subcommand_rejected(self):
        with pytest.raises(cli.UsageError):
            cli.parse_args(["frobnicate"])

    def test_caps_parsing(self):
        request = cli.parse_args(
            ["reg", "--l", "1,1", "--d", "1,1", "--m", "0,0", "--caps", "subsets=5,perms=3"]
        )
        assert request.params["caps"] == {"subsets": 5, "perms": 3}

    def test_caps_rejects_unknown_key(self):
        with pytest.raises(cli.UsageError, match="--caps"):
            cli.parse_args(["reg", "--l", "1,1", "--d", "1,1", "--m", "0,0", "--caps", "nope=1"])

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
        doc, _ = cli.run(cli.parse_args(["lambda", "--l=1,2", "--d=1,1"]))
        assert doc.result["value"] == 3
        assert doc.result["case_split_value"] == 3
        assert doc.result["reg_zero"] == 1

    def test_endpoints_with_balanced_cross_check(self):
        doc, _ = cli.run(cli.parse_args(["endpoints", "--l=1,1", "--d=1,1", "--m=0,2"]))
        assert doc.result["p_plus"] == 0
        assert doc.result["p_minus"] == -2
        assert doc.result["balanced"] == {"p_plus": 0, "p_minus": -2}

    def test_endpoints_skips_balanced_when_inapplicable(self):
        doc, _ = cli.run(cli.parse_args(["endpoints", "--l=1,2", "--d=1,1", "--m=0,0"]))
        assert "balanced" not in doc.result

    def test_caps_too_small_is_input_error(self, capsys):
        code, _, err = run_cli(
            ["reg", "--l=1,1", "--d=1,1", "--m=0,0", "--caps", "subsets=1"], capsys
        )
        assert code == 1
        assert "cap" in err


class TestMain:
    def test_exit_zero_and_value(self, capsys):
        code, out, _ = run_cli(
            ["reg", "--l", "1,1", "--d", "1,1", "--m", "0,0", "--format", "json"], capsys
        )
        assert code == 0
        assert json.loads(out)["result"]["value"] == 1

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

    def test_verify_small_grid_exit_zero(self, capsys):
        code, out, _ = run_cli(
            [
                "verify",
                "--lmax=1",
                "--dmax=1",
                "--box=-2,2",
                "--r3-samples=10",
                "--subadd-pairs=10",
                "--pair-samples=5",
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

        def broken(E, m, p, subset_cap=regularity.SUBSET_CAP):
            if (E.l, E.d, tuple(m), tuple(p)) == target:
                return not real(E, m, p, subset_cap)
            return real(E, m, p, subset_cap)

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

    def test_verify_output_independent_of_workers(self, capsys, monkeypatch):
        argv = ["verify", "--lmax=1", "--dmax=2", "--box=-2,2", "--r3-samples=20", "--format=json"]
        documents = []
        for cpus in (1, 2):  # in-process, then two forked workers
            monkeypatch.setattr(verify, "_available_cpus", lambda cpus=cpus: cpus)
            code, out, _ = run_cli(argv, capsys)
            assert code == 0
            document = json.loads(out)
            for check in document["result"]["checks"]:
                assert check.pop("elapsed_s") >= 0
            documents.append(document)
        assert documents[0] == documents[1]

    def test_internal_error_exit_three(self, capsys, monkeypatch):
        def broken(*args):
            raise RuntimeError("routes disagree\non two lines")

        monkeypatch.setattr(cli, "p_minus", broken)
        code, out, err = run_cli(["endpoints", "--l=1,1", "--d=1,1", "--m=0,2"], capsys)
        assert (code, out) == (3, "")
        assert err == "svreg: internal error: routes disagree on two lines\n"

    def test_internal_error_in_worker_exit_three(self, capsys, monkeypatch):
        def broken(*args):
            raise RuntimeError("planted invariant failure")

        monkeypatch.setattr(regularity, "is_regular_formula", broken)
        monkeypatch.setattr(verify, "_available_cpus", lambda: 2)
        code, _, err = run_cli(["verify", "--checks=formula-vs-oracle", "--lmax=1", "--dmax=1", "--box=-1,1"], capsys)
        assert code == 3
        assert err == "svreg: internal error: planted invariant failure\n"
