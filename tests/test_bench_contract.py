"""The benchmark's correctness gate, replayed in-process: the result
document of every ``cli-oneshot`` invocation against the benchmark's
reference, the instance counts ``verify-reference`` expects, and the
planted faults it must see caught.  The benchmark runs the CLI in child
processes and the reference grid in full; the same comparisons here fail
under Tier-1 first.  ``bench/`` is only imported from."""
import json
import os
import sys

import pytest

import svreg
from svreg import cli, verify

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "bench"))
import workloads  # noqa: E402


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_every_cli_oneshot_result_matches_the_reference(capsys, seed):
    invocations = workloads.CliOneshot().generate(svreg, seed, 1)
    assert invocations
    problems = []
    for cmd, params, argv in invocations:
        code = cli.main(argv)
        out = capsys.readouterr().out
        lines = out.splitlines()
        want = workloads.expected_cli_result(cmd, params)
        doc = json.loads(lines[0]) if code == 0 and len(lines) == 1 else {}
        if (doc.get("command"), doc.get("result")) != (cmd, want):
            problems.append((argv, code, out[:300], want))
    assert problems == []


def test_verify_counts_match_the_benchmark():
    config = verify.VerifyConfig()
    counts, expected = verify.instance_counts(config), workloads.expected_verify_counts(config)
    assert {name: counts[name] for name in workloads.VERIFY_CHECKS} == {
        name: expected[name] for name in workloads.VERIFY_CHECKS
    }


def test_planted_faults_are_caught():
    assert workloads.fault_injection(svreg, 1) == []
