"""Golden CLI contract: every case of ``golden.py``, the exit code, stdout
and stderr of one ``svreg`` call each, equals its entry recorded in
``cli_golden.json``.

After an intended change of the output, regenerate the file with::

    PYTHONPATH=src python tests/golden.py

which prints the argv of each case whose recorded output changed, with
the streams (code, stdout, stderr) that differ.  The same command checks
the contract on an interpreter without pytest; the cases, the capture and
the environment they run in are described in ``golden.py``.
"""
import json
import os
import re
import shutil
import subprocess
import sys

import pytest

import golden
import svreg
from conftest import SRC
from golden import SUBCOMMANDS, VALID, capture, cases, contract_env, load


def _group(argv):
    return argv[0] if argv and argv[0] in SUBCOMMANDS else "svreg"


def test_golden_file_lists_every_case():
    assert [record["argv"] for record in load()] == cases()


@pytest.mark.parametrize("group", ["svreg", *SUBCOMMANDS])
def test_outputs_match_golden(group):
    with contract_env():
        for record in load():
            if _group(record["argv"]) == group:
                want = [record["code"], record["stdout"], record["stderr"]]
                assert [record["argv"], capture(record["argv"])] == [record["argv"], want]


@pytest.mark.parametrize("argv", VALID, ids=lambda argv: " ".join(argv))
def test_table_shows_every_result_key(argv):
    # the table is rendered from the document: no result key is renamed or
    # left out on the way, and none shares its label with the input echo
    with contract_env():
        code, table, _ = capture(argv)
        _, document, _ = capture([*argv, "--format=json"])
    assert code == 0
    labels = [line.split(":")[0] for line in table.splitlines() if not line.startswith(" ")]
    assert set(json.loads(document)["result"]) <= set(labels)
    assert len(labels) == len(set(labels))


def test_runner_needs_no_pytest():
    # golden.py is the one runner on interpreters without pytest, and in
    # CI against the installed package: it imports and captures with
    # pytest unimportable, and gives the recorded output
    script = (
        "import json, sys\n"
        "sys.modules['pytest'] = None\n"
        "import golden\n"
        "with golden.contract_env():\n"
        "    print(json.dumps(golden.capture(['--version'])))\n"
    )
    here, package = os.path.dirname(os.path.abspath(__file__)), os.path.dirname(os.path.dirname(svreg.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([here, package])}
    done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True, check=True)
    (record,) = [record for record in load() if record["argv"] == ["--version"]]
    assert json.loads(done.stdout) == [record["code"], record["stdout"], record["stderr"]]


def test_runner_refuses_an_interpreter_below_requires_python(capsys, monkeypatch, tmp_path):
    # argparse's help texts differ on 3.9 ("optional arguments:"), so the
    # runner exits 2 there before it reads or writes the recorded file
    with open(os.path.join(os.path.dirname(SRC), "pyproject.toml"), encoding="utf-8") as f:
        (requires,) = re.findall(r'(?m)^requires-python = ">=([0-9.]+)"$', f.read())
    assert ".".join(map(str, golden.REQUIRES)) == requires
    copy = tmp_path / "cli_golden.json"
    shutil.copyfile(golden.GOLDEN, copy)
    recorded = copy.read_bytes()
    monkeypatch.setattr(golden, "GOLDEN", str(copy))
    monkeypatch.setattr(golden, "load", None)  # a read fails the test as well
    monkeypatch.setattr(sys, "version_info", (3, 9, 18, "final", 0))
    code = golden.main()
    monkeypatch.undo()
    out, err = capsys.readouterr()
    assert (code, out, copy.read_bytes()) == (2, "", recorded)
    assert err == f"golden.py: Python 3.9.18 is below requires-python >={requires}; nothing recorded\n"
