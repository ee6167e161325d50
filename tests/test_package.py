"""What importing svreg loads, the names it resolves on first use, the
one route per library call, and the limits and CLI examples README quotes."""
import ast
import importlib
import os
import re
import subprocess
import sys

import pytest

import svreg
from conftest import SRC


def loaded(statement, modules):
    """Those of ``modules`` that a fresh interpreter has loaded after running
    ``statement``."""
    code = f"import sys; {statement}; print(','.join(m for m in {modules!r} if m in sys.modules))"
    env = {**os.environ, "PYTHONPATH": SRC}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    return out.stdout.strip()


def test_cli_import_leaves_verify_and_pools_unloaded():
    # a one-shot call imports svreg.cli; only `svreg verify` needs the rest,
    # and no record needs dataclasses (or the inspect module it loads)
    modules = ("svreg.verify", "multiprocessing", "concurrent.futures", "dataclasses", "inspect")
    assert loaded("import svreg.cli", modules) == ""


def test_version_matches_pyproject():
    # the installed metadata and ``svreg --version`` read two copies of the
    # version; Python 3.10 has no tomllib, so the pyproject is read by a regex
    with open(os.path.join(os.path.dirname(SRC), "pyproject.toml"), encoding="utf-8") as f:
        (version,) = re.findall(r'(?m)^version = "([^"]+)"$', f.read())
    assert svreg.__version__ == version


def test_star_import_leaves_verify_unloaded():
    # the package exports no name of svreg.verify, so a star import loads
    # neither it nor the dataclasses its config is built with
    assert loaded("from svreg import *", ("svreg.verify", "dataclasses")) == ""


def test_star_import_resolves_every_name():
    namespace = {}
    exec("from svreg import *", namespace)
    assert set(svreg.__all__) <= set(namespace)


def test_unknown_attribute_raises():
    with pytest.raises(AttributeError):
        svreg.no_such_name
    assert not hasattr(svreg, "no_such_name")


def test_every_library_cache_is_bounded():
    from svreg import cohomology, regularity, tate, verify

    caches = {
        f"{module.__name__}.{name}": value.cache_info().maxsize
        for module in (cohomology, regularity, tate, verify)
        for name, value in vars(module).items()
        if hasattr(value, "cache_info")
    }
    memos = {"svreg.regularity._regularity", "svreg.regularity._oracle_scan"}
    assert memos <= set(caches)
    assert [name for name, maxsize in caches.items() if maxsize is None] == []


def test_second_routes_are_not_exported():
    removed = ("in_regularity_set", "tate_term", "factor_cohomology", "binom")
    assert [name for name in removed if hasattr(svreg, name)] == []


def test_names_nothing_reads_are_gone():
    # chi is a property of the profile, dual_twist returns a plain tuple, a
    # window's pad is the one its caller passed, ideal_sheaf_bound returns
    # an int, and the two-factor Segre formula and the balanced endpoints are
    # second routes that only verify replays
    from svreg import cohomology, regularity, tate

    gone = {
        cohomology: ("euler_characteristic", "MultiDegree"),
        regularity: ("segre_regularity", "IdealSheafBound"),
        tate: ("balanced_endpoints",),
    }
    for module, names in gone.items():
        for namespace in (svreg, module):
            for name in names:
                with pytest.raises(AttributeError):
                    getattr(namespace, name)
    assert len(svreg.__all__) == len(set(svreg.__all__)) == 19
    assert svreg.TateWindow._fields == ("p_minus", "p_plus", "terms")


def names_in(tree):
    """Every name a module reads, imports or reaches as an attribute."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        elif isinstance(node, ast.alias):
            out.add(node.name)
    return out


LIBRARY = ("cohomology", "regularity", "tate")


def parsed(module):
    with open(os.path.join(SRC, "svreg", f"{module}.py")) as f:
        return ast.parse(f.read())


def public_functions(tree):
    return [node for node in tree.body if isinstance(node, ast.FunctionDef) and not node.name.startswith("_")]


def test_every_public_function_has_a_caller_outside_verify():
    # a second route that only verify replays the library against belongs
    # in verify: each public function of the library is named in the CLI or
    # in another library module
    trees = {module: parsed(module) for module in (*LIBRARY, "cli")}
    named = {module: names_in(tree) for module, tree in trees.items()}
    uncalled = [
        f"{module}.{node.name}"
        for module in LIBRARY
        for node in public_functions(trees[module])
        if not any(node.name in named[other] for other in trees if other != module)
    ]
    assert uncalled == []


def test_no_public_library_function_is_an_alias():
    # an alias is a second name for one route: a public function whose body,
    # after its docstring, is only ``return g(<its parameters, in order>)``
    # with g a public library function
    trees = {module: parsed(module) for module in LIBRARY}
    public = {node.name for tree in trees.values() for node in public_functions(tree)}
    aliases = []
    for module, tree in trees.items():
        for node in public_functions(tree):
            body = node.body
            if ast.get_docstring(node) is not None:
                body = body[1:]
            call = body[0].value if len(body) == 1 and isinstance(body[0], ast.Return) else None
            if not isinstance(call, ast.Call) or call.keywords:
                continue
            callee = getattr(call.func, "id", getattr(call.func, "attr", None))
            params = [arg.arg for arg in (*node.args.posonlyargs, *node.args.args)]
            if callee in public and [getattr(arg, "id", None) for arg in call.args] == params:
                aliases.append(f"{module}.{node.name}")
    assert aliases == []


def test_cli_keeps_no_limit():
    # each cost limit belongs to the library call whose work it bounds, so
    # a library caller meets it too; the CLI only reads flags and renders
    with open(os.path.join(SRC, "svreg", "cli.py")) as f:
        tree = ast.parse(f.read())
    assigned = [
        target.id
        for node in tree.body
        if isinstance(node, (ast.Assign, ast.AnnAssign))
        for target in (node.targets if isinstance(node, ast.Assign) else [node.target])
        if isinstance(target, ast.Name) and target.id.startswith("_MAX_")
    ]
    assert assigned == []


def test_verify_seeds_one_generator():
    # every seeded sample is drawn through one drawer, which alone builds
    # the generator of a stream from the seed and the stream's key
    built = [
        node
        for node in ast.walk(parsed("verify"))
        if isinstance(node, ast.Call) and getattr(node.func, "attr", getattr(node.func, "id", None)) == "Random"
    ]
    assert len(built) == 1


def literal_parts(node):
    """The literal text of a string constant or of an f-string."""
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return [node.value]
    if isinstance(node, ast.JoinedStr):
        return [part.value for part in node.values if isinstance(part, ast.Constant)]
    return []


def test_every_verify_reason_is_provoked_by_a_test():
    # a counterexample reason no test names is a replay no test has made
    # fail: one that no library fault can reach would pass unnoticed
    with open(os.path.join(SRC, "svreg", "verify.py")) as f:
        tree = ast.parse(f.read())
    reasons = []
    for node in ast.walk(tree):
        if isinstance(node, ast.keyword) and node.arg == "reason":
            reasons += literal_parts(node.value)
        elif isinstance(node, ast.Assign) and any(isinstance(t, ast.Name) and t.id == "reason" for t in node.targets):
            reasons += literal_parts(node.value)
    reasons = [text.strip() for text in reasons if text.strip()]
    tests = os.path.join(os.path.dirname(SRC), "tests")
    corpus = ""
    for name in sorted(os.listdir(tests)):
        if name.endswith(".py"):
            with open(os.path.join(tests, name)) as f:
                corpus += f.read()
    assert reasons
    assert [text for text in reasons if text not in corpus] == []


def written(value):
    """A limit as README writes it: a * 10^k from 10^7 up, else with
    thousands separators."""
    k = len(str(value)) - 1
    if value >= 10**7 and value % 10**k == 0:
        lead = value // 10**k
        return f"10^{k}" if lead == 1 else f"{lead} * 10^{k}"
    return f"{value:,}"


# each limit constant and the README phrase that quotes its value
LIMITS = [
    ("verify", "MAX_INSTANCES", "a run of more than {} weighted instances"),
    ("verify", "MAX_FACTOR_BOUND", "`dmax` outside 1..{}"),
    ("tate", "_MAX_COLUMNS", "a window of more than {} columns"),
    ("tate", "_MAX_WORK", "a window of more than {} factor steps"),
    ("tate", "_MAX_DIGIT_WORK", "may take more than {} squared digits"),
    ("cohomology", "_MAX_DIMENSION", "dimension `n = sum(l)` above {}"),
    ("regularity", "_MAX_CORNER_FACTORS", "`regset` refuses `r > {}`"),
    ("regularity", "_MAX_BREAKDOWN_FACTORS", "`reg --explain` refuses `r > {}`"),
]


@pytest.mark.parametrize("module, name, phrase", LIMITS, ids=[name for _, name, _ in LIMITS])
def test_readme_quotes_every_limit(module, name, phrase):
    # a limit changed without its documentation fails here
    value = getattr(importlib.import_module(f"svreg.{module}"), name)
    with open(os.path.join(os.path.dirname(SRC), "README.md")) as f:
        readme = " ".join(f.read().split())
    assert phrase.format(written(value)) in readme


def test_readme_cli_examples_are_accepted(monkeypatch):
    # README keeps its CLI examples and cites svreg.cli and verify.CHECKS for
    # the rules: each example is accepted by every call that refuses input,
    # and gives the answer its comment states; verify's shards are not run
    from svreg import cli, verify

    monkeypatch.setattr(verify, "_pooled", lambda tasks: [])
    with open(os.path.join(os.path.dirname(SRC), "README.md")) as f:
        examples = re.findall(r"(?m)^svreg ([^#\n]*)#?(.*)$", f.read())
    assert len(examples) == 15
    for flags, comment in examples:
        document, code = cli.run(cli.parse_args(flags.split()))
        assert code == 0, flags
        stated = re.search(r": (-?\d+)$", comment.strip())
        if stated:
            assert document.result["value"] == int(stated.group(1)), flags


def test_every_check_entry_hashes():
    # bench/tracer.py keys a dict by the CHECKS entries
    from svreg import verify

    assert len({check: name for name, check in verify.CHECKS.items()}) == len(verify.CHECKS)


def test_each_refusal_site_raises_refusal_and_each_fault_check_does_not():
    # cli.main exits 1 on a Refusal and 3 on any other exception, so each
    # site that refuses an input raises one, and a check that only a
    # library fault can trip raises a plain ValueError
    from svreg import cli, tate, verify
    from svreg.cohomology import _MAX_DIMENSION, CohomologyProfile, SegreVeronese

    def ones(r):
        return SegreVeronese((1,) * r, (1,) * r), (0,) * r

    refusals = [
        (lambda: SegreVeronese((1,), (0,)), "embedding degrees must all be >= 1"),
        (lambda: svreg.cm_regularity(SegreVeronese((1, 1), (1, 1)), (0,)), "m has 1 entries, expected 2"),
        (lambda: svreg.product_cohomology(*ones(_MAX_DIMENSION + 1)), "the product has dimension"),
        (lambda: svreg.regularity_corners(*ones(9)), "r=9 has 9! permutations"),
        (lambda: svreg.cm_regularity_breakdown(*ones(17)), "r=17 has 2^17 - 1 subsets"),
        (lambda: svreg.tate_window(*ones(2), pad=-1), "pad must be >= 0"),
        (lambda: svreg.tate_window(*ones(1), pad=tate._MAX_COLUMNS), "the window has"),
        (lambda: svreg.tate_window(*ones(64), pad=tate._MAX_WORK // 128), "the window takes"),
        (lambda: svreg.tate_window(SegreVeronese((990,), (2**63 - 1,)), (0,), pad=8), "the window's ranks take"),
        (lambda: verify.VerifyConfig(lmax=0), "lmax must be between"),
        (lambda: verify.run_checks(verify.VerifyConfig(), []), "no checks named"),
        (lambda: cli.parse_args(["frobnicate"]), "unknown subcommand"),
        (lambda: cli.run(cli.parse_args(["subadd", "--l=1", "--d=1", "--m=0", "--m2=0", "--p=0"])), "--p and --p2"),
        (lambda: cli.parse_args(["reg", "--l=1"]), "the following arguments are required"),
    ]
    for call, message in refusals:
        with pytest.raises(svreg.Refusal, match=f"^{re.escape(message)}"):
            call()
    faults = [
        (lambda: CohomologyProfile(0, 0), "dimension must be >= 1"),
        (lambda: CohomologyProfile(2, 1).table(1), "profile degree 2 exceeds table size 1"),
    ]
    for call, message in faults:
        with pytest.raises(ValueError, match=f"^{re.escape(message)}") as caught:
            call()
        assert not isinstance(caught.value, svreg.Refusal), message
