"""What importing svreg loads, and the names it resolves on first use."""
import os
import subprocess
import sys

import pytest

import svreg

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def test_cli_import_leaves_verify_and_pools_unloaded():
    # a one-shot call imports svreg.cli; only `svreg verify` needs the rest,
    # and no record needs dataclasses (or the inspect module it loads)
    modules = ("svreg.verify", "multiprocessing", "concurrent.futures", "dataclasses", "inspect")
    code = f"import sys, svreg.cli; print(','.join(m for m in {modules!r} if m in sys.modules))"
    env = {**os.environ, "PYTHONPATH": SRC}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == ""


@pytest.mark.parametrize("name", ["CHECKS", "CheckResult", "VerifyConfig", "run_checks"])
def test_verify_names_resolve(name):
    assert getattr(svreg, name) is getattr(svreg.verify, name)


def test_star_import_resolves_every_name():
    namespace = {}
    exec("from svreg import *", namespace)
    assert set(svreg.__all__) <= set(namespace)
    assert namespace["run_checks"] is svreg.verify.run_checks


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
