"""Acceptance gate: the closed forms must reproduce the brute-force
cohomology computations exactly on the reference grids.

One test per criterion.  Everything is exact integer equality; there are
no tolerances anywhere in this suite.  Each test prints a PASS line with
its instance count and runtime (visible with pytest -s).

Reference grids: exhaustive r in {1,2} with l_k, d_k <= 3 and entries in
[-8, 8], plus 10,000 seeded random r=3 instances, 20 seeded samples for
each r from 4 to 12 against the subset definition, 1,000 seeded random
twist pairs per embedding for subadditivity, and exhaustive r <= 3
closed-form windows.  Every check must see exactly the instance count
``verify.instance_counts`` gives for the reference grid.  The two pair
checks come from one shared walk of the pair grid, as ``svreg verify``
runs them, and each keeps its own test.
"""
import time

import pytest

from svreg import verify
from svreg.cohomology import SegreVeronese
from svreg.regularity import cm_regularity, segre_regularity

CONFIG = verify.VerifyConfig()


def passed(result, elapsed):
    name = result.name
    assert result.failures == 0, (
        f"FAIL {name}: {result.failures} of {result.instances} instances, "
        f"first counterexample: {result.counterexample}"
    )
    assert result.instances == verify.instance_counts(CONFIG)[name]
    print(f"PASS {name}: {result.instances} instances, 0 failures ({elapsed:.1f}s)")
    return result


def run_check(name):
    started = time.time()
    result = verify.CHECKS[name](CONFIG)
    return passed(result, time.time() - started)


@pytest.fixture(scope="module")
def pair_checks():
    """Both pair checks from one walk of the reference pair grid, by name."""
    started = time.time()
    results = verify.run_checks(CONFIG, ["formula-vs-oracle", "corner-membership"])
    return {result.name: (result, time.time() - started) for result in results}


def test_oracle_equivalence(pair_checks):
    result = passed(*pair_checks["formula-vs-oracle"])
    assert result.instances == 2601 + 6765201 + CONFIG.r3_samples


def test_corner_decomposition(pair_checks):
    passed(*pair_checks["corner-membership"])


def test_sorted_closed_forms():
    run_check("sorted-vs-subsets")


def test_regularity_closed_form():
    run_check("minimal-twist")


def test_segre_special_case():
    run_check("segre-r2")
    assert segre_regularity(1, 1, 0, 0) == 1
    assert cm_regularity(SegreVeronese((1, 1), (1, 1)), (0, 0)) == 1


def test_lambda_bound():
    run_check("ideal-bound")


def test_subadditivity():
    run_check("subadditivity")
    run_check("pair-subadditivity")


def test_tate_endpoints():
    run_check("tate-endpoints")
    run_check("tate-window")


def test_cohomology_self_consistency():
    run_check("cohomology")
