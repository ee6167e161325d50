"""Acceptance gate: the closed forms must reproduce the brute-force
cohomology computations exactly on the reference grids.

One test per criterion.  Everything is exact integer equality; there are
no tolerances anywhere in this suite.  Each test prints a PASS line with
its instance count and shard-seconds (visible with pytest -s).

Reference grids: exhaustive r in {1,2} with l_k, d_k <= 3 and entries in
[-8, 8], plus 10,000 seeded random r=3 instances, 20 seeded samples for
each r from 4 to 12 against the subset definition, 1,000 seeded random
twist pairs per embedding for subadditivity, and exhaustive r <= 3
closed-form windows.  Every check must see exactly the instance count
``verify.instance_counts`` gives for the reference grid.  All checks come
from one ``run_checks`` of the reference grid, the run ``svreg verify``
makes, and each keeps its own test.
"""
import pytest

from svreg import verify
from svreg.cohomology import SegreVeronese
from svreg.regularity import cm_regularity

CONFIG = verify.VerifyConfig()


@pytest.fixture(scope="module")
def reference():
    """Every check of one run of the reference grid, by name."""
    return {result.name: result for result in verify.run_checks(CONFIG)}


def passed(result):
    name = result.name
    assert result.failures == 0, (
        f"FAIL {name}: {result.failures} of {result.instances} instances, "
        f"first counterexample: {result.counterexample}"
    )
    assert result.instances == verify.instance_counts(CONFIG)[name]
    print(f"PASS {name}: {result.instances} instances, 0 failures ({result.elapsed_s:.1f} shard-s)")
    return result


def test_oracle_equivalence(reference):
    result = passed(reference["formula-vs-oracle"])
    assert result.instances == 2601 + 6765201 + CONFIG.r3_samples


def test_corner_decomposition(reference):
    passed(reference["corner-membership"])


def test_sorted_closed_forms(reference):
    passed(reference["sorted-vs-subsets"])


def test_regularity_closed_form(reference):
    passed(reference["minimal-twist"])


def test_segre_special_case(reference):
    passed(reference["segre-r2"])
    assert verify._segre_regularity(1, 1, 0, 0) == 1
    assert cm_regularity(SegreVeronese((1, 1), (1, 1)), (0, 0)) == 1


def test_lambda_bound(reference):
    passed(reference["ideal-bound"])


def test_subadditivity(reference):
    passed(reference["subadditivity"])
    passed(reference["pair-subadditivity"])


def test_tate_endpoints(reference):
    passed(reference["tate-endpoints"])
    passed(reference["tate-window"])


def test_cohomology_self_consistency(reference):
    passed(reference["cohomology"])
