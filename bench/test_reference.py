"""Tests of the benchmark's reference routes: hand-worked values from the
paper, then the routes against each other on small exhaustive grids."""
from itertools import product

import reference as ref


def segre(a, b, k, l):
    return max(-min(k, l), min(b - k, a - l))


def test_hand_worked_values():
    assert ref.cm_sorted((1, 1), (1, 1), (0, 0)) == 1
    assert sorted(c for _, c in ref.corners_ref((1, 1), (1, 1), (0, 0))) == [(0, 1), (1, 0)]
    # lambda - 1 = 2 strictly bounds reg O = 1 at l = (1, 2)
    assert ref.lambda_ref((1, 2), (1, 1)) - 1 == 2
    assert ref.cm_sorted((1, 2), (1, 1), (0, 0)) == 1
    assert ref.line_cohomology((1,), (-2,)) == (1, 1)
    assert ref.line_cohomology((2,), (-1,)) is None
    assert ref.line_cohomology((1, 2), (2, -4)) == (2, 3 * 3)


def test_segre_form():
    for a, b in product(range(1, 4), repeat=2):
        for k, l in product(range(-5, 6), repeat=2):
            assert ref.cm_sorted((a, b), (1, 1), (k, l)) == segre(a, b, k, l)


def _embeddings(rs=(1, 2, 3), top=2):
    for r in rs:
        for l in product(range(1, top + 1), repeat=r):
            for d in product(range(1, top + 1), repeat=r):
                yield l, d


def test_sorted_form_matches_subset_enumeration():
    for l, d in _embeddings():
        for m in product(range(-3, 4), repeat=len(l)):
            rows = ref.subset_rows(l, d, m)
            assert ref.cm_sorted(l, d, m) == max(v for _, v in rows.values())


def test_sorted_test_matches_scan():
    for l, d in _embeddings(rs=(1, 2)):
        for m in product(range(-3, 4), repeat=len(l)):
            for p in product(range(-4, 5), repeat=len(l)):
                assert ref.regular_sorted(l, d, m, p) == ref.regular_scan(l, d, m, p)


def test_cm_is_least_regular_twist():
    for l, d in _embeddings():
        for m in product(range(-2, 3), repeat=len(l)):
            assert ref.least_regular_twist(l, d, m) == ref.cm_sorted(l, d, m)


def test_corners_decide_membership():
    embeddings = [(l, d) for l, d in _embeddings(rs=(2, 3)) if len(l) == 2 or d in ((1, 1, 1), (2, 1, 2))]
    for l, d in embeddings:
        for m in product(range(-1, 2), repeat=len(l)):
            corners = [c for _, c in ref.corners_ref(l, d, m)]
            for p in product(range(-1, 5), repeat=len(l)):
                member = any(all(x >= y for x, y in zip(p, c)) for c in corners)
                assert member == ref.regular_sorted(l, d, m, p)


def test_p_minus_is_last_pure_top_column():
    for l, d in _embeddings(rs=(1, 2)):
        n = sum(l)
        for m in product(range(-3, 4), repeat=len(l)):
            lo = ref.p_minus_ref(l, d, m)
            hi = ref.cm_sorted(l, d, m)
            for p in range(lo - 2, hi + 3):
                degrees = {i for i, _, _ in ref.tate_column(l, d, m, p)}
                assert (degrees <= {n}) == (p <= lo)
                assert (degrees <= {0}) == (p >= hi)


def test_dual_is_an_involution_and_serre_duality_holds():
    for l, d in _embeddings(rs=(1, 2)):
        n = sum(l)
        for a in product(range(-5, 4), repeat=len(l)):
            assert ref.dual(l, d, ref.dual(l, d, a)) == a
            dual_a = [-ak - lk - 1 for ak, lk in zip(a, l)]
            for i in range(n + 1):
                assert ref.h(l, a, i) == ref.h(l, dual_a, n - i)
