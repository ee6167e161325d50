"""Unit tests for the regularity tests, corners and subadditivity checks."""
import itertools

import pytest

from svreg import regularity, verify
from svreg.cohomology import SegreVeronese
from svreg.regularity import (
    RegularityCorner,
    check_pair_subadditivity,
    check_subadditivity,
    cm_regularity,
    cm_regularity_breakdown,
    ideal_sheaf_bound,
    is_regular_formula,
    is_regular_oracle,
    regularity_corners,
)

P1P1 = SegreVeronese((1, 1), (1, 1))


class TestRegularFormula:
    def test_projective_space_structure_sheaf(self):
        assert is_regular_formula(SegreVeronese((3,), (1,)), (0,), (0,))

    def test_origin_fails_on_segre(self):
        # the full factor set forces p_k + 1 - 2 >= 0 for some k
        assert not is_regular_formula(P1P1, (0, 0), (0, 0))

    def test_ones_pass_on_segre(self):
        assert is_regular_formula(P1P1, (0, 0), (1, 1))

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            is_regular_formula(P1P1, (0,), (0, 0))

    def test_wide_r_needs_no_subsets(self):
        # 2^26 - 1 subsets; the sorted form reads 26 prefixes
        E = SegreVeronese((1,) * 26, (1,) * 26)
        assert cm_regularity(E, (0,) * 26) == 25
        assert not is_regular_formula(E, (0,) * 26, (24,) * 26)
        assert is_regular_formula(E, (0,) * 26, (25,) * 26)


class TestRegularOracle:
    def test_agrees_on_formula_examples(self):
        assert is_regular_oracle(SegreVeronese((3,), (1,)), (0,), (0,))
        assert not is_regular_oracle(P1P1, (0, 0), (0, 0))
        assert is_regular_oracle(P1P1, (0, 0), (1, 1))

    def test_veronese_p2_twist_one(self):
        # H^2(O(1 + 0 - 2*2)) = H^2(O(-3)) = 1 on P^2, so not regular
        E = SegreVeronese((2,), (2,))
        assert not is_regular_oracle(E, (1,), (0,))
        assert not is_regular_formula(E, (1,), (0,))

    def test_veronese_p2_negative_p(self):
        # H^2(O(0 - 1 - 2*2)) = H^2(O(-5)) = 6 on P^2, so not regular
        E = SegreVeronese((2,), (2,))
        assert not is_regular_oracle(E, (0,), (-1,))

    def test_veronese_p2_regular_point(self):
        E = SegreVeronese((2,), (2,))
        assert is_regular_oracle(E, (1,), (1,))
        assert is_regular_formula(E, (1,), (1,))

    def test_memo_agrees_through_evictions(self):
        # more distinct (l, d, m + p) than the memo holds, walked forwards
        # and back, so that entries are evicted and looked up again
        from test_properties import definitional_regularity

        scan = regularity._oracle_scan
        cases = []
        for l in itertools.product((1, 2), repeat=2):
            for d in itertools.product((1, 2), repeat=2):
                E = SegreVeronese(l, d)
                for c in itertools.product(range(-8, 9), repeat=2):
                    p = (c[0] % 3 - 1, -(c[1] % 2))
                    cases.append((E, (c[0] - p[0], c[1] - p[1]), p, c))
        assert len(cases) > scan.cache_info().maxsize
        scan.cache_clear()
        for E, m, p, c in cases + cases[::-1]:
            want = definitional_regularity(E, m, p)
            assert is_regular_oracle(E, m, p) == want
            assert scan.__wrapped__(E.l, E.d, c) == want
        info = scan.cache_info()
        assert info.misses > info.maxsize and info.hits > 0
        assert info.currsize == info.maxsize


class TestRegularityCorners:
    def test_segre_origin(self):
        corners = regularity_corners(P1P1, (0, 0))
        assert {c.corner for c in corners} == {(1, 0), (0, 1)}

    def test_single_factor(self):
        corners = regularity_corners(SegreVeronese((2,), (3,)), (1,))
        assert [c.corner for c in corners] == [(3,)]

    def test_shifted_twist(self):
        corners = regularity_corners(P1P1, (5, 5))
        assert {c.corner for c in corners} == {(-4, -5), (-5, -4)}

    def test_sigma_labels_match_corners(self):
        corners = regularity_corners(P1P1, (0, 0))
        by_sigma = {c.sigma: c.corner for c in corners}
        assert by_sigma == {(0, 1): (1, 0), (1, 0): (0, 1)}

    def test_every_corner_is_regular(self):
        E = SegreVeronese((2, 1), (1, 3))
        for c in regularity_corners(E, (2, -5)):
            assert is_regular_formula(E, (2, -5), c.corner)

    def test_real_corners_form_an_antichain(self):
        E = SegreVeronese((1, 2, 1), (2, 1, 3))
        corners = [c.corner for c in regularity_corners(E, (4, -1, 0))]
        assert len(corners) == 6
        for c, o in itertools.permutations(corners, 2):
            assert not all(x <= y for x, y in zip(c, o))

    def test_corner_limit(self):
        E = SegreVeronese((1,) * 9, (1,) * 9)
        with pytest.raises(ValueError, match=r"r=9 has 9! permutations of the factors, over the limit of r=8"):
            regularity_corners(E, (0,) * 9)


class TestInRegularitySet:
    # membership, as ``svreg member`` reports it, is the closed-form test

    def test_dominating_point(self):
        assert is_regular_formula(P1P1, (0, 0), (1, 1))

    def test_origin_outside(self):
        assert not is_regular_formula(P1P1, (0, 0), (0, 0))

    def test_corner_itself(self):
        assert is_regular_formula(P1P1, (0, 0), (0, 1))

    def test_matches_formula_on_grid(self):
        # Proposition regset: the set is the union of the corners' orthants
        E = SegreVeronese((2, 1), (1, 2))
        corners = [c.corner for c in regularity_corners(E, (1, -2))]
        for p in itertools.product(range(-4, 5), repeat=2):
            dominated = any(all(x >= y for x, y in zip(p, c)) for c in corners)
            assert dominated == is_regular_formula(E, (1, -2), p)


class TestCmRegularity:
    def test_segre_origin(self):
        assert cm_regularity(P1P1, (0, 0)) == 1

    def test_segre_positive_twist(self):
        assert cm_regularity(P1P1, (2, 3)) == -2

    def test_projective_space(self):
        assert cm_regularity(SegreVeronese((3,), (1,)), (0,)) == 0

    def test_negative_entries_floor_toward_minus_infinity(self):
        # floor((-3 + 2)/2) = -1, not 0
        assert cm_regularity(SegreVeronese((2,), (2,)), (-3,)) == 3

    def test_breakdown_rows(self):
        rows = cm_regularity_breakdown(P1P1, (0, 0))
        assert rows == [((0,), 1, 0), ((1,), 1, 0), ((0, 1), 2, 1)]
        assert max(v for _, _, v in rows) == cm_regularity(P1P1, (0, 0))

    def test_ties_in_the_sorted_form(self):
        # f = (0, 0, 0, 2): the best J is the whole run of equal f, l_J = 6
        E = SegreVeronese((1, 2, 3, 1), (1, 1, 1, 1))
        assert cm_regularity(E, (-1, -2, -3, 1)) == 6
        assert max(v for _, _, v in cm_regularity_breakdown(E, (-1, -2, -3, 1))) == 6


class TestSegreRegularity:
    # the two-factor Segre formula is a second route, private to verify
    def test_p1xp1_origin(self):
        assert verify._segre_regularity(1, 1, 0, 0) == 1

    def test_positive_twists(self):
        assert verify._segre_regularity(1, 1, 2, 3) == -2

    def test_asymmetric_factors(self):
        assert verify._segre_regularity(2, 3, 0, 0) == 2

    def test_matches_general_formula(self):
        E = SegreVeronese((2, 3), (1, 1))
        assert verify._segre_regularity(2, 3, 0, 0) == cm_regularity(E, (0, 0))


class TestIdealSheafBound:
    # one int by the simple form; its case split is a second route, private to verify
    def test_mixed_dimensions(self):
        bound = ideal_sheaf_bound(SegreVeronese((1, 2), (1, 1)))
        assert type(bound) is int and bound == 3

    def test_segre(self):
        assert ideal_sheaf_bound(P1P1) == 2

    def test_veronese(self):
        assert ideal_sheaf_bound(SegreVeronese((2,), (2,))) == 2

    def test_presentations_agree(self):
        for l in ((1,), (3,), (1, 2), (2, 2), (3, 1, 2)):
            for d in ((1,) * len(l), (2,) * len(l), (1, 3, 2)[: len(l)]):
                E = SegreVeronese(l, d)
                assert ideal_sheaf_bound(E) == verify._case_split_lambda(E)

    def test_bounds_structure_sheaf_regularity(self):
        E = SegreVeronese((1, 2), (1, 1))
        bound = ideal_sheaf_bound(E)
        reg_zero = cm_regularity(E, (0, 0))
        assert bound - 1 == 2
        assert reg_zero == 1
        assert bound - 1 > reg_zero


class TestSubadditivity:
    def test_origin_pair(self):
        report = check_subadditivity(P1P1, (0, 0), (0, 0))
        assert (report.reg_m, report.reg_m2, report.reg_sum) == (1, 1, 1)
        assert report.holds

    def test_positive_twists(self):
        report = check_subadditivity(P1P1, (2, 3), (2, 3))
        assert report.reg_m == report.reg_m2 == -2
        assert report.reg_sum == cm_regularity(P1P1, (4, 6)) == -4
        assert report.holds

    def test_projective_space(self):
        report = check_subadditivity(SegreVeronese((3,), (1,)), (0,), (0,))
        assert (report.reg_m, report.reg_m2, report.reg_sum) == (0, 0, 0)
        assert report.holds


class TestPairSubadditivity:
    def test_regular_pairs_stay_regular(self):
        status = check_pair_subadditivity(P1P1, (0, 0), (1, 1), (0, 0), (0, 1))
        assert status == "holds"

    def test_guard_on_irregular_input(self):
        status = check_pair_subadditivity(P1P1, (0, 0), (0, 0), (0, 0), (0, 1))
        assert status == "hypothesis-not-met"

    def test_single_factor(self):
        E = SegreVeronese((2,), (1,))
        assert cm_regularity(E, (1,)) == -1
        assert check_pair_subadditivity(E, (1,), (-1,), (0,), (0,)) == "holds"
