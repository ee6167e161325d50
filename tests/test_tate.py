"""Unit tests for Tate resolution columns, window endpoints and the
balanced closed form."""
import itertools

import pytest

from svreg.cohomology import SegreVeronese
from svreg.tate import (
    TateEntry,
    TateTerm,
    balanced_endpoints,
    dual_twist,
    p_minus,
    p_plus,
    tate_term,
    tate_window,
)
from svreg.verify import _p_minus_ceiling

P1P1 = SegreVeronese((1, 1), (1, 1))


class TestDualTwist:
    def test_fixed_point(self):
        assert dual_twist(P1P1, (0, 0)) == (0, 0)

    def test_componentwise(self):
        assert dual_twist(P1P1, (2, 3)) == (-2, -3)

    def test_involution(self):
        for m in ((0, 0), (2, 3), (-5, 1), (7, -7)):
            assert dual_twist(P1P1, dual_twist(P1P1, m)) == m

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            dual_twist(P1P1, (1,))


class TestEndpoints:
    def test_p_plus_origin(self):
        assert p_plus(P1P1, (0, 0)) == 1

    def test_p_plus_unbalanced(self):
        assert p_plus(P1P1, (0, 2)) == 0

    def test_p_plus_projective_space(self):
        assert p_plus(SegreVeronese((3,), (1,)), (0,)) == 0

    def test_p_minus_origin(self):
        assert p_minus(P1P1, (0, 0)) == -1

    def test_p_minus_unbalanced(self):
        assert p_minus(P1P1, (0, 2)) == -2

    def test_constant_window_length(self):
        # (r-1)l + 1 = 2 here, whatever the constant twist is
        for m in range(-6, 7):
            assert p_plus(P1P1, (m, m)) - p_minus(P1P1, (m, m)) == 2

    def test_growing_window_length(self):
        # m = (0, M) with M >= l: length M - l + 1
        for M in range(1, 9):
            assert p_plus(P1P1, (0, M)) - p_minus(P1P1, (0, M)) == M

    def test_duality(self):
        E = SegreVeronese((2, 1), (1, 2))
        for m in ((0, 0), (3, -2), (-4, 5)):
            assert p_minus(E, m) == -p_plus(E, dual_twist(E, m))

    def test_ceiling_route_agrees(self):
        # the direct form that verify replays p_minus against
        for E in (P1P1, SegreVeronese((2, 1), (1, 2)), SegreVeronese((1, 2, 3), (3, 1, 2))):
            for m in itertools.product(range(-5, 6), repeat=E.r):
                assert _p_minus_ceiling(E, m) == p_minus(E, m)


class TestTateTerm:
    def test_middle_column(self):
        term = tate_term(P1P1, (0, 0), 0)
        assert [(e.i, e.twist, e.rank) for e in term.entries] == [(0, 0, 1), (2, 2, 1)]

    def test_column_above_window(self):
        term = tate_term(P1P1, (0, 0), 2)
        assert [(e.i, e.twist, e.rank) for e in term.entries] == [(0, -2, 9)]

    def test_column_below_window(self):
        term = tate_term(P1P1, (0, 0), -2)
        assert [(e.i, e.twist, e.rank) for e in term.entries] == [(2, 4, 9)]

    def test_twist_law_enforced(self):
        with pytest.raises(ValueError):
            TateTerm(0, (TateEntry(1, 5, 2),))

    def test_rank_positive_enforced(self):
        with pytest.raises(ValueError):
            TateEntry(0, 0, 0)


class TestTateWindow:
    def test_segre_origin_window(self):
        window = tate_window(P1P1, (0, 0), 1)
        assert (window.p_minus, window.p_plus) == (-1, 1)
        shape = {
            t.p: [(e.i, e.twist, e.rank) for e in t.entries] for t in window.terms
        }
        assert shape == {
            -2: [(2, 4, 9)],
            -1: [(2, 3, 4)],
            0: [(0, 0, 1), (2, 2, 1)],
            1: [(0, -1, 4)],
            2: [(0, -2, 9)],
        }

    def test_ranks_against_section_counts(self):
        # pure columns carry h^0(O(p,p)) = (p+1)^2 or h^2(O(p-2,p-2)) = (p-1)^2
        window = tate_window(P1P1, (0, 0), 3)
        for t in window.terms:
            if t.p >= window.p_plus:
                assert [(e.i, e.rank) for e in t.entries] == [(0, (t.p + 1) ** 2)]
            if t.p <= window.p_minus:
                assert [(e.i, e.rank) for e in t.entries] == [(2, (t.p - 1) ** 2)]

    def test_columns_are_consecutive(self):
        window = tate_window(SegreVeronese((2, 1), (1, 1)), (3, -1), 2)
        ps = [t.p for t in window.terms]
        assert ps == list(range(window.p_minus - 2, window.p_plus + 2 + 1))

    def test_rejects_negative_pad(self):
        with pytest.raises(ValueError):
            tate_window(P1P1, (0, 0), -1)


class TestBalancedEndpoints:
    def test_segre_origin(self):
        assert balanced_endpoints(2, 1, (0, 0)) == (1, -1)

    def test_unbalanced(self):
        assert balanced_endpoints(2, 1, (0, 2)) == (0, -2)

    def test_three_factors(self):
        assert balanced_endpoints(3, 2, (7, 7, 7)) == (-3, -8)

    def test_matches_general_operations(self):
        E = SegreVeronese((2, 2, 2), (1, 1, 1))
        for ms in ((0, 0, 0), (-3, 0, 2), (5, 5, 5), (-6, -6, 6)):
            assert balanced_endpoints(3, 2, ms) == (p_plus(E, ms), p_minus(E, ms))

    def test_balanced_length_independent_of_twist(self):
        E = SegreVeronese((2, 2, 2), (1, 1, 1))
        m = (5, 5, 5)
        assert p_plus(E, m) - p_minus(E, m) == 5

    def test_rejects_unsorted(self):
        with pytest.raises(ValueError):
            balanced_endpoints(2, 1, (2, 0))

    def test_rejects_wrong_length(self):
        with pytest.raises(ValueError):
            balanced_endpoints(3, 1, (0, 0))
