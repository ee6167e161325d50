"""Unit tests for Tate resolution columns and window endpoints, and for
the balanced closed form that verify replays them against."""
import itertools

import pytest

from svreg import tate
from svreg.cohomology import SegreVeronese
from svreg.regularity import cm_regularity
from svreg.tate import dual_twist, p_minus, tate_window
from svreg.verify import _balanced_endpoints, _kunneth_table, _p_minus_ceiling, _tate_term

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
    # p_plus is cm_regularity, which tate_window reports as the window's p_plus
    def test_p_plus_origin(self):
        assert tate_window(P1P1, (0, 0)).p_plus == 1

    def test_p_plus_unbalanced(self):
        assert tate_window(P1P1, (0, 2)).p_plus == 0

    def test_p_plus_projective_space(self):
        assert tate_window(SegreVeronese((3,), (1,)), (0,)).p_plus == 0

    def test_p_minus_origin(self):
        assert p_minus(P1P1, (0, 0)) == -1

    def test_p_minus_unbalanced(self):
        assert p_minus(P1P1, (0, 2)) == -2

    def test_constant_window_length(self):
        # (r-1)l + 1 = 2 here, whatever the constant twist is
        for m in range(-6, 7):
            assert cm_regularity(P1P1, (m, m)) - p_minus(P1P1, (m, m)) == 2

    def test_growing_window_length(self):
        # m = (0, M) with M >= l: length M - l + 1
        for M in range(1, 9):
            assert cm_regularity(P1P1, (0, M)) - p_minus(P1P1, (0, M)) == M

    def test_duality(self):
        E = SegreVeronese((2, 1), (1, 2))
        for m in ((0, 0), (3, -2), (-4, 5)):
            assert p_minus(E, m) == -cm_regularity(E, dual_twist(E, m))

    def test_ceiling_route_agrees(self):
        # the direct form that verify replays p_minus against
        for E in (P1P1, SegreVeronese((2, 1), (1, 2)), SegreVeronese((1, 2, 3), (3, 1, 2))):
            for m in itertools.product(range(-5, 6), repeat=E.r):
                assert _p_minus_ceiling(E, m) == p_minus(E, m)


class TestTateTerm:
    # the column-by-column route that verify replays windows against
    def test_middle_column(self):
        term = _tate_term(P1P1, (0, 0), 0)
        assert term.entries == ((0, 1), (2, 1))

    def test_column_above_window(self):
        term = _tate_term(P1P1, (0, 0), 2)
        assert term.entries == ((0, 9),)

    def test_column_below_window(self):
        term = _tate_term(P1P1, (0, 0), -2)
        assert term.entries == ((2, 9),)

    def test_matches_per_twist_route(self):
        # reference: the Bott-rules convolution of the factor tables, which
        # shares no code with cohomology._kunneth, the route columns read
        def reference(E, m, p):
            entries = []
            for i in range(E.n + 1):
                h = _kunneth_table(E.l, [mk + (p - i) * dk for mk, dk in zip(m, E.d)])[i]
                if h:
                    entries.append((i, h))
            return entries

        # 68,952 columns: m in -3..3 for r <= 2 and in -2..2 for r = 3
        for r in (1, 2, 3):
            twists = range(-2, 3) if r == 3 else range(-3, 4)
            for l in itertools.product((1, 2), repeat=r):
                for d in itertools.product((1, 2), repeat=r):
                    E = SegreVeronese(l, d)
                    for m in itertools.product(twists, repeat=r):
                        for p in range(p_minus(E, m) - 2, cm_regularity(E, m) + 3):
                            term = _tate_term(E, m, p)
                            assert term.p == p
                            assert list(term.entries) == reference(E, m, p)


class TestTateWindow:
    def test_segre_origin_window(self):
        # the README example
        window = tate_window(P1P1, (0, 0), 1)
        assert (window.p_minus, window.p_plus) == (-1, 1)
        shape = {t.p: list(t.entries) for t in window.terms}
        assert shape == {
            -2: [(2, 9)],
            -1: [(2, 4)],
            0: [(0, 1), (2, 1)],
            1: [(0, 4)],
            2: [(0, 9)],
        }

    def test_long_segre_window(self):
        # m = (0, M) on P^1 x P^1: p+ - p- = M, the middle columns are pure H^1
        window = tate_window(P1P1, (0, 40))
        assert (window.p_minus, window.p_plus) == (-40, 0)
        shape = {t.p: list(t.entries) for t in window.terms}
        assert shape == {
            -42: [(2, 129)], -41: [(2, 84)], -40: [(2, 41)], -39: [(1, 39)],
            -38: [(1, 76)], -37: [(1, 111)], -36: [(1, 144)], -35: [(1, 175)],
            -34: [(1, 204)], -33: [(1, 231)], -32: [(1, 256)], -31: [(1, 279)],
            -30: [(1, 300)], -29: [(1, 319)], -28: [(1, 336)], -27: [(1, 351)],
            -26: [(1, 364)], -25: [(1, 375)], -24: [(1, 384)], -23: [(1, 391)],
            -22: [(1, 396)], -21: [(1, 399)], -20: [(1, 400)], -19: [(1, 399)],
            -18: [(1, 396)], -17: [(1, 391)], -16: [(1, 384)], -15: [(1, 375)],
            -14: [(1, 364)], -13: [(1, 351)], -12: [(1, 336)], -11: [(1, 319)],
            -10: [(1, 300)], -9: [(1, 279)], -8: [(1, 256)], -7: [(1, 231)],
            -6: [(1, 204)], -5: [(1, 175)], -4: [(1, 144)], -3: [(1, 111)],
            -2: [(1, 76)], -1: [(1, 39)], 0: [(0, 41)], 1: [(0, 84)], 2: [(0, 129)],
        }

    def test_ranks_against_section_counts(self):
        # pure columns carry h^0(O(p,p)) = (p+1)^2 or h^2(O(p-2,p-2)) = (p-1)^2
        window = tate_window(P1P1, (0, 0), 3)
        for t in window.terms:
            if t.p >= window.p_plus:
                assert t.entries == ((0, (t.p + 1) ** 2),)
            if t.p <= window.p_minus:
                assert t.entries == ((2, (t.p - 1) ** 2),)

    def test_columns_are_consecutive(self):
        window = tate_window(SegreVeronese((2, 1), (1, 1)), (3, -1), 2)
        ps = [t.p for t in window.terms]
        assert ps == list(range(window.p_minus - 2, window.p_plus + 2 + 1))

    def test_rejects_negative_pad(self):
        with pytest.raises(ValueError):
            tate_window(P1P1, (0, 0), -1)


class TestWindowLimits:
    # each refused window makes no Kunneth call, so it is refused before
    # any column is built

    def test_column_limit_is_inclusive(self, kunneth_calls):
        # on P^1 x P^1, m = (0, M) has p+ - p- = M: M + 2 pad + 1 columns
        limit = tate._MAX_COLUMNS
        assert len(tate_window(P1P1, (0, limit - 5), 2).terms) == limit
        assert len(kunneth_calls) == limit + 2  # columns + n twists
        kunneth_calls.clear()
        with pytest.raises(ValueError, match=f"^the window has {limit + 1} columns, over the limit of {limit}$"):
            tate_window(P1P1, (0, limit - 4), 2)
        assert kunneth_calls == []

    def test_work_limit_is_inclusive(self, kunneth_calls):
        # on (P^1)^64, m = 0 has p+ - p- = 64: 65 + 2 pad columns, built
        # from columns + n Kunneth calls of r = 64 factor steps each
        E = SegreVeronese((1,) * 64, (1,) * 64)
        limit = tate._MAX_WORK
        pad = (limit // 64 - 129) // 2
        assert (len(tate_window(E, (0,) * 64, pad).terms) + 64) * 64 == limit
        assert len(kunneth_calls) * 64 == limit
        kunneth_calls.clear()
        with pytest.raises(ValueError, match=f"^the window takes {limit + 128} factor steps, over the limit of {limit}$"):
            tate_window(E, (0,) * 64, pad + 1)
        assert kunneth_calls == []

    def test_digits_limit_is_inclusive(self, kunneth_calls):
        # 59,900 columns on P^100 with d = 300,000: the twist farthest from
        # 0 is q = -30,000 and |q| d + 100 has 10 digits, so a rank has at
        # most D = 100 * 10 digits and the bound is (59,900 + 100) * D^2,
        # exactly the limit
        E = SegreVeronese((100,), (300_000,))
        limit = tate._MAX_DIGIT_WORK
        assert limit == 6 * 10**10
        assert len(tate_window(E, (0,), 29_899).terms) == 59_900
        kunneth_calls.clear()
        # one more column on each side: q = -30,001, still 10 digits
        with pytest.raises(ValueError, match=f"^the window's ranks take up to 60002000000 squared digits, over the limit of {limit}$"):
            tate_window(E, (0,), 29_900)
        assert kunneth_calls == []

    def test_library_window_is_refused_before_allocation(self, kunneth_calls):
        with pytest.raises(ValueError, match="^the window has 1000000005 columns, over the limit of 100000$"):
            tate_window(P1P1, (0, 10**9))
        assert kunneth_calls == []

    def test_digit_bound_takes_twists_past_the_str_conversion_limit(self):
        # on P^1 the window of O(M) is the window of O(0) moved by -M, so
        # its ranks stay small although |m| + |q| d has 5,001 digits, more
        # than CPython converts to str by default
        P1 = SegreVeronese((1,), (1,))
        M = 10**5000
        window, origin = tate_window(P1, (M,), 1), tate_window(P1, (0,), 1)
        assert (window.p_minus + M, window.p_plus + M) == (origin.p_minus, origin.p_plus)
        assert [t.entries for t in window.terms] == [t.entries for t in origin.terms]


P2P2P2 = SegreVeronese((2, 2, 2), (1, 1, 1))


class TestBalancedEndpoints:
    # the balanced closed form is a second route, private to verify
    def test_segre_origin(self):
        assert _balanced_endpoints(P1P1, (0, 0)) == (1, -1)

    def test_unbalanced(self):
        assert _balanced_endpoints(P1P1, (0, 2)) == (0, -2)

    def test_three_factors(self):
        assert _balanced_endpoints(P2P2P2, (7, 7, 7)) == (-3, -8)

    def test_matches_general_operations(self):
        for ms in ((0, 0, 0), (-3, 0, 2), (5, 5, 5), (-6, -6, 6)):
            assert _balanced_endpoints(P2P2P2, ms) == (cm_regularity(P2P2P2, ms), p_minus(P2P2P2, ms))

    def test_balanced_length_independent_of_twist(self):
        E = SegreVeronese((2, 2, 2), (1, 1, 1))
        m = (5, 5, 5)
        assert cm_regularity(E, m) - p_minus(E, m) == 5

    def test_unsorted_m_matches_sorted(self):
        for ms in ((2, 0, -3), (6, -6, -6), (0, 5, 1)):
            assert _balanced_endpoints(P2P2P2, ms) == _balanced_endpoints(P2P2P2, sorted(ms))
            assert _balanced_endpoints(P2P2P2, ms) == (cm_regularity(P2P2P2, ms), p_minus(P2P2P2, ms))
