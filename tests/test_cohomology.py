"""Unit tests for the exact cohomology engine."""
import pickle
import time

import pytest

from svreg.cohomology import (
    _MAX_DIMENSION,
    CohomologyProfile,
    SegreVeronese,
    product_cohomology,
)
from svreg.regularity import is_regular_oracle
from svreg.verify import _factor_table, _kunneth_table


class TestFactorCohomology:
    # the single-factor tables of verify's Kunneth convolution route

    def test_sections_of_o3_on_p2(self):
        assert _factor_table(2, 3) == [10, 0, 0]

    def test_dead_window(self):
        for j in range(-2, 0):
            assert _factor_table(2, j) == [0, 0, 0]

    def test_top_degree_via_serre_duality(self):
        # h^2(O(-4)) on P^2 equals h^0(O(-(-4) - 2 - 1)) = h^0(O(1))
        expected = _factor_table(2, 1)[0]
        assert expected == 3
        assert _factor_table(2, -4) == [0, 0, expected]

    def test_canonical_bundle(self):
        assert _factor_table(2, -3) == [0, 0, 1]


class TestCohomologyProfile:
    def test_zero_profile(self):
        assert CohomologyProfile(None, None).h(0) == 0

    def test_half_present_rejected(self):
        with pytest.raises(ValueError):
            CohomologyProfile(1, None)
        with pytest.raises(ValueError):
            CohomologyProfile(None, 4)

    def test_zero_dimension_rejected(self):
        with pytest.raises(ValueError):
            CohomologyProfile(0, 0)

    def test_negative_degree_rejected(self):
        with pytest.raises(ValueError, match="^degree must be >= 0, got -1$"):
            CohomologyProfile(-1, 1)

    def test_replace_and_make_keep_the_checks(self):
        with pytest.raises(ValueError, match="^degree must be >= 0, got -1$"):
            CohomologyProfile(0, 1)._replace(degree=-1, dimension=0)
        with pytest.raises(ValueError, match="^degree and dimension must be both present or both absent$"):
            CohomologyProfile._make((None, 5))
        assert CohomologyProfile(0, 1)._replace(dimension=3) == CohomologyProfile._make((0, 3)) == (0, 3)

    def test_table(self):
        assert CohomologyProfile(1, 7).table(3) == [0, 7, 0, 0]
        assert CohomologyProfile(None, None).table(2) == [0, 0, 0]

    def test_table_too_short(self):
        with pytest.raises(ValueError):
            CohomologyProfile(3, 1).table(2)


class TestProductCohomology:
    def test_mixed_degrees(self):
        E = SegreVeronese((1, 1), (1, 1))
        profile = product_cohomology(E, (-2, 0))
        assert (profile.degree, profile.dimension) == (1, 1)

    def test_trivial_bundle(self):
        E = SegreVeronese((1, 1), (1, 1))
        profile = product_cohomology(E, (0, 0))
        assert (profile.degree, profile.dimension) == (0, 1)

    def test_top_degree_product(self):
        E = SegreVeronese((1, 2), (1, 1))
        profile = product_cohomology(E, (-2, -4))
        assert (profile.degree, profile.dimension) == (3, 3)

    def test_one_dead_factor_kills_everything(self):
        E = SegreVeronese((1, 2), (1, 1))
        assert product_cohomology(E, (5, -1)) == (None, None)

    def test_matches_kunneth_convolution(self):
        E = SegreVeronese((1, 2), (1, 1))
        for a0 in range(-5, 5):
            for a1 in range(-5, 5):
                assert product_cohomology(E, (a0, a1)).table(3) == _kunneth_table(E.l, (a0, a1))

    def test_length_mismatch(self):
        E = SegreVeronese((1, 1), (1, 1))
        with pytest.raises(ValueError):
            product_cohomology(E, (1, 2, 3))


class TestEulerCharacteristic:
    def test_signed_value(self):
        E = SegreVeronese((1, 1), (1, 1))
        assert product_cohomology(E, (-2, 0)).euler_characteristic == -1

    def test_structure_sheaf(self):
        E = SegreVeronese((2,), (1,))
        assert product_cohomology(E, (0,)).euler_characteristic == 1

    def test_root_of_factor_polynomial(self):
        E = SegreVeronese((1, 1), (1, 1))
        assert product_cohomology(E, (-1, 5)).euler_characteristic == 0

    def test_alternating_sum_agreement(self):
        E = SegreVeronese((2, 1), (1, 1))
        for a0 in range(-5, 5):
            for a1 in range(-5, 5):
                table = _kunneth_table(E.l, (a0, a1))
                alternating = sum(v if i % 2 == 0 else -v for i, v in enumerate(table))
                assert product_cohomology(E, (a0, a1)).euler_characteristic == alternating


class TestSegreVeronese:
    def test_ambient_dimension_segre(self):
        assert SegreVeronese((1, 1), (1, 1)).ambient_dim == 3

    def test_ambient_dimension_veronese(self):
        assert SegreVeronese((2,), (2,)).ambient_dim == 5

    def test_total_dimension(self):
        assert SegreVeronese((1, 2, 3), (1, 1, 1)).n == 6

    def test_r(self):
        assert SegreVeronese((1, 2), (3, 4)).r == 2

    def test_accepts_lists(self):
        E = SegreVeronese([2, 2], [1, 3])
        assert E.l == (2, 2) and E.d == (1, 3)

    @pytest.mark.parametrize(
        "l, d",
        [((), ()), ((1,), (1, 1)), ((0, 1), (1, 1)), ((1, 1), (1, 0))],
    )
    def test_rejects_bad_shapes(self, l, d):
        with pytest.raises(ValueError):
            SegreVeronese(l, d)

    @pytest.mark.parametrize(
        "l, d, message",
        [
            ((1.5, 2), (1, 1), r"^l entries must be integers, got l=\(1\.5, 2\)$"),
            ((1, 2), (1, "2"), r"^d entries must be integers, got d=\(1, '2'\)$"),
            ((1.5, "2"), (1, True), r"^l entries must be integers, got l=\(1\.5, '2'\)$"),
            # before the range and length checks
            ((0, 1.0), (1,), r"^l entries must be integers, got l=\(0, 1\.0\)$"),
        ],
    )
    def test_rejects_entries_that_are_not_int(self, l, d, message):
        with pytest.raises(ValueError, match=message):
            SegreVeronese(l, d)

    def test_unpickling_runs_the_constructor(self, monkeypatch):
        # verify hands embeddings to forked workers by pickle; an instance
        # built by the constructor keeps the attribute layout the hot loops
        # rely on
        E = SegreVeronese((1, 2), (3, 1))
        built = []
        real = SegreVeronese.__init__
        monkeypatch.setattr(SegreVeronese, "__init__", lambda self, l, d: built.append(real(self, l, d)))
        copy = pickle.loads(pickle.dumps(E))
        assert (copy, hash(copy), len(built)) == (E, hash(E), 1)
        # the dimension is summed again by the constructor, not carried over
        assert copy.n == sum(copy.l) == 3
        # slots, no __dict__: the layout whose loads CPython specializes
        assert not hasattr(copy, "__dict__")

    def test_fields_are_frozen(self):
        E = SegreVeronese((1, 2), (3, 1))
        with pytest.raises(AttributeError):
            E.l = (2, 2)
        with pytest.raises(AttributeError):
            del E.l
        assert E.l == (1, 2)
        # the stored dimension is as frozen as the fields it is summed from
        with pytest.raises(AttributeError):
            E.n = 4
        with pytest.raises(AttributeError):
            del E.n
        assert E.n == 3
        # compared by value with its own class only: a tuple is not an embedding
        assert (E == (E.l, E.d)) is False


class TestDimensionLimit:
    @pytest.mark.parametrize("l", [(_MAX_DIMENSION + 1,), (1000, _MAX_DIMENSION - 999), (200000,)])
    def test_over_the_limit_is_refused_at_once(self, l):
        # at l = a = (200000,) the Kunneth binomial alone took seconds
        E = SegreVeronese(l, (1,) * len(l))
        a = (200000,) * len(l)
        message = f"^the product has dimension n={sum(l)}, over the limit of {_MAX_DIMENSION}$"
        for call in (product_cohomology, lambda E, a: is_regular_oracle(E, a, a)):
            started = time.perf_counter()
            with pytest.raises(ValueError, match=message):
                call(E, a)
            assert time.perf_counter() - started < 0.1

    def test_at_the_limit_each_call_answers(self):
        E = SegreVeronese((_MAX_DIMENSION,), (1,))
        assert product_cohomology(E, (0,)) == CohomologyProfile(0, 1)
        assert product_cohomology(E, (-_MAX_DIMENSION - 1,)).euler_characteristic == 1
        assert is_regular_oracle(E, (0,), (0,))
