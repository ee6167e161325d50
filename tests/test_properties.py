"""Property tests: randomized instances of the invariants that the
exhaustive acceptance grids also cover, plus a few structural laws."""
import itertools
import math

import hypothesis.strategies as st
from hypothesis import given, settings

from svreg.cohomology import SegreVeronese, product_cohomology
from svreg.regularity import (
    check_subadditivity,
    cm_regularity,
    ideal_sheaf_bound,
    is_regular_formula,
    is_regular_oracle,
    regularity_corners,
)
from svreg.tate import dual_twist, p_minus, tate_window
from svreg.verify import (
    _balanced_endpoints,
    _case_split_lambda,
    _euler_polynomial,
    _factor_table,
    _segre_regularity,
    _tate_term,
)
from conftest import replay_table


@st.composite
def embeddings(draw, max_r=3, max_l=3, max_d=3):
    r = draw(st.integers(1, max_r))
    l = tuple(draw(st.integers(1, max_l)) for _ in range(r))
    d = tuple(draw(st.integers(1, max_d)) for _ in range(r))
    return SegreVeronese(l, d)


@st.composite
def embedding_and_vectors(draw, count=1, lo=-8, hi=8, **kwargs):
    E = draw(embeddings(**kwargs))
    vectors = tuple(
        tuple(draw(st.integers(lo, hi)) for _ in range(E.r)) for _ in range(count)
    )
    return (E, *vectors)


def definitional_regularity(E, m, p):
    """Slow reference for the oracle, routed through full profiles."""
    for i in range(1, E.n + 1):
        a = tuple(mk + pk - i * dk for mk, pk, dk in zip(m, p, E.d))
        if product_cohomology(E, a).degree == i:
            return False
    return True


@given(embedding_and_vectors(count=2))
@settings(max_examples=300)
def test_formula_matches_oracle(data):
    E, m, p = data
    assert is_regular_formula(E, m, p) == is_regular_oracle(E, m, p)


# the entries also reach down to -40, far below regularity, where the
# oracle's top-down scan stops at its first degree, i = n
@given(st.one_of(embedding_and_vectors(count=2), embedding_and_vectors(count=2, lo=-40)))
@settings(max_examples=300)
def test_oracle_matches_definitional_reference(data):
    E, m, p = data
    assert is_regular_oracle(E, m, p) == definitional_regularity(E, m, p)


@given(embedding_and_vectors(count=2))
@settings(max_examples=300)
def test_membership_matches_formula(data):
    # Proposition regset: the regularity set is the union of the orthants
    # at the corners
    E, m, p = data
    dominated = any(all(x >= y for x, y in zip(p, c.corner)) for c in regularity_corners(E, m))
    assert dominated == is_regular_formula(E, m, p)


@given(embedding_and_vectors(count=2))
@settings(max_examples=200)
def test_regularity_set_is_upward_closed(data):
    E, m, p = data
    if is_regular_formula(E, m, p):
        for k in range(E.r):
            bumped = tuple(pk + (1 if i == k else 0) for i, pk in enumerate(p))
            assert is_regular_formula(E, m, bumped)


@given(embedding_and_vectors(max_r=5))
@settings(max_examples=200)
def test_corners_are_regular_and_form_an_antichain(data):
    E, m = data
    corners = regularity_corners(E, m)
    assert len(corners) == math.factorial(E.r)
    for c in corners:
        assert is_regular_formula(E, m, c.corner)
    # no corner lies componentwise on or above another
    for c, o in itertools.combinations(corners, 2):
        assert not all(x >= y for x, y in zip(c.corner, o.corner))
        assert not all(x <= y for x, y in zip(c.corner, o.corner))


@given(embedding_and_vectors(max_r=5))
@settings(max_examples=200)
def test_corners_translate_by_minus_m(data):
    # corner(m) = corner(0) - m for each permutation, in the same order
    E, m = data
    at_zero = regularity_corners(E, (0,) * E.r)
    shifted = [c._replace(corner=tuple(ck - mk for ck, mk in zip(c.corner, m))) for c in at_zero]
    assert regularity_corners(E, m) == shifted


@given(embedding_and_vectors())
@settings(max_examples=200)
def test_cm_regularity_is_the_minimal_twist(data):
    E, m = data
    rho = cm_regularity(E, m)
    at = tuple(rho * dk for dk in E.d)
    below = tuple((rho - 1) * dk for dk in E.d)
    assert is_regular_formula(E, m, at)
    assert not is_regular_formula(E, m, below)


@given(embedding_and_vectors(count=2))
@settings(max_examples=300)
def test_subadditivity(data):
    E, m, m2 = data
    assert check_subadditivity(E, m, m2).holds


@given(embedding_and_vectors(lo=-10, hi=10, max_l=4))
@settings(max_examples=300)
def test_serre_duality(data):
    E, a = data
    n = E.n
    profile = product_cohomology(E, a)
    dual = product_cohomology(E, tuple(-ak - lk - 1 for ak, lk in zip(a, E.l)))
    assert (profile.degree is None) == (dual.degree is None)
    if profile.degree is not None:
        assert dual.degree == n - profile.degree
        assert dual.dimension == profile.dimension


@given(embedding_and_vectors(lo=-10, hi=10, max_l=4))
@settings(max_examples=300)
def test_euler_characteristic_is_the_alternating_sum(data):
    # chi read off the profile against verify's polynomial route
    E, a = data
    assert product_cohomology(E, a).euler_characteristic == _euler_polynomial(E.l, a)


@given(st.integers(1, 4), st.integers(-12, 12))
@settings(max_examples=300)
def test_factor_cohomology_euler_and_serre(l, j):
    # the tables of verify's convolution route: h^i(O(j)) = h^(l-i)(O(-j-l-1))
    table = _factor_table(l, j)
    assert _factor_table(l, -j - l - 1) == table[::-1]
    assert sum(1 for v in table if v) <= 1
    chi = product_cohomology(SegreVeronese((l,), (1,)), (j,)).euler_characteristic
    assert chi == sum(v if i % 2 == 0 else -v for i, v in enumerate(table))


@given(embedding_and_vectors())
@settings(max_examples=300)
def test_dual_twist_involution_and_endpoint_duality(data):
    E, m = data
    md = dual_twist(E, m)
    assert dual_twist(E, md) == m
    assert p_minus(E, m) == -cm_regularity(E, md)


@given(embedding_and_vectors(lo=-5, hi=5, max_l=2, max_d=2))
@settings(max_examples=60, deadline=None)
def test_window_structure_and_positive_length(data):
    E, m = data
    window = tate_window(E, m, 2)
    assert window.p_plus == cm_regularity(E, m)
    assert window.p_plus - window.p_minus >= 1
    for term in window.terms:
        for i, rank in term.entries:
            assert rank >= 1
            assert 0 <= i <= E.n
    table = replay_table(E, m)
    assert window.terms == tuple(_tate_term(E, p, table) for p in range(window.p_minus - 2, window.p_plus + 3))


@given(st.integers(1, 3), st.lists(st.integers(-6, 6), min_size=1, max_size=3))
@settings(max_examples=300)
def test_balanced_endpoints_match_general_operations(l, ms):
    # ms is drawn in any order: _balanced_endpoints sorts it itself
    E = SegreVeronese((l,) * len(ms), (1,) * len(ms))
    assert _balanced_endpoints(E, ms) == (cm_regularity(E, ms), p_minus(E, ms))


@given(st.integers(1, 3), st.integers(1, 3), st.integers(-5, 5), st.integers(-5, 5))
@settings(max_examples=300)
def test_segre_closed_form_matches_general(a, b, k, l):
    E = SegreVeronese((a, b), (1, 1))
    assert _segre_regularity(a, b, k, l) == cm_regularity(E, (k, l))


@given(embeddings(max_r=4, max_l=4, max_d=4))
@settings(max_examples=300)
def test_ideal_sheaf_bound_dominates_structure_sheaf(E):
    bound = ideal_sheaf_bound(E)
    assert bound == _case_split_lambda(E)
    assert bound - 1 >= cm_regularity(E, (0,) * E.r)
