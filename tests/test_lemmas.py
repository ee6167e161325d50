"""Replays of the three lemmas that cut a statement about every twist down
to finitely many classes, each on every class of the small embeddings:
saturation (the regularity tests see c = m + p only through a clamp),
subadditivity (class vectors in {0..n}^r with minimum 0 suffice) and the
endpoint classes (p_minus sees m only through ceil((m_k + 1)/d_k)).  Each
helper returns the classes that fail and the number it walked, so a check
built on a lemma can reuse its enumeration."""
import itertools
import operator

import pytest

from svreg import regularity, tate, verify
from svreg.cohomology import SegreVeronese


def embeddings(r, bound):
    """Every embedding with r factors and l_k, d_k <= bound."""
    sides = list(itertools.product(range(1, bound + 1), repeat=r))
    return [SegreVeronese(l, d) for l in sides for d in sides]


SMALL = embeddings(1, 3) + embeddings(2, 3)  # r <= 2 with l_k, d_k <= 3
R3 = embeddings(3, 2)  # r = 3 with l_k, d_k <= 2


def shifted(m, shift):
    return tuple(map(operator.add, m, shift))


def raised(m, k, s):
    """m with s added to its k-th entry."""
    return m[:k] + (m[k] + s,) + m[k + 1:]


def saturation_failures(E):
    """The classes c, at m = 0, of the saturation box
    clamp(c_k, d_k - l_k - 1, n d_k) widened by one step past every face,
    on which the closed form, the oracle and domination of a corner of O(0)
    disagree, or answer otherwise than at the clamp of c.

    The lemma: for c_k >= n d_k, every j = c_k - i d_k with i <= n is >= 0,
    and f_k = floor((c_k + l_k)/d_k) >= n >= l_J; for c_k <= d_k - l_k - 1,
    every j with i >= 1 is < -l_k, and f_k <= 0 < l_J.  Corner membership
    reads c_k >= s_k d_k - l_k, which saturates at the same points."""
    zero = (0,) * E.r
    lo = [dk - lk - 1 for lk, dk in zip(E.l, E.d)]
    hi = [E.n * dk for dk in E.d]
    span = [range(a - 1, b + 2) for a, b in zip(lo, hi)]
    corners = [corner.corner for corner in regularity.regularity_corners(E, zero)]
    answers = {
        c: (regularity.is_regular_formula(E, zero, c), regularity.is_regular_oracle(E, zero, c), dominated)
        for c, dominated in zip(itertools.product(*span), verify._dominated(corners, span))
    }
    failures = [
        c
        for c, answer in answers.items()
        if len(set(answer)) > 1 or answer != answers[tuple(min(max(ck, a), b) for ck, a, b in zip(c, lo, hi))]
    ]
    return failures, len(answers)


def class_twists(E):
    """m_k = a'_k d_k - l_k for each a' in {0..n}^r with minimum 0: the
    twist whose f_k = floor((m_k + l_k)/d_k) is a'_k at residue 0."""
    return [
        tuple(ak * dk - lk for ak, lk, dk in zip(a, E.l, E.d))
        for a in itertools.product(range(E.n + 1), repeat=E.r)
        if min(a) == 0
    ]


def premises_hold(E, m):
    """The premises the subadditivity lemma reads on one class: a residue
    step leaves cm_regularity unchanged, m + d lowers it by one, and
    a'_k + 1 never raises it, nor changes it from a'_k = n."""
    reg = regularity.cm_regularity
    base = reg(E, m)
    if reg(E, shifted(m, E.d)) != base - 1:
        return False
    for k, (mk, lk, dk) in enumerate(zip(m, E.l, E.d)):
        if any(reg(E, raised(m, k, s)) != base for s in range(1, dk)):
            return False
        up = reg(E, raised(m, k, dk))
        if up > base or (up != base and mk + lk == E.n * dk):
            return False
    return True


def subadditivity_failures(E):
    """The class twists whose premises fail, and the unordered pairs of
    them that fail check_subadditivity.

    The lemma: cm_regularity(m) is R(a) with a_k = floor((m_k + l_k)/d_k)
    and R(f) = max over J of (l_J - max_{k in J} f_k).  R(f + t) = R(f) - t,
    so both twists may be shifted to min a = 0, where R(a) = R(min(a, n));
    R falls in each coordinate and the sum's f_k is at least a_k + b_k -
    ceil(l_k/d_k), so the slack is least at residue 0."""
    twists = class_twists(E)
    pairs = list(itertools.combinations_with_replacement(twists, 2))
    failures = [m for m in twists if not premises_hold(E, m)]
    failures += [(m, m2) for m, m2 in pairs if not regularity.check_subadditivity(E, m, m2).holds]
    return failures, len(pairs)


def endpoint_twists(E):
    """m_k = g_k d_k - 1 - s_k for each g in {0..n+1}^r with minimum 0 and
    each residue s_k in 0..d_k - 1: the twists with ceil((m_k + 1)/d_k) = g_k."""
    return [
        tuple(gk * dk - 1 - sk for gk, dk, sk in zip(g, E.d, s))
        for g in itertools.product(range(E.n + 2), repeat=E.r)
        if min(g) == 0
        for s in itertools.product(*[range(dk) for dk in E.d])
    ]


def endpoint_failures(E):
    """The endpoint twists on which p_minus disagrees with its ceiling form
    or the dual twist is no involution, or on which m + d does not lower
    both cm_regularity and p_minus by one."""
    reg, p_minus = regularity.cm_regularity, tate.p_minus
    twists = endpoint_twists(E)
    failures = [
        m
        for m in twists
        if verify._duality_failure(E, m) is not None
        or reg(E, shifted(m, E.d)) != reg(E, m) - 1
        or p_minus(E, shifted(m, E.d)) != p_minus(E, m) - 1
    ]
    return failures, len(twists)


def replay(helper, grid):
    """Every failure of the helper over the grid, with its embedding, and
    the number of instances walked."""
    failures, walked = [], 0
    for E in grid:
        bad, count = helper(E)
        failures += [(E, instance) for instance in bad]
        walked += count
    return failures, walked


def test_saturation_lemma_on_every_class():
    # the classes up to c_k = n d_k + 1 = 19, past the box walk's 16
    assert replay(saturation_failures, SMALL) == ([], 12_384)


@pytest.mark.parametrize("grid, pairs", [(SMALL, 3_870), (R3, 216_496)], ids=["r<=2", "r=3"])
def test_subadditivity_lemma_on_every_class_pair(grid, pairs):
    assert replay(subadditivity_failures, grid) == ([], pairs)


def test_endpoint_classes_on_every_representative():
    assert replay(endpoint_failures, SMALL) == ([], 3_582)
