"""Regularity of line bundles with respect to the embedding bundle.

O(m) is called O(p)-regular (with respect to B = O(d)) when
H^i(O(m + p - i*d)) = 0 for every i > 0.  Everything in this module hangs
off two routes to that predicate: a closed form, computed by one sort of
the factors, and a brute-force scan of the finitely many cohomology groups
involved.  The two must agree everywhere; ``svreg verify`` replays that
agreement on exhaustive grids.

Conventions: factor indices are 0-based and all floors are mathematical
(toward -infinity, which is what Python's // does).  Only the functions
that list one row per subset or per permutation of the factors enumerate
them, and they refuse more factors than a fixed limit.
"""
from __future__ import annotations

import itertools
import operator
from functools import lru_cache
from typing import Literal, NamedTuple, Sequence

from .cohomology import SegreVeronese, _check_dimension, _check_lengths

# Output with one row per permutation or per subset of the factors grows
# like r! or 2^r; these are the largest r for which it is listed.
_MAX_CORNER_FACTORS = 8
_MAX_BREAKDOWN_FACTORS = 16

PairStatus = Literal["holds", "fails", "hypothesis-not-met"]


class RegularityCorner(NamedTuple):
    """One translate corner of the regularity set.

    ``sigma`` lists factor indices in peel order: sigma[0] is charged for
    the full factor set, sigma[i] for the suffix sigma[i:].  The corner has
    k-th entry -m_k - l_k + l_{J(sigma,k)} * d_k where J(sigma,k) is the
    suffix containing k.
    """

    sigma: tuple[int, ...]
    corner: tuple[int, ...]


class SubadditivityReport(NamedTuple):
    """The three regularities entering reg(m) + reg(m2) >= reg(m + m2)."""

    reg_m: int
    reg_m2: int
    reg_sum: int
    holds: bool


@lru_cache(maxsize=4096)
def _regularity(l: tuple[int, ...], d: tuple[int, ...], c: tuple[int, ...]) -> int:
    """max over nonempty J of (l_J - max_{k in J} f_k), f_k = floor((c_k + l_k)/d_k),
    in O(r log r) instead of over 2^r subsets.

    Once the k of J with the largest f_k is fixed, l_J is largest when J
    holds every j with f_j <= f_k, so the max runs over the prefixes of the
    factors sorted by f.  A prefix that stops inside a run of equal f is
    beaten by the one that ends the run, so every prefix may be read."""
    best = None
    total = 0
    for fk, lk in sorted(zip(map(operator.floordiv, map(operator.add, c, l), d), l)):
        total += lk
        if best is None or total - fk > best:
            best = total - fk
    return best


def is_regular_formula(E: SegreVeronese, m: Sequence[int], p: Sequence[int]) -> bool:
    """Closed-form regularity test: O(m) is O(p)-regular for B = O(d) iff
    every nonempty subset J of factors contains some k with
    p_k + m_k + l_k - l_J * d_k >= 0, that is, with
    floor((m_k + p_k + l_k)/d_k) >= l_J.  That holds for every J iff
    reg(m + p) <= 0, so the test is one evaluation of the sorted form
    behind cm_regularity, memoized on (l, d, m + p).  By Proposition regset
    it is also membership in the union of the orthants at the corners of
    ``regularity_corners``."""
    r = len(E.l)
    if len(m) != r or len(p) != r:
        _check_lengths(E, m=m, p=p)
    return _regularity(E.l, E.d, tuple(map(operator.add, m, p))) <= 0


def is_regular_oracle(E: SegreVeronese, m: Sequence[int], p: Sequence[int]) -> bool:
    """Brute-force regularity test straight from the definition: check that
    H^i(O(m + p - i*d)) = 0 for every i in 1..n.

    The check is finite and complete because each twist concentrates in a
    single degree, so H^i of the i-th twist is nonzero exactly when that
    concentration degree equals i.  The scan depends on m and p only
    through m + p, and is memoized on (l, d, m + p).  Refuses a product of
    dimension n over ``cohomology._MAX_DIMENSION`` before it scans.
    """
    l = E.l
    r = len(l)
    if len(m) != r or len(p) != r:
        _check_lengths(E, m=m, p=p)
    return _oracle_scan(l, E.d, tuple(map(operator.add, m, p)))


@lru_cache(maxsize=4096)
def _oracle_scan(l: tuple[int, ...], d: tuple[int, ...], c: tuple[int, ...]) -> bool:
    """The scan behind is_regular_oracle for the twist c = m + p.  The
    factor windows are inlined here rather than routed through
    CohomologyProfile; grid verification calls it millions of times, and
    the pairs of one embedding share a few thousand sums c."""
    r = len(l)
    n = sum(l)
    _check_dimension(n)
    for i in range(1, n + 1):
        degree = 0
        alive = True
        for k in range(r):
            j = c[k] - i * d[k]
            if j < 0:
                lk = l[k]
                if j >= -lk:
                    alive = False
                    break
                degree += lk
        if alive and degree == i:
            return False
    return True


def regularity_corners(E: SegreVeronese, m: Sequence[int]) -> list[RegularityCorner]:
    """Corner points whose translated positive orthants union to the
    regularity set of O(m), one per permutation of the factors in
    lexicographic order.  Refuses more than ``_MAX_CORNER_FACTORS`` factors.

    No corner lies below another.  Corner k of a permutation is
    -m_k - l_k + s_k d_k with s_k the l-sum of k and the factors after it;
    if the corner of tau lies below that of sigma, every s_k under tau is
    at most its value under sigma, the first factor of tau has s = n under
    both, so it comes first in sigma too, and by induction tau = sigma.
    """
    _check_lengths(E, m=m)
    l = E.l
    d = E.d
    r = len(l)
    if r > _MAX_CORNER_FACTORS:
        raise ValueError(f"r={r} has {r}! permutations of the factors, over the limit of r={_MAX_CORNER_FACTORS}")
    corners = []
    for sigma in itertools.permutations(range(r)):
        suffix = [0] * (r + 1)
        for i in range(r - 1, -1, -1):
            suffix[i] = suffix[i + 1] + l[sigma[i]]
        corner = [0] * r
        for i, k in enumerate(sigma):
            corner[k] = -m[k] - l[k] + suffix[i] * d[k]
        corners.append(RegularityCorner(sigma, tuple(corner)))
    return corners


def cm_regularity(E: SegreVeronese, m: Sequence[int]) -> int:
    """Castelnuovo-Mumford regularity of the pushforward of O(m) to the
    ambient projective space of the embedding:

        max over nonempty J of min over k in J of (l_J - floor((m_k + l_k)/d_k)),

    evaluated by one sort of the factors and memoized on (l, d, m).
    """
    _check_lengths(E, m=m)
    return _regularity(E.l, E.d, tuple(m))


def _subsets(l: Sequence[int]) -> list[tuple[tuple[int, ...], int]]:
    """Every nonempty subset J of the factors with its l_J, in the order of
    J's bitmask."""
    rows: list[tuple[tuple[int, ...], int]] = [((), 0)]
    for k, lk in enumerate(l):
        rows += [(J + (k,), lJ + lk) for J, lJ in rows]
    return rows[1:]


def cm_regularity_breakdown(E: SegreVeronese, m: Sequence[int]) -> list[tuple[tuple[int, ...], int, int]]:
    """Per-subset rows (J, l_J, min_k(l_J - floor((m_k+l_k)/d_k))) behind
    cm_regularity, in the order of J's bitmask; the regularity is the max
    of the row values.  Refuses more than ``_MAX_BREAKDOWN_FACTORS``
    factors."""
    _check_lengths(E, m=m)
    r = E.r
    if r > _MAX_BREAKDOWN_FACTORS:
        raise ValueError(f"r={r} has 2^{r} - 1 subsets of the factors, over the limit of r={_MAX_BREAKDOWN_FACTORS}")
    f = [(mk + lk) // dk for mk, lk, dk in zip(m, E.l, E.d)]
    return [(J, lJ, lJ - max(f[k] for k in J)) for J, lJ in _subsets(E.l)]


def ideal_sheaf_bound(E: SegreVeronese) -> int:
    """Regularity bound lambda for the ideal sheaf of the embedded image:
    n + 1 - min_k floor(l_k/d_k).  ``svreg verify`` replays it against
    the case split on q_k = floor((l_k+1)/d_k)."""
    return E.n + 1 - min(lk // dk for lk, dk in zip(E.l, E.d))


def check_subadditivity(E: SegreVeronese, m: Sequence[int], m2: Sequence[int]) -> SubadditivityReport:
    """Evaluate reg(m) + reg(m2) >= reg(m + m2).

    A report with holds=False would contradict subadditivity of regularity
    for these pushforward sheaves and therefore signals a bug.
    """
    _check_lengths(E, m=m, m2=m2)
    reg_m = cm_regularity(E, m)
    reg_m2 = cm_regularity(E, m2)
    total = tuple(a + b for a, b in zip(m, m2))
    reg_sum = cm_regularity(E, total)
    return SubadditivityReport(reg_m, reg_m2, reg_sum, reg_m + reg_m2 >= reg_sum)


def check_pair_subadditivity(
    E: SegreVeronese,
    m: Sequence[int],
    p: Sequence[int],
    m2: Sequence[int],
    p2: Sequence[int],
) -> PairStatus:
    """If O(m) is O(p)-regular and O(m2) is O(p2)-regular, then O(m + m2)
    must be O(p + p2)-regular.

    Returns "hypothesis-not-met" when either input pair fails its own
    regularity test; the theorem is conditional and lumping that case in
    with a conclusion failure would make the check meaningless.
    """
    _check_lengths(E, m=m, p=p, m2=m2, p2=p2)
    if not (is_regular_formula(E, m, p) and is_regular_formula(E, m2, p2)):
        return "hypothesis-not-met"
    m_sum = tuple(a + b for a, b in zip(m, m2))
    p_sum = tuple(a + b for a, b in zip(p, p2))
    return "holds" if is_regular_formula(E, m_sum, p_sum) else "fails"
