"""Reference routes the benchmark checks svreg's answers against.

Written from the definitions on plain integer tuples; nothing here imports
svreg.  ``l`` are the factor dimensions, ``d`` the embedding degrees, and
every twist is a tuple of the same length.

- Cohomology of O(a) on P^l1 x ... x P^lr from Bott's rules on each factor
  and the Kunneth formula, with ``math.comb`` for the dimensions.
- Regularity straight from the definition: O(m) is O(p)-regular when
  H^i(O(m + p - i d)) = 0 for i = 1..n.
- The sorted closed form for the max over subsets J of
  (l_J - max_{k in J} f_k): for a fixed maximiser k the best J is
  {j : f_j <= f_k}, so one sort and a prefix sum replace the 2^r subsets.
"""
from __future__ import annotations

from itertools import permutations
from math import comb


def line_cohomology(l, a):
    """(degree, dimension) of the one nonzero H^i(O(a)), or None when all
    cohomology vanishes."""
    degree, dimension = 0, 1
    for lk, ak in zip(l, a):
        if ak >= 0:
            dimension *= comb(ak + lk, lk)
        elif ak <= -lk - 1:
            degree += lk
            dimension *= comb(-ak - 1, lk)
        else:
            return None
    return degree, dimension


def h(l, a, i):
    """dim H^i(O(a))."""
    c = line_cohomology(l, a)
    return c[1] if c is not None and c[0] == i else 0


def regular_scan(l, d, m, p):
    """O(m) is O(p)-regular: H^i(O(m + p - i d)) = 0 for every i in 1..n."""
    for i in range(1, sum(l) + 1):
        if h(l, [mk + pk - i * dk for mk, pk, dk in zip(m, p, d)], i):
            return False
    return True


def sorted_max(l, f):
    """max over nonempty J of (l_J - max_{k in J} f_k), in O(r log r)."""
    best = None
    prefix = 0
    order = sorted(range(len(l)), key=f.__getitem__)
    for pos, k in enumerate(order):
        prefix += l[k]
        # only the last index of a tie group sees the whole group in prefix
        if pos + 1 < len(order) and f[order[pos + 1]] == f[k]:
            continue
        value = prefix - f[k]
        if best is None or value > best:
            best = value
    return best


def cm_sorted(l, d, m):
    """Castelnuovo-Mumford regularity of the pushforward of O(m):
    max_k (sum of l_j with f_j <= f_k) - f_k, f_k = floor((m_k + l_k)/d_k)."""
    return sorted_max(l, [(mk + lk) // dk for mk, lk, dk in zip(m, l, d)])


def regular_sorted(l, d, m, p):
    """The regularity test in sorted form: regular iff no J has
    floor((m_k + p_k + l_k)/d_k) < l_J for every k in J."""
    return sorted_max(l, [(mk + pk + lk) // dk for mk, pk, lk, dk in zip(m, p, l, d)]) <= 0


def dual(l, d, m):
    """The Serre-dual twist -m + n d - l - 1."""
    n = sum(l)
    return tuple(-mk + n * dk - lk - 1 for mk, lk, dk in zip(m, l, d))


def p_minus_ref(l, d, m):
    """Lower Tate endpoint: minus the regularity of the dual twist."""
    return -cm_sorted(l, d, dual(l, d, m))


def least_regular_twist(l, d, m):
    """Least q with O(m) O(q d)-regular, by scanning the definition."""
    lo = -(sum(abs(mk) for mk in m) + sum(l) + 2)
    if regular_scan(l, d, m, [lo * dk for dk in d]):
        raise ValueError(f"scan start {lo} is already regular for l={l}, d={d}, m={m}")
    q = lo
    while not regular_scan(l, d, m, [q * dk for dk in d]):
        q += 1
    return q


def tate_column(l, d, m, p):
    """Column p of the Tate resolution: (i, i - p, rank) for every i in 0..n
    with rank = dim H^i(O(m + (p - i) d)) nonzero."""
    out = []
    for i in range(sum(l) + 1):
        rank = h(l, [mk + (p - i) * dk for mk, dk in zip(m, d)], i)
        if rank:
            out.append((i, i - p, rank))
    return out


def corners_ref(l, d, m, antichain=False):
    """(sigma, corner) pairs of the regularity set, one per permutation in
    lexicographic order, keeping the first permutation that yields each
    corner; sigma[i] is charged l_{sigma[i:]}."""
    r = len(l)
    seen = {}
    for sigma in permutations(range(r)):
        corner = [0] * r
        charged = sum(l)
        for k in sigma:
            corner[k] = -m[k] - l[k] + charged * d[k]
            charged -= l[k]
        seen.setdefault(tuple(corner), sigma)
    pairs = [(sigma, corner) for corner, sigma in seen.items()]
    if antichain:
        pairs = [
            (s, c)
            for s, c in pairs
            if not any(o != c and all(x >= y for x, y in zip(c, o)) for _, o in pairs)
        ]
    return pairs


def subset_rows(l, d, m):
    """{J: (l_J, l_J - max_{k in J} f_k)} over every nonempty J, by
    enumeration; small r only."""
    f = [(mk + lk) // dk for mk, lk, dk in zip(m, l, d)]
    r = len(l)
    rows = {}
    for mask in range(1, 1 << r):
        J = tuple(k for k in range(r) if mask >> k & 1)
        lJ = sum(l[k] for k in J)
        rows[J] = (lJ, lJ - max(f[k] for k in J))
    return rows


def lambda_ref(l, d):
    """Regularity bound of the ideal sheaf of the image:
    n + 1 - min_k floor(l_k/d_k)."""
    return sum(l) + 1 - min(lk // dk for lk, dk in zip(l, d))


def ambient_dim(l, d):
    """N with the image in P^N: prod C(l_k + d_k, d_k) - 1."""
    out = 1
    for lk, dk in zip(l, d):
        out *= comb(lk + dk, dk)
    return out - 1
