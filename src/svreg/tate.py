"""Term-by-term shape of Tate resolutions of the pushforward sheaves.

Column p of the Tate resolution collects, for every cohomological degree
i, the group H^i of the (p-i)-th twist, placed in generator twist i - p.
A summand is therefore fixed by i and its rank: a column stores the pairs
(i, rank), and the twist i - p is derived where it is shown.  The
differentials are not represented.  The interesting part of the
resolution sits between the endpoints p_minus and p_plus: at or above
p_plus a column is pure H^0, at or below p_minus it is pure H^n.  p_plus
is the regularity of the pushforward of O(m), ``cm_regularity``.
"""
from __future__ import annotations

from typing import NamedTuple, Sequence

from .cohomology import SegreVeronese, _check_lengths, _kunneth
from .regularity import cm_regularity

# Limits of one window; times are ``svreg tate`` in JSON on one 2-vCPU Xeon core.
_MAX_COLUMNS = 100_000  # a column peaks at 0.8 KB of memory in JSON, 1 KB as a table
# factor steps, exactly (columns + n) * r; 999,150 on (P^5)^150, d = 3: 1.6-2.1 s
_MAX_WORK = 1_000_000
# squared digits of the ranks, (columns + n) D^2 with D the digits of the
# longest: building and printing a rank takes time quadratic in its digits.
# 6.0e10 on (P^5)^150 above (2.1 s) and for 99,999 columns on P^43 with
# d = 10^13 (4.4 s, 336 MB); 4.0e10 for 9,900 on P^100 with d = 2 * 10^15
# (1.8 s); 2.86e11 for 748 on P^650 with d = 2^63 - 1 (6.3 s), refused
_MAX_DIGIT_WORK = 6 * 10**10


class TateTerm(NamedTuple):
    """Column p of a Tate resolution: its nonzero summands as (i, rank)
    pairs sorted by i, rank many generators in exterior twist i - p from
    H^i of the (p-i)-th twist of the sheaf."""

    p: int
    entries: tuple[tuple[int, int], ...]


class TateWindow(NamedTuple):
    """The endpoints and the consecutive columns covering
    [p_minus - pad, p_plus + pad], for the pad ``tate_window`` was given.

    p_minus <= p_plus is not asserted; an inverted window simply yields no
    columns and is reported as-is.
    """

    p_minus: int
    p_plus: int
    terms: tuple[TateTerm, ...]


def dual_twist(E: SegreVeronese, m: Sequence[int]) -> tuple[int, ...]:
    """The multidegree Serre duality pairs with m when columns are read
    backwards: componentwise -m_k + n*d_k - l_k - 1.  An involution."""
    _check_lengths(E, m=m)
    n = E.n
    return tuple(-mk + n * dk - lk - 1 for mk, lk, dk in zip(m, E.l, E.d))


def p_minus(E: SegreVeronese, m: Sequence[int]) -> int:
    """Largest column index down to which the resolution is pure H^n:
    -reg of the dual twist.  ``svreg verify`` replays it against the direct
    form -max over nonempty J of min over k in J of
    (ceil((m_k+1)/d_k) - l_{J^c})."""
    return -cm_regularity(E, dual_twist(E, m))


def _digits(x: int) -> int:  # len(str(x)) for x >= 1, past CPython's int-to-str limit
    k = (x.bit_length() - 1) * 1233 >> 12  # 1233/4096 < log10(2), so 10**k <= x
    while 10**k <= x:
        k += 1
    return k


def tate_window(E: SegreVeronese, m: Sequence[int], pad: int = 2) -> TateWindow:
    """Columns for p in [p_minus - pad, p_plus + pad].

    A twist q has cohomology in at most one degree i, so it feeds the single
    column p = q + i.  The window evaluates each twist once, q running from
    the last column down to n below the first, and walking downward files
    each column's summands in increasing i.  Columns at or above p_plus are pure
    H^0 and columns at or below p_minus pure H^n, and neither holds one step
    inside; the ``tate-window`` check of ``svreg verify`` replays this, and
    every column against one it builds on its own, on padded windows.

    Before it builds any column, it refuses with ValueError a negative pad
    and a window over ``_MAX_COLUMNS`` columns, ``_MAX_WORK`` factor steps
    or ``_MAX_DIGIT_WORK`` squared digits of the ranks: a rank is a product
    of binomials C(|a_k| + l_k, l_k) <= (|a_k| + l_k)^l_k, with
    |a_k| <= |m_k| + |q| d_k at twist q, so it has at most
    D = sum_k l_k digits(|m_k| + |q| d_k + l_k) digits, and the window's
    are bounded by (columns + n) D^2 at the q farthest from 0.
    """
    if pad < 0:
        raise ValueError(f"pad must be >= 0, got {pad}")
    _check_lengths(E, m=m)
    lo, hi = p_minus(E, m), cm_regularity(E, m)
    first, last = lo - pad, hi + pad
    n, r, l, d = E.n, E.r, E.l, E.d
    columns = last - first + 1
    if columns > _MAX_COLUMNS:
        raise ValueError(f"the window has {columns} columns, over the limit of {_MAX_COLUMNS}")
    steps = (columns + n) * r
    if steps > _MAX_WORK:
        raise ValueError(f"the window takes {steps} factor steps, over the limit of {_MAX_WORK}")
    far = max(abs(last), abs(first - n))
    squared = (columns + n) * sum(lk * _digits(abs(mk) + far * dk + lk) for mk, lk, dk in zip(m, l, d)) ** 2
    if squared > _MAX_DIGIT_WORK:
        raise ValueError(f"the window's ranks take up to {squared} squared digits, over the limit of {_MAX_DIGIT_WORK}")
    summands: list[list[tuple[int, int]]] = [[] for _ in range(columns)]
    for q in range(last, first - n - 1, -1):
        found = _kunneth(l, (mk + q * dk for mk, dk in zip(m, d)))
        if found is not None and first <= q + found[0] <= last:
            summands[q + found[0] - first].append(found)
    terms = tuple(TateTerm(p, tuple(entries)) for p, entries in enumerate(summands, first))
    return TateWindow(lo, hi, terms)

