"""Term-by-term shape of Tate resolutions of the pushforward sheaves.

Column p of the Tate resolution collects, for every cohomological degree
i, the group H^i of the (p-i)-th twist, placed in generator twist i - p.
Only ranks and twists are computed here; the differentials are not
represented.  The interesting part of the resolution sits between the
endpoints p_minus and p_plus: at or above p_plus a column is pure H^0, at
or below p_minus it is pure H^n.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .cohomology import MultiDegree, SegreVeronese, product_cohomology, twist
from .regularity import SUBSET_CAP, _check_lengths, cm_regularity


@dataclass(frozen=True)
class TateEntry:
    """One summand of a column: rank many generators in exterior twist
    ``twist = i - p``, coming from H^i of the (p-i)-th twist of the sheaf."""

    i: int
    twist: int
    rank: int

    def __post_init__(self) -> None:
        if self.i < 0:
            raise ValueError(f"cohomological degree must be >= 0, got {self.i}")
        if self.rank < 1:
            raise ValueError(f"rank must be >= 1, got {self.rank}")


@dataclass(frozen=True)
class TateTerm:
    """Column p of a Tate resolution: its nonzero summands, sorted by i."""

    p: int
    entries: tuple[TateEntry, ...]

    def __post_init__(self) -> None:
        for e in self.entries:
            if e.twist != e.i - self.p:
                raise ValueError(
                    f"entry twist {e.twist} breaks the twist law i - p = {e.i - self.p}"
                )


@dataclass(frozen=True)
class TateWindow:
    """Consecutive columns covering [p_minus - pad, p_plus + pad].

    p_minus <= p_plus is not asserted; an inverted window simply yields no
    columns and is reported as-is.
    """

    p_minus: int
    p_plus: int
    pad: int
    terms: tuple[TateTerm, ...]


def dual_twist(E: SegreVeronese, m: Sequence[int]) -> MultiDegree:
    """The multidegree Serre duality pairs with m when columns are read
    backwards: componentwise -m_k + n*d_k - l_k - 1.  An involution."""
    _check_lengths(E, m=m)
    n = E.n
    return tuple(-mk + n * dk - lk - 1 for mk, lk, dk in zip(m, E.l, E.d))


def p_plus(E: SegreVeronese, m: Sequence[int], subset_cap: int = SUBSET_CAP) -> int:
    """Smallest column index from which the resolution is pure H^0; equals
    the regularity of the pushforward of O(m)."""
    return cm_regularity(E, m, subset_cap)


def p_minus(E: SegreVeronese, m: Sequence[int], subset_cap: int = SUBSET_CAP) -> int:
    """Largest column index down to which the resolution is pure H^n:
    -reg of the dual twist.  ``svreg verify`` replays it against the direct
    form -max over nonempty J of min over k in J of
    (ceil((m_k+1)/d_k) - l_{J^c})."""
    return -cm_regularity(E, dual_twist(E, m), subset_cap)


def tate_term(E: SegreVeronese, m: Sequence[int], p: int) -> TateTerm:
    """Column p of the Tate resolution of the pushforward of O(m): for each
    i in 0..n, dim H^i(O(m + (p-i)d)) generators in twist i - p."""
    _check_lengths(E, m=m)
    entries = []
    for i in range(E.n + 1):
        profile = product_cohomology(E, twist(E, m, p - i))
        if profile.degree == i:
            entries.append(TateEntry(i, i - p, profile.dimension))
    return TateTerm(p, tuple(entries))


def tate_window(
    E: SegreVeronese,
    m: Sequence[int],
    pad: int = 2,
    subset_cap: int = SUBSET_CAP,
) -> TateWindow:
    """Columns for p in [p_minus - pad, p_plus + pad], structurally checked.

    Every column at or above p_plus must be pure H^0 and every column at or
    below p_minus pure H^n; both characterizations must already fail one
    step inside (at p_plus - 1 and p_minus + 1), otherwise the endpoints
    would not be extremal.  A violation raises, since the endpoint formulas
    guarantee it cannot happen.
    """
    if pad < 0:
        raise ValueError(f"pad must be >= 0, got {pad}")
    _check_lengths(E, m=m)
    lo = p_minus(E, m, subset_cap)
    hi = p_plus(E, m, subset_cap)
    n = E.n
    terms = tuple(tate_term(E, m, p) for p in range(lo - pad, hi + pad + 1))
    for t in terms:
        if t.p >= hi and not _pure(t, 0):
            raise RuntimeError(f"column {t.p} >= p_plus={hi} is not pure H^0: {t}")
        if t.p <= lo and not _pure(t, n):
            raise RuntimeError(f"column {t.p} <= p_minus={lo} is not pure H^{n}: {t}")
    if _pure(tate_term(E, m, hi - 1), 0):
        raise RuntimeError(f"p_plus={hi} is not minimal: column {hi - 1} is pure H^0")
    if _pure(tate_term(E, m, lo + 1), n):
        raise RuntimeError(f"p_minus={lo} is not maximal: column {lo + 1} is pure H^{n}")
    return TateWindow(lo, hi, pad, terms)


def _pure(term: TateTerm, degree: int) -> bool:
    """True when every summand of the column sits in the given degree."""
    return all(e.i == degree for e in term.entries)


def balanced_endpoints(r: int, l: int, m_sorted: Sequence[int]) -> tuple[int, int]:
    """Window endpoints (p_plus, p_minus) in the special case d = (1,...,1)
    and l = (l,...,l), for m sorted nondecreasing:

        p_plus = max_i ((i-1)*l - m_i),   p_minus = min_i ((i-1)*l - m_i) - 1.
    """
    if r < 1:
        raise ValueError(f"need r >= 1, got {r}")
    if l < 1:
        raise ValueError(f"need l >= 1, got {l}")
    if len(m_sorted) != r:
        raise ValueError(f"m_sorted has {len(m_sorted)} entries, expected {r}")
    if any(m_sorted[i] > m_sorted[i + 1] for i in range(r - 1)):
        raise ValueError(f"m_sorted must be nondecreasing, got {tuple(m_sorted)}")
    values = [i * l - mi for i, mi in enumerate(m_sorted)]
    return max(values), min(values) - 1
