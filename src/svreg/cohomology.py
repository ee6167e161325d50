"""Exact cohomology of line bundles on products of projective spaces.

All dimensions are exact Python integers; nothing here ever touches a
float, so results stay correct far past 64 bits.  The key structural fact
is that a line bundle O(j) on a single P^l has cohomology in at most one
degree (0 or l), hence by the Kunneth formula a line bundle
O(a_1, ..., a_r) on P^{l_1} x ... x P^{l_r} also concentrates in a single
degree: the sum of the factor degrees.
"""
from __future__ import annotations

from math import comb, prod
from typing import Iterable, NamedTuple, Sequence

# n = sum(l) for product_cohomology and is_regular_oracle:
# the oracle scans up to n*r <= n^2 factor windows, 0.4 s at n = r = 2,000
# on one 2-vCPU Xeon core
_MAX_DIMENSION = 2_000


class Refusal(ValueError):
    """An input outside the domain of a record or call, or over its cost
    limits, refused before any work is done.  Any other exception svreg
    raises, a ValueError among them, is a library fault."""


class SegreVeronese:
    """A product of projective spaces P^{l_1} x ... x P^{l_r} together with
    the degrees d = (d_1, ..., d_r) of the very ample bundle O(d) giving its
    Segre-Veronese embedding into P^N, and its dimension n = sum(l), summed
    once when it is built.  Immutable, compared and hashed by value.
    """

    # slots, not a NamedTuple: CPython 3.11 specializes the verify loops'
    # millions of E.l, E.d and E.n loads to LOAD_ATTR_SLOT, while a
    # NamedTuple field load stays generic and about 35 % slower
    __slots__ = ("l", "d", "n")

    l: tuple[int, ...]
    d: tuple[int, ...]
    n: int

    def __init__(self, l: Iterable[int], d: Iterable[int]) -> None:
        l = tuple(l)
        d = tuple(d)
        for name, v in (("l", l), ("d", d)):
            if not all(type(x) is int for x in v):  # int(x) would read 1.5 as 1, '2' as 2
                raise Refusal(f"{name} entries must be integers, got {name}={v!r}")
        if len(l) == 0:
            raise Refusal("need at least one factor")
        if len(l) != len(d):
            raise Refusal(f"l has {len(l)} entries but d has {len(d)}")
        if any(x < 1 for x in l):
            raise Refusal(f"factor dimensions must all be >= 1, got l={l}")
        if any(x < 1 for x in d):
            raise Refusal(f"embedding degrees must all be >= 1, got d={d}")
        object.__setattr__(self, "l", l)
        object.__setattr__(self, "d", d)
        object.__setattr__(self, "n", sum(l))

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.l == other.l and self.d == other.d

    def __hash__(self) -> int:
        return hash((self.l, self.d))

    def __repr__(self) -> str:
        return f"{self.__class__.__qualname__}(l={self.l!r}, d={self.d!r})"

    def __reduce__(self):
        # unpickle through the constructor: pickle's default restores slots
        # by setattr, which the frozen fields refuse, and n is derived; verify
        # hands embeddings to its forked workers this way
        return SegreVeronese, (self.l, self.d)

    @property
    def r(self) -> int:
        """Number of factors."""
        return len(self.l)

    @property
    def ambient_dim(self) -> int:
        """Dimension N of the embedding's target space: prod C(l_k+d_k, d_k) - 1."""
        return prod(comb(lk + dk, dk) for lk, dk in zip(self.l, self.d)) - 1


def _check_lengths(E: SegreVeronese, **vectors: Sequence[int]) -> None:
    """Name the first vector whose length is not r.  Callers compare the
    lengths themselves and call this only on a mismatch: building the
    keyword dict costs about 0.2 us, and the reference verify run makes
    1.24 million guarded calls that pass.  Its other 14.07 million, the
    two memoized regularity routes at r = 2, pass no guard: they unpack
    their vectors and call this when the unpack raises ValueError."""
    r = len(E.l)
    for name, v in vectors.items():
        if len(v) != r:
            raise Refusal(f"{name} has {len(v)} entries, expected {r}")


class _Profile(NamedTuple):
    degree: int | None
    dimension: int | None


class CohomologyProfile(_Profile):
    """Where a line bundle's cohomology lives: either nowhere (both fields
    None) or in exactly one degree with a strictly positive dimension."""

    __slots__ = ()

    def __new__(cls, degree: int | None, dimension: int | None) -> "CohomologyProfile":
        if (degree is None) != (dimension is None):
            raise ValueError("degree and dimension must be both present or both absent")
        if degree is not None:
            if degree < 0:
                raise ValueError(f"degree must be >= 0, got {degree}")
            if dimension < 1:
                raise ValueError(f"dimension must be >= 1, got {dimension}")
        return super().__new__(cls, degree, dimension)

    @classmethod
    def _make(cls, iterable: Iterable) -> "CohomologyProfile":
        # through the checks above; _replace builds with _make
        return cls(*iterable)

    def h(self, i: int) -> int:
        """dim H^i."""
        return self.dimension if i == self.degree else 0

    def table(self, n: int) -> list[int]:
        """The flat view [h^0, ..., h^n], mostly zeros."""
        table = [0] * (n + 1)
        if self.degree is not None:
            if self.degree > n:
                raise ValueError(f"profile degree {self.degree} exceeds table size {n}")
            table[self.degree] = self.dimension
        return table

    @property
    def euler_characteristic(self) -> int:
        """chi, the alternating sum of the h^i: the dimension signed by the
        degree, or 0 for a profile with no cohomology."""
        return 0 if self.degree is None else (-1) ** self.degree * self.dimension


def _check_dimension(n: int) -> None:
    if n > _MAX_DIMENSION:
        raise Refusal(f"the product has dimension n={n}, over the limit of {_MAX_DIMENSION}")


def product_cohomology(E: SegreVeronese, a: Sequence[int]) -> CohomologyProfile:
    """Cohomology of O(a_1, ..., a_r) on the product, by the Kunneth formula.

    If any factor vanishes the bundle has no cohomology at all; otherwise
    the factor degrees add up and the factor dimensions multiply.  The
    resulting degree equals l_J for J = {k : a_k <= -l_k - 1}.  Refuses a
    product of dimension n over ``_MAX_DIMENSION`` before any binomial.
    """
    if len(a) != len(E.l):
        _check_lengths(E, a=a)
    _check_dimension(E.n)
    found = _kunneth(E.l, a)
    return CohomologyProfile(None, None) if found is None else CohomologyProfile(*found)


def _kunneth(l: Iterable[int], a: Iterable[int]) -> tuple[int, int] | None:
    """(degree, dimension) of O(a) on P^{l_1} x ... x P^{l_r}, or None when
    it has no cohomology.  O(j) on P^l has only H^0 = C(j+l, l) if j >= 0,
    only H^l = C(-j-1, l) if j <= -l-1, and none else; read factor by factor."""
    degree = 0
    dimension = 1
    for lk, ak in zip(l, a):
        if ak >= 0:
            dimension *= comb(ak + lk, lk)
        elif ak <= -lk - 1:
            degree += lk
            dimension *= comb(-ak - 1, lk)
        else:
            return None
    return degree, dimension

