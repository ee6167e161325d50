"""Grid verification: replay every closed form against the brute-force
cohomology route on exhaustive small grids plus seeded random sampling.

Each check walks its grid in a fixed deterministic order and reports how
many instances it saw, how many failed, and the first failure (hence the
smallest one in iteration order) as a serializable counterexample.
Sampled instances come from ``random.Random`` seeded off the
configuration, so reruns are reproducible.

A check's grid is cut into shards that follow its iteration order: one per
embedding for the pair and point grids, then slices of the r=3 samples,
each drawn from a seed of its own; one per (r, l) for cohomology; one per
factor count for sorted-vs-subsets; a single shard for the small checks.
The two pair checks share one walk of the pair grid, which calls the
closed form once per pair and compares it with each route named.  The
shards of every check named run on a pool of forked worker processes,
one pool per run, and each check's are merged in shard order, so
instance counts and the first counterexample do not depend on the
number of workers.  The shards look the library functions up through
their modules, and cache nothing of theirs, so workers run whatever those
modules hold when the run starts, patched functions included.  The
second routes the checks replay, such as ``_tate_term``, the Euler
characteristic's polynomial ``_euler_polynomial``, the two-factor Segre
formula ``_segre_regularity``, the balanced closed form of the window
endpoints ``_balanced_endpoints`` and the case split of the ideal-sheaf
bound ``_case_split_lambda``, live only here.
"""
from __future__ import annotations

import itertools
import math
import operator
import os
import random
import time
from dataclasses import dataclass
from typing import Any, Callable, ClassVar, Iterable, Iterator, NamedTuple, Sequence

from . import cohomology, regularity, tate
from .cohomology import SegreVeronese

R3_SLICE = 1000  # seeded r=3 samples per shard
SUBSET_R = range(4, 13)  # factor counts of the sorted-vs-subsets samples
SUBSET_SAMPLES = 20  # sorted-vs-subsets samples per factor count
# the most a run may weigh, in pair instances of 2.3 us (see CHECKS): about
# 230 CPU-s, 4.7x the 21,405,029 of the reference grid
MAX_INSTANCES = 10**8
# largest lmax and dmax, which set the cost of one instance: the reference
# grid uses 3; the slowest tate-window instance took 1.3 ms at 8 and 23 ms
# at 32 on one 2-vCPU Xeon core
MAX_FACTOR_BOUND = 8
MAX_SEED = 2**64 - 1  # seeds are unsigned 64-bit integers


@dataclass(frozen=True)
class VerifyConfig:
    """Grid bounds, the r=3 sample count and the seed; the defaults are the
    reference grid.  The seeded pairs per embedding of the two
    subadditivity checks are constants, not fields.  A config outside the
    grid's domain (a bool is not an int, and a box is a tuple, so that the
    config hashes) is refused with ValueError when it is built, by
    ``dataclasses.replace`` too, so every config can be run."""

    lmax: int = 3
    dmax: int = 3
    box: tuple[int, int] = (-8, 8)
    r3_samples: int = 10000
    seed: int = 1729
    subadd_pairs: ClassVar[int] = 1000
    pair_samples: ClassVar[int] = 200

    def __post_init__(self) -> None:
        for field in ("lmax", "dmax", "r3_samples", "seed"):
            if type(getattr(self, field)) is not int:
                raise ValueError(f"{field} must be an integer, got {getattr(self, field)!r}")
        box = self.box
        if not (isinstance(box, tuple) and len(box) == 2 and all(type(v) is int for v in box)):
            raise ValueError(f"box must be two integers lo,hi, got {box!r}")
        for field in ("lmax", "dmax"):
            value = getattr(self, field)
            if not 1 <= value <= MAX_FACTOR_BOUND:
                raise ValueError(f"{field} must be between 1 and {MAX_FACTOR_BOUND}, got {value}")
        lo, hi = box
        if lo > hi:
            raise ValueError(f"box needs lo <= hi, got {lo},{hi}")
        if self.r3_samples < 0:
            raise ValueError(f"r3_samples must be >= 0, got {self.r3_samples}")
        if not 0 <= self.seed <= MAX_SEED:
            raise ValueError(f"seed must be between 0 and {MAX_SEED}, got {self.seed}")


@dataclass
class CheckResult:
    """A check's (or one shard's) tally, as ``run_checks`` reports it;
    ``elapsed_s`` is the sum of the wall times of its shards, measured
    where they ran.  The two pair checks named in one run share a walk and
    each reports the walk's: do not add the two."""

    name: str
    instances: int
    failures: int
    counterexample: dict | None = None
    elapsed_s: float = 0.0

    @property
    def ok(self) -> bool:
        return self.failures == 0

    def as_dict(self) -> dict:
        return {
            "name": self.name,
            "instances": self.instances,
            "failures": self.failures,
            "elapsed_s": round(self.elapsed_s, 3),
            "counterexample": self.counterexample,
        }


def _embeddings(config: VerifyConfig) -> Iterator[SegreVeronese]:
    for r in (1, 2):
        for l in itertools.product(range(1, config.lmax + 1), repeat=r):
            for d in itertools.product(range(1, config.dmax + 1), repeat=r):
                yield SegreVeronese(l, d)


def _box_points(config: VerifyConfig, r: int) -> list[tuple[int, ...]]:
    lo, hi = config.box
    return list(itertools.product(range(lo, hi + 1), repeat=r))


def _samples(config: VerifyConfig, key: str, r: int, count: int) -> Iterator[tuple[SegreVeronese, tuple, tuple]]:
    """``count`` seeded (E, m, p) with r factors, drawn from a generator
    seeded by ``config.seed`` and ``key`` alone, so a shard draws its own."""
    rng = random.Random(f"{config.seed}|{key}")
    lo, hi = config.box
    for _ in range(count):
        l = tuple(rng.randint(1, config.lmax) for _ in range(r))
        d = tuple(rng.randint(1, config.dmax) for _ in range(r))
        m = tuple(rng.randint(lo, hi) for _ in range(r))
        p = tuple(rng.randint(lo, hi) for _ in range(r))
        yield SegreVeronese(l, d), m, p


def _per_embedding(config: VerifyConfig, instances: int) -> int:
    """Instances over every embedding with r in {1, 2}, ``instances ** r``
    on each: one per embedding for 1, one per box point for the box width."""
    return sum((config.lmax * config.dmax * instances) ** r for r in (1, 2))


def _width(config: VerifyConfig) -> int:
    lo, hi = config.box
    return hi - lo + 1


def _box(config: VerifyConfig, k: int) -> int:
    """Box instances of the point grid for k = 1, each (E, m), and of the
    pair grid for k = 2, each (E, m, p); the r=3 samples come on top."""
    return _per_embedding(config, _width(config) ** k)


def _grid(config: VerifyConfig) -> list[SegreVeronese | range]:
    """Shards of the pair and point grids in iteration order: every
    embedding with r in {1, 2}, then consecutive ranges of the r=3 samples."""
    n = config.r3_samples
    return [*_embeddings(config), *(range(i, min(i + R3_SLICE, n)) for i in range(0, n, R3_SLICE))]


def _pair_groups(config: VerifyConfig, unit: SegreVeronese | range) -> Iterator[tuple[SegreVeronese, tuple, Sequence]]:
    """(E, m, ps) over one shard of the pair grid: each (E, m) of the point
    grid with every box point p of E, or with one seeded r=3 sample's p."""
    if isinstance(unit, range):
        return ((E, m, (p,)) for E, m, p in _samples(config, f"r3|{unit.start}", 3, len(unit)))
    pts = _box_points(config, unit.r)
    return ((unit, m, pts) for m in pts)


def _instance(E: SegreVeronese, **extra) -> dict:
    out = {"l": list(E.l), "d": list(E.d)}
    for key, value in extra.items():
        out[key] = list(value) if isinstance(value, tuple) else value
    return out


def _walk_pairs(config: VerifyConfig, unit: SegreVeronese | range, names: Sequence[str]) -> list[CheckResult]:
    """Tally one shard of the pair grid for each pair check named, in that
    order.  Each (E, m, p) gets one closed-form call, compared with the
    cohomology scan for formula-vs-oracle and with domination of a corner
    of O(m), built once per m, for corner-membership."""
    started = time.perf_counter()
    formula, oracle, ge = regularity.is_regular_formula, regularity.is_regular_oracle, operator.ge
    checks = {name: CheckResult(name, 0, 0) for name in names}
    fo, cm = checks.get("formula-vs-oracle"), checks.get("corner-membership")
    instances = 0
    for E, m, ps in _pair_groups(config, unit):
        corners = [c.corner for c in regularity.regularity_corners(E, m)] if cm else ()
        instances += len(ps)
        for p in ps:
            regular = formula(E, m, p)
            if fo and (answer := oracle(E, m, p)) != regular:
                fo.failures += 1
                fo.counterexample = fo.counterexample or _instance(E, m=m, p=p, formula=regular, oracle=answer)
            if cm:
                dominated = False
                for corner in corners:  # a loop: any() over a generator costs twice the time
                    if all(map(ge, p, corner)):
                        dominated = True
                        break
                if dominated != regular:
                    cm.failures += 1
                    cm.counterexample = cm.counterexample or _instance(E, m=m, p=p, formula=regular, corners=dominated)
    elapsed = time.perf_counter() - started
    for result in checks.values():
        result.instances, result.elapsed_s = instances, elapsed
    return [checks[name] for name in names]


def _subset_failure(E: SegreVeronese, m: tuple[int, ...], p: tuple[int, ...]) -> dict | None:
    """cm_regularity and is_regular_formula against their definitions as a
    max, and a test, over every nonempty subset J of the factors."""
    rows = regularity.cm_regularity_breakdown(E, m)
    reg = max(v for _, _, v in rows)
    regular = all(any(p[k] + m[k] + E.l[k] - lJ * E.d[k] >= 0 for k in J) for J, lJ, _ in rows)
    got_reg = regularity.cm_regularity(E, m)
    got_regular = regularity.is_regular_formula(E, m, p)
    if got_reg == reg and got_regular == regular:
        return None
    return _instance(E, m=m, p=p, cm_regularity=got_reg, subsets_reg=reg, formula=got_regular, subsets=regular)


def _sorted_vs_subsets(config: VerifyConfig, r: int) -> Iterator[dict | None]:
    return (_subset_failure(E, m, p) for E, m, p in _samples(config, f"subsets|{r}", r, SUBSET_SAMPLES))


def _minimal_twist_failure(E: SegreVeronese, m: tuple[int, ...]) -> dict | None:
    """Scan twists by the embedding bundle with the cohomology route and
    compare the least regular one against cm_regularity."""
    rho = regularity.cm_regularity(E, m)
    d = E.d
    bound = E.n + max(abs(mk) + lk for mk, lk in zip(m, E.l)) + 2
    if regularity.is_regular_oracle(E, m, tuple(-bound * dk for dk in d)):
        return _instance(E, m=m, reason=f"scan lower bound {-bound} is already regular")
    found = None
    for q in range(-bound + 1, bound + 1):
        if regularity.is_regular_oracle(E, m, tuple(q * dk for dk in d)):
            found = q
            break
    if found is None:
        return _instance(E, m=m, reason=f"no regular twist in [{-bound}, {bound}]")
    if found != rho:
        return _instance(E, m=m, minimal_twist=found, cm_regularity=rho)
    for q in range(found + 1, found + 4):
        if not regularity.is_regular_oracle(E, m, tuple(q * dk for dk in d)):
            return _instance(E, m=m, reason=f"twist {q} above the minimum {found} is not regular")
    return None


def _minimal_twist(config: VerifyConfig, unit: SegreVeronese | range) -> Iterator[dict | None]:
    return (_minimal_twist_failure(E, m) for E, m, _ in _pair_groups(config, unit))


def _factor_table(l: int, j: int) -> list[int]:
    """[h^0, ..., h^l] of O(j) on P^l by the Bott rules, not through
    ``cohomology``: C(j+l, l) if j >= 0, C(-j-1, l) in degree l if j < -l."""
    table = [0] * (l + 1)
    if j >= 0:
        table[0] = math.comb(j + l, l)
    elif j <= -l - 1:
        table[l] = math.comb(-j - 1, l)
    return table


def _euler_polynomial(l: Sequence[int], a: Sequence[int]) -> int:
    """chi(O(a)) by the polynomial, not through the profile: the product of
    (a_k+1)(a_k+2)...(a_k+l_k) / l_k!, exact since l_k consecutive integers
    have a product divisible by l_k!, and signed for negative a_k."""
    return math.prod(math.prod(range(ak + 1, ak + lk + 1)) // math.factorial(lk) for lk, ak in zip(l, a))


def _kunneth_table(l: Sequence[int], a: Sequence[int]) -> list[int]:
    """[h^0, ..., h^n] of O(a) on the product of the P^{l_k}: the Kunneth
    convolution of the factor tables, without the concentration shortcut."""
    conv = [1]
    for lk, ak in zip(l, a):
        t = _factor_table(lk, ak)
        new = [0] * (len(conv) + lk)
        for i, ci in enumerate(conv):
            if ci:
                for j, tj in enumerate(t):
                    if tj:
                        new[i + j] += ci * tj
        conv = new
    return conv


def _cohomology_failure(E: SegreVeronese, a: tuple[int, ...]) -> dict | None:
    """The profile of O(a), the profile of its Serre dual twist and chi,
    read off the first profile and by the polynomial, each compared once
    with a Kunneth convolution of the factor tables."""
    n = E.n
    conv = _kunneth_table(E.l, a)
    profile = cohomology.product_cohomology(E, a)
    # table(n) refuses a degree over n, which only a library fault yields
    if (profile.degree or 0) > n or profile.table(n) != conv:
        return _instance(E, a=a, reason="profile disagrees with Kunneth convolution", profile=profile, table=conv)
    dual = tuple(-ak - lk - 1 for ak, lk in zip(a, E.l))
    dual_profile = cohomology.product_cohomology(E, dual)
    if [dual_profile.h(n - i) for i in range(n + 1)] != conv:
        return _instance(E, a=a, reason="Serre duality violated", dual=dual, dual_profile=dual_profile)
    alternating = sum(v if i % 2 == 0 else -v for i, v in enumerate(conv))
    chi = profile.euler_characteristic
    polynomial = _euler_polynomial(E.l, a)
    if chi != alternating or polynomial != alternating:
        reason = "Euler characteristic disagrees"
        return _instance(E, a=a, reason=reason, chi=chi, polynomial=polynomial, alternating=alternating)
    return None


def _cohomology(config: VerifyConfig, l: tuple[int, ...]) -> Iterator[dict | None]:
    E = SegreVeronese(l, (1,) * len(l))
    return (_cohomology_failure(E, a) for a in _box_points(config, E.r))


def _segre_regularity(a: int, b: int, k: int, l: int) -> int:
    """Regularity of the pushforward of O(k, l) under the Segre embedding of
    P^a x P^b, a, b >= 1: max(-min(k, l), min(b - k, a - l))."""
    return max(-min(k, l), min(b - k, a - l))


def _segre_closed_form(config: VerifyConfig, _unit: None) -> Iterator[dict | None]:
    for a in range(1, 4):
        for b in range(1, 4):
            E = SegreVeronese((a, b), (1, 1))
            for k in range(-5, 6):
                for twist_l in range(-5, 6):
                    special = _segre_regularity(a, b, k, twist_l)
                    general = regularity.cm_regularity(E, (k, twist_l))
                    if special == general:
                        yield None
                    else:
                        yield _instance(E, m=(k, twist_l), special=special, general=general)


def _case_split_lambda(E: SegreVeronese) -> int:
    """The ideal-sheaf bound lambda by its case split on
    q_k = floor((l_k+1)/d_k): n + 1 - min q, plus one more when the
    minimum is attained by a k with d_k | l_k + 1."""
    q = [(lk + 1) // dk for lk, dk in zip(E.l, E.d)]
    q0 = min(q)
    bumped = any(qk == q0 and (lk + 1) % dk == 0 for qk, lk, dk in zip(q, E.l, E.d))
    return E.n + 1 - q0 + bumped


def _ideal_sheaf_bound(config: VerifyConfig, _unit: None) -> Iterator[dict | None]:
    for E in _embeddings(config):
        bound = regularity.ideal_sheaf_bound(E)
        case_split = _case_split_lambda(E)
        reg_zero = regularity.cm_regularity(E, (0,) * E.r)
        if bound == case_split and bound - 1 >= reg_zero:
            yield None
        else:
            yield _instance(E, bound=bound, case_split=case_split, reg_zero=reg_zero)
    witness = SegreVeronese((1, 2), (1, 1))
    bound = regularity.ideal_sheaf_bound(witness)
    reg_zero = regularity.cm_regularity(witness, (0, 0))
    if bound - 1 == 2 and reg_zero == 1 and bound - 1 > reg_zero:
        yield None
    else:
        yield _instance(witness, bound=bound, reg_zero=reg_zero, reason="strictness witness failed")


def _subadditivity(config: VerifyConfig, E: SegreVeronese) -> Iterator[dict | None]:
    lo, hi = config.box
    rng = random.Random(f"{config.seed}|subadd|{E.l}|{E.d}")
    for _ in range(config.subadd_pairs):
        m = tuple(rng.randint(lo, hi) for _ in range(E.r))
        m2 = tuple(rng.randint(lo, hi) for _ in range(E.r))
        report = regularity.check_subadditivity(E, m, m2)
        yield None if report.holds else _instance(E, m=m, m2=m2, report=report._asdict())


def _pair_subadditivity(config: VerifyConfig, E: SegreVeronese) -> Iterator[dict | None]:
    lo, hi = config.box
    rng = random.Random(f"{config.seed}|pairs|{E.l}|{E.d}")
    for _ in range(config.pair_samples):
        m = tuple(rng.randint(lo, hi) for _ in range(E.r))
        m2 = tuple(rng.randint(lo, hi) for _ in range(E.r))
        c1 = rng.choice(regularity.regularity_corners(E, m)).corner
        p = tuple(ck + rng.randint(0, 2) for ck in c1)
        c2 = rng.choice(regularity.regularity_corners(E, m2)).corner
        p2 = tuple(ck + rng.randint(0, 2) for ck in c2)
        status = regularity.check_pair_subadditivity(E, m, p, m2, p2)
        yield None if status == "holds" else _instance(E, m=m, p=p, m2=m2, p2=p2, status=status)


def _p_minus_ceiling(E: SegreVeronese, m: Sequence[int]) -> int:
    """p_minus through its direct form, independent of the dual twist:
    -max over nonempty J of min over k in J of (ceil((m_k+1)/d_k) - l_{J^c}).
    The subsets J come from the rows of cm_regularity_breakdown."""
    n = E.n
    return -max(
        min(-(-(m[k] + 1) // E.d[k]) - (n - lJ) for k in J)
        for J, lJ, _ in regularity.cm_regularity_breakdown(E, m)
    )


def _duality_failure(E: SegreVeronese, m: tuple[int, ...]) -> dict | None:
    """The dual twist is an involution, and p_minus, -reg of the dual twist,
    agrees with its direct ceiling form, which reads no dual twist."""
    if tate.dual_twist(E, tate.dual_twist(E, m)) != tuple(m):
        return _instance(E, m=m, reason="dual twist is not an involution")
    lhs = tate.p_minus(E, m)
    ceiling = _p_minus_ceiling(E, m)
    if lhs != ceiling:
        return _instance(E, m=m, reason="p_minus presentations disagree", p_minus=lhs, ceiling=ceiling)
    return None


def _balanced_endpoints(E: SegreVeronese, m: Sequence[int]) -> tuple[int, int]:
    """Window endpoints (p_plus, p_minus) on a balanced embedding,
    d = (1,...,1) and l = (l,...,l), by their closed form: with m sorted
    nondecreasing,

        p_plus = max_i ((i-1)*l - m_i),   p_minus = min_i ((i-1)*l - m_i) - 1.
    """
    values = [i * E.l[0] - mi for i, mi in enumerate(sorted(m))]
    return max(values), min(values) - 1


def _tate_closed_forms(config: VerifyConfig) -> Iterator[dict | None]:
    # constant m: window length is (r-1)l + 1 whatever m is
    for r in (1, 2, 3):
        for l in range(1, config.lmax + 1):
            E = SegreVeronese((l,) * r, (1,) * r)
            for m_val in range(-6, 7):
                m = (m_val,) * r
                length = regularity.cm_regularity(E, m) - tate.p_minus(E, m)
                expected = (r - 1) * l + 1
                yield None if length == expected else _instance(E, m=m, length=length, expected=expected)
    # balanced closed form against the general operations
    for r in (1, 2, 3):
        for l in range(1, config.lmax + 1):
            E = SegreVeronese((l,) * r, (1,) * r)
            for ms in itertools.combinations_with_replacement(range(-6, 7), r):
                got = _balanced_endpoints(E, ms)
                want = (regularity.cm_regularity(E, ms), tate.p_minus(E, ms))
                yield None if got == want else _instance(E, m=ms, balanced=list(got), general=list(want))
    # m = (0, ..., 0, M) with M >= (r-1)l: window length grows as M - l + 1
    for r in (2, 3):
        for l in range(1, config.lmax + 1):
            E = SegreVeronese((l,) * r, (1,) * r)
            for M in range((r - 1) * l, (r - 1) * l + 9):
                m = (0,) * (r - 1) + (M,)
                length = regularity.cm_regularity(E, m) - tate.p_minus(E, m)
                expected = M - l + 1
                yield None if length == expected else _instance(E, m=m, length=length, expected=expected)


def _tate_closed_form_count(config: VerifyConfig) -> int:
    # per l: 13 constant twists for each r in 1..3, the multisets of r
    # entries in -6..6, and 9 values of M for r in (2, 3)
    return config.lmax * (3 * 13 + sum(math.comb(12 + r, r) for r in (1, 2, 3)) + 2 * 9)


def _tate_endpoints(config: VerifyConfig, unit: SegreVeronese | range | None) -> Iterator[dict | None]:
    if unit is None:
        return _tate_closed_forms(config)
    return (_duality_failure(E, m) for E, m, _ in _pair_groups(config, unit))


def _pure(term: tate.TateTerm, degree: int) -> bool:
    """True when every summand of the column sits in the given degree."""
    return all(i == degree for i, _ in term.entries)


def _tate_term(E: SegreVeronese, m: Sequence[int], p: int) -> tate.TateTerm:
    """Column p of the Tate resolution, on its own: dim H^i(O(m + (p-i)d))
    for each i in 0..n.  It calls ``cohomology._kunneth``, not the
    ``tate._kunneth`` that ``tate_window`` calls, so a fault there shows."""
    entries = []
    for i in range(E.n + 1):
        found = cohomology._kunneth(E.l, (mk + (p - i) * dk for mk, dk in zip(m, E.d)))
        if found is not None and found[0] == i:
            entries.append((i, found[1]))
    return tate.TateTerm(p, tuple(entries))


def _window_failure(E: SegreVeronese, m: tuple[int, ...]) -> dict | None:
    """Every column of the padded window equals the one ``_tate_term``
    builds on its own, and is pure exactly from the endpoints outward."""
    window = tate.tate_window(E, m, pad=3)
    n = E.n
    for t in window.terms:
        if t != _tate_term(E, m, t.p):
            return _instance(E, m=m, p=t.p, reason="window column differs from tate_term")
        if _pure(t, 0) != (t.p >= window.p_plus) or _pure(t, n) != (t.p <= window.p_minus):
            return _instance(E, m=m, p=t.p, reason="purity does not match endpoint")
    return None


def _window_structure(config: VerifyConfig, E: SegreVeronese) -> Iterator[dict | None]:
    # the _tate_term replay costs a full cohomology sweep per column, hence
    # the small box
    return (_window_failure(E, m) for m in itertools.product(range(-4, 5), repeat=E.r))


def _run_shard(task: tuple[tuple[str, ...], Callable, Any, VerifyConfig]) -> list[CheckResult]:
    """Tally one shard for each check the task names, in its order.  The
    pair walk tallies its checks itself; any other routine serves one
    check and yields None for an instance that holds and a counterexample
    for one that fails.  Runs in a worker process or in-process.

    ``VerifyConfig`` and ``run_checks`` refuse every bad input before a
    shard starts, so a ValueError raised here is a library fault: it is
    raised again as a RuntimeError naming the checks and the shard's unit."""
    names, routine, unit, config = task
    try:
        if routine is _walk_pairs:
            return _walk_pairs(config, unit, names)
        started = time.perf_counter()
        instances = failures = 0
        counterexample = None
        for outcome in routine(config, unit):
            instances += 1
            if outcome is not None:
                failures += 1
                counterexample = counterexample or outcome
    except ValueError as exc:
        raise RuntimeError(f"{', '.join(names)} failed on shard {unit!r}: {exc}") from exc
    return [CheckResult(names[0], instances, failures, counterexample, time.perf_counter() - started)]


def _available_cpus() -> int:
    """CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity API on this platform
        return os.cpu_count() or 1


def _worker_count(shards: int) -> int:
    """Processes to run ``shards`` shards on: one per available CPU, at
    most one per shard."""
    return max(1, min(_available_cpus(), shards))


def _pooled(tasks: list) -> list[list[CheckResult]]:
    """``_run_shard`` on every task, in task order, on ``_worker_count`` processes."""
    workers = _worker_count(len(tasks))
    if workers == 1:
        return list(map(_run_shard, tasks))
    # deferred: one-shot CLI calls never need them
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    # fork, not spawn: workers must run the caller's modules as they are
    # now, patched functions included, without importing anew.  A worker
    # that dies raises BrokenProcessPool, a RuntimeError.
    executor = ProcessPoolExecutor(workers, mp_context=multiprocessing.get_context("fork"))
    try:
        return list(executor.map(_run_shard, tasks))
    finally:
        executor.shutdown(cancel_futures=True)


class _Check(NamedTuple):
    """A check: ``routine(config, unit)`` on each unit of ``units(config)``,
    one shard each, in iteration order; and ``cost(config)``, one
    ``(instances, weight)`` pair for each kind of instance that walk has:
    how many, in closed form, and the cost of one, in pair instances.  The
    pair checks share the routine ``_walk_pairs``, and with it one walk."""

    routine: Callable
    units: Callable[[VerifyConfig], Iterable]
    cost: Callable[[VerifyConfig], list[tuple[int, int]]]


def _scan_weight(config: VerifyConfig) -> int:
    """The 2 bound + 4 oracle calls the minimal-twist scan of a box point
    may make, bound = n + max(|m_k| + l_k) + 2 <= 4 lmax + max(|lo|, |hi|)
    + 2 since n <= 3 lmax: 117 us at the reference's weight 48."""
    return 2 * (4 * config.lmax + max(map(abs, config.box)) + 2) + 4


# A weight prices one kind of instance of a check, such as the box pairs or
# the r=3 samples of a grid check: the mean cost of one, in pair instances,
# one formula-vs-oracle pair of the reference grid taking 2.3 us.  The costs
# quoted are CPU time per instance of the check run alone in one process, on
# one core of a 2-vCPU Xeon VM, at the reference grid unless stated.  An r=3
# sample's come from its shards alone, at lmax = dmax in 1, 3, 8 on the boxes
# 0..0 and -8..8, in pairs timed alternately with them in the same process.
CHECKS: dict[str, _Check] = {
    # the profile, the Serre dual twist's profile and the Euler characteristic,
    # read off the profile and by the polynomial, each replayed against a full
    # Kunneth convolution, exhaustively for r up to 3
    "cohomology": _Check(
        _cohomology,
        lambda config: [l for r in (1, 2, 3) for l in itertools.product(range(1, config.lmax + 1), repeat=r)],
        # its convolution and duality loops run over up to n + 1 <= 3 lmax + 1
        # degrees: 20-24 us at lmax 3 (weight 19, priced when it took 30-33),
        # 17-22 us at 1 and 22-25 at 8 on the box -2..2
        lambda config: [(sum((config.lmax * _width(config)) ** r for r in (1, 2, 3)), 2 * config.lmax + 13)],
    ),
    "formula-vs-oracle": _Check(
        _walk_pairs,
        _grid,
        # a pair 2.3-2.6 us, 5.5 us at lmax = dmax = 8 on the box -1..1; an
        # r=3 sample 22-36 us, 8.5-16.6 pairs
        lambda config: [(_box(config, 2), 1), (config.r3_samples, 17)],
    ),
    "corner-membership": _Check(
        _walk_pairs,
        _grid,
        # a pair 2.2 us, 3.6 us at lmax = dmax = 8 on the box -1..1; an r=3
        # sample 38-47 us, 15.3-22.9 pairs
        lambda config: [(_box(config, 2), 1), (config.r3_samples, 23)],
    ),
    "sorted-vs-subsets": _Check(
        _sorted_vs_subsets,
        lambda config: SUBSET_R,
        lambda config: [(len(SUBSET_R) * SUBSET_SAMPLES, 700)],  # 1.5-1.6 ms: up to 2^12 - 1 subsets each
    ),
    "minimal-twist": _Check(
        _minimal_twist,
        _grid,
        # an r=3 point scans as far, with costlier oracle calls: 51-630 us, 1.3-1.8,
        # 1.5-2.1 and 2.2-3.5 times its box weight at lmax = dmax = 1, 3 and 8
        lambda config: [
            (_box(config, 1), _scan_weight(config)),
            (config.r3_samples, (config.lmax + 7) * _scan_weight(config) // 4),
        ],
    ),
    # the two-factor Segre closed form against cm_regularity
    "segre-r2": _Check(_segre_closed_form, lambda config: [None], lambda config: [(3 * 3 * 11 * 11, 3)]),  # 4.7 us
    # lambda agrees with its case split, and lambda - 1 bounds reg of the
    # structure sheaf of the image from above, strictly so at l = (1, 2), d = (1, 1)
    "ideal-bound": _Check(
        _ideal_sheaf_bound,
        lambda config: [None],
        lambda config: [(_per_embedding(config, 1) + 1, 7)],  # 12-16 us
    ),
    # reg(m) + reg(m2) >= reg(m + m2) on seeded random pairs
    "subadditivity": _Check(
        _subadditivity,
        _embeddings,
        lambda config: [(_per_embedding(config, 1) * config.subadd_pairs, 7)],  # 10-15 us
    ),
    # the sum of two seeded pairs built from corner points, so meeting the
    # hypotheses, is regular
    "pair-subadditivity": _Check(
        _pair_subadditivity,
        _embeddings,
        lambda config: [(_per_embedding(config, 1) * config.pair_samples, 16)],  # 25-36 us
    ),
    "tate-endpoints": _Check(
        _tate_endpoints,
        lambda config: [None, *_grid(config)],
        # 33-46 us a closed-form or box instance; an r=3 sample 51-60 us,
        # 20.6-26.1 pairs
        lambda config: [(_tate_closed_form_count(config) + _box(config, 1), 22), (config.r3_samples, 27)],
    ),
    "tate-window": _Check(
        _window_structure,
        _embeddings,
        # a window's columns and their Kunneth calls grow with l and d:
        # 148 us at lmax = dmax = 1, 196 at 3, 248 at 4, 180 at lmax 1 and
        # dmax 8, 354 at lmax 8 and dmax 1, 463 at lmax 8 and dmax 4
        lambda config: [(_per_embedding(config, 9), 50 + config.lmax * (15 + config.dmax))],
    ),
}


def instance_counts(config: VerifyConfig) -> dict[str, int]:
    """The number of instances each check runs on ``config``, in closed
    form: nothing is enumerated, so a grid of any size is sized at once.
    ``config`` is in the grid's domain, as every ``VerifyConfig`` is."""
    return {name: sum(n for n, _ in check.cost(config)) for name, check in CHECKS.items()}


def run_checks(config: VerifyConfig, names: Sequence[str] | None = None) -> list[CheckResult]:
    """Run the named checks (all of them by default; ``CHECKS`` lists them)
    and report them in the order named.  This is the one way to run a check.

    The shards of every check named run on one pool, of one worker process
    per available CPU and at most one per shard; with a single CPU they run
    in this process.  The named pair checks share one walk.  Before any grid
    is built, names that are not a list or tuple, an empty list of names,
    an unknown and a repeated name are refused with ValueError, and so is a
    config that is not a ``VerifyConfig`` (one that is lies in the grid's
    domain) and a run that weighs more than ``MAX_INSTANCES``: the sum of
    ``instances * weight`` over the ``cost`` pairs of the checks named."""
    if names is None:
        selected = list(CHECKS)
    else:
        if not isinstance(names, (list, tuple)):
            raise ValueError(f"names must be a list or tuple of check names, got {names!r}")
        if not names:
            raise ValueError(f"no checks named; available: {', '.join(CHECKS)}")
        unknown = [n for n in names if not (isinstance(n, str) and n in CHECKS)]
        if unknown:
            raise ValueError(
                f"unknown checks: {', '.join(map(str, unknown))}; available: {', '.join(CHECKS)}"
            )
        repeated = sorted({n for n in names if names.count(n) > 1}, key=names.index)
        if repeated:
            raise ValueError(f"checks named more than once: {', '.join(repeated)}")
        selected = list(names)
    if not isinstance(config, VerifyConfig):
        raise ValueError(f"config must be a VerifyConfig, got {config!r}")
    costs = [pair for name in selected for pair in CHECKS[name].cost(config)]
    weighted = sum(n * weight for n, weight in costs)
    if weighted > MAX_INSTANCES:
        instances = sum(n for n, _ in costs)
        raise ValueError(
            f"the run has {instances} instances, or {weighted} weighted instances, over the limit of {MAX_INSTANCES}"
        )
    walks: dict[Callable, list[str]] = {}  # routine -> the checks that share its walk
    for name in selected:
        walks.setdefault(CHECKS[name].routine, []).append(name)
    tasks = [
        (tuple(walk), routine, unit, config)
        for routine, walk in walks.items()
        for unit in CHECKS[walk[0]].units(config)
    ]
    merged = {name: CheckResult(name, 0, 0) for name in selected}
    for shard in _pooled(tasks):
        for part in shard:
            result = merged[part.name]
            result.instances += part.instances
            result.failures += part.failures
            result.elapsed_s += part.elapsed_s
            result.counterexample = result.counterexample or part.counterexample
    return list(merged.values())
