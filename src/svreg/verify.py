"""Grid verification: replay every closed form against the brute-force
cohomology route on exhaustive small grids plus seeded random sampling.

Each check walks its grid in a fixed deterministic order and reports how
many instances it saw, how many failed, and the first failure (hence the
smallest one in iteration order) as a serializable counterexample.
Sampled instances are drawn through ``_drawer``, from a ``random.Random``
seeded off the configuration and a key of each stream's own, so reruns
are reproducible.

A check's grid is cut into shards that follow its iteration order, and
every shard is an embedding, a seeded stream or a fixed family: one per
embedding for the pair and point grids, then one holding all the r=3
samples; one per (r, l) for cohomology; one per factor count for
sorted-vs-subsets; a single shard for the small checks.
The two pair checks share one walk of the pair grid, which calls the
closed form once per pair and compares it with each route named.  The
shards of every check named run on one pool of forked workers per run,
one worker on a single CPU, and each check's are merged in shard order,
so instance counts and the first counterexample do not depend on the
number of workers.  The shards look the library functions up through
their modules, and keep no answer of theirs past the instance that asked
for it, so workers run whatever those modules hold when the run starts,
patched functions included.  The
second routes the checks replay, such as ``_tate_term``, the Euler
characteristic's polynomial ``_euler_polynomial``, the two-factor Segre
formula ``_segre_regularity``, the balanced closed form of the window
endpoints ``_balanced_endpoints`` and the case split of the ideal-sheaf
bound ``_case_split_lambda``, live only here.
"""
from __future__ import annotations

import itertools
import math
import multiprocessing
import os
import random
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import Any, Callable, ClassVar, Iterable, Iterator, NamedTuple, Sequence

from . import cohomology, regularity, tate
from .cohomology import Refusal, SegreVeronese

EMBEDDING_R = (1, 2)  # factor counts of the exhaustive embedding grids
COHOMOLOGY_R = (1, 2, 3)  # factor counts of the cohomology grid
SUBSET_R = range(4, 13)  # factor counts of the sorted-vs-subsets samples
SUBSET_SAMPLES = 20  # sorted-vs-subsets samples per factor count
SEGRE_DIMS = range(1, 4)  # a and b of P^a x P^b in segre-r2
SEGRE_TWISTS = range(-5, 6)  # k and l of its twists O(k, l)
TATE_R = (1, 2, 3)  # factor counts of the balanced embeddings of tate-endpoints
TATE_TWISTS = range(-6, 7)  # entries of its constant twists and its multisets
TATE_LONG_M = 9  # values of M in its twists (0, ..., 0, M), from (r-1)l up
WINDOW_BOX = range(-4, 5)  # tate-window twist entries; small, as a column's replay sweeps its cohomology
# the most a run may weigh, in the weight units defined above CHECKS: 4.7x
# the 21,405,029 of the reference grid
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
    config hashes) is refused with Refusal when it is built, by
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
                raise Refusal(f"{field} must be an integer, got {getattr(self, field)!r}")
        box = self.box
        if not (isinstance(box, tuple) and len(box) == 2 and all(type(v) is int for v in box)):
            raise Refusal(f"box must be two integers lo,hi, got {box!r}")
        for field in ("lmax", "dmax"):
            value = getattr(self, field)
            if not 1 <= value <= MAX_FACTOR_BOUND:
                raise Refusal(f"{field} must be between 1 and {MAX_FACTOR_BOUND}, got {value}")
        lo, hi = box
        if lo > hi:
            raise Refusal(f"box needs lo <= hi, got {lo},{hi}")
        if self.r3_samples < 0:
            raise Refusal(f"r3_samples must be >= 0, got {self.r3_samples}")
        if not 0 <= self.seed <= MAX_SEED:
            raise Refusal(f"seed must be between 0 and {MAX_SEED}, got {self.seed}")


@dataclass
class CheckResult:
    """A check's (or one shard's) tally, as ``run_checks`` reports it;
    ``elapsed_s`` is the sum of the wall times of its shards, measured
    in the workers.  The two pair checks named in one run share a walk and
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
    for r in EMBEDDING_R:
        for l in itertools.product(range(1, config.lmax + 1), repeat=r):
            for d in itertools.product(range(1, config.dmax + 1), repeat=r):
                yield SegreVeronese(l, d)


def _box_range(config: VerifyConfig) -> range:
    """Box entries lo..hi; its width is stop - start, as ``len`` overflows past ``sys.maxsize``."""
    lo, hi = config.box
    return range(lo, hi + 1)


def _drawer(config: VerifyConfig, key: str) -> tuple[random.Random, Callable, Callable[[int], tuple]]:
    """A generator seeded by ``config.seed`` and ``key`` alone, so each
    stream is drawn on its own; ``draw(start, stop)``, for stop > start,
    which gives what ``randrange(start, stop)`` on the generator gives; and
    a drawer of one r-entry box twist, each entry such a draw.  ``draw``
    reads the generator's ``getrandbits`` as CPython's ``randrange`` does
    (3.10 to 3.13), k = width.bit_length() bits at a time until a value
    below the width comes, without its argument checks and calls.  The
    keys are ``r3``, ``subsets|{r}``, ``subadd|{l}|{d}`` and
    ``pairs|{l}|{d}``, each drawn by one shard."""
    rng = random.Random(f"{config.seed}|{key}")
    bits = rng.getrandbits

    def draw(start: int, stop: int) -> int:
        width = stop - start
        k = width.bit_length()
        while (value := bits(k)) >= width:
            pass
        return start + value

    box = _box_range(config)
    lo, end = box.start, box.stop
    return rng, draw, lambda r: tuple([draw(lo, end) for _ in range(r)])


def _samples(config: VerifyConfig, key: str, r: int, count: int) -> Iterator[tuple[SegreVeronese, tuple, tuple]]:
    """``count`` seeded (E, m, p) with r factors, drawn through ``_drawer``."""
    _, draw, twist = _drawer(config, key)
    l_end, d_end = config.lmax + 1, config.dmax + 1
    for _ in range(count):
        l = tuple([draw(1, l_end) for _ in range(r)])
        d = tuple([draw(1, d_end) for _ in range(r)])
        yield SegreVeronese(l, d), twist(r), twist(r)


def _per_embedding(config: VerifyConfig, instances: int) -> int:
    """Instances over every embedding, ``instances ** r`` on one with r
    factors: one per embedding for 1, one per box point for the box width."""
    return sum((config.lmax * config.dmax * instances) ** r for r in EMBEDDING_R)


def _box(config: VerifyConfig, k: int) -> int:
    """Box instances of the point grid for k = 1, each (E, m), and of the
    pair grid for k = 2, each (E, m, p); the r=3 samples come on top."""
    box = _box_range(config)
    return _per_embedding(config, (box.stop - box.start) ** k)


def _grid(config: VerifyConfig) -> list[SegreVeronese | range]:
    """Shards of the pair and point grids in iteration order: every
    embedding, then one range of all the r=3 samples, one stream."""
    return [*_embeddings(config), range(config.r3_samples)]


def _pair_groups(
    config: VerifyConfig, unit: SegreVeronese | range
) -> Iterator[tuple[SegreVeronese, tuple, Sequence, tuple[range, ...]]]:
    """(E, m, ps, span) over one shard of the pair grid: each (E, m) of the
    point grid with every box point p of E, or with one seeded r=3 sample's
    p.  The span holds one range per factor, and ps is its product in
    ``itertools.product`` order, which ``_dominated`` follows: the box, or
    the sample's point."""
    if isinstance(unit, range):
        samples = _samples(config, "r3", 3, len(unit))
        return ((E, m, (p,), tuple([range(pk, pk + 1) for pk in p])) for E, m, p in samples)
    span = (_box_range(config),) * unit.r
    pts = list(itertools.product(*span))
    return ((unit, m, pts, span) for m in pts)


def _instance(E: SegreVeronese, **extra) -> dict:
    out = {"l": list(E.l), "d": list(E.d)}
    for key, value in extra.items():
        out[key] = list(value) if isinstance(value, tuple) else value
    return out


def _dominated(corners: Iterable[Sequence[int]], span: Sequence[range]) -> list[bool]:
    """Whether each point of the span dominates some corner c, p_k >= c_k
    for every k, listed in the order of ``itertools.product(*span)``: the
    order of the ps ``_pair_groups`` yields with the span, so the list
    lines up with the pairs' answers.  Each corner, clamped to the span's
    starts, marks a run over the last coordinate in every row of the
    leading coordinates at or above it."""
    *lead, last = span
    width = len(last)
    flags = [False] * math.prod(map(len, span))
    for corner in corners:
        *head, tail = [max(c - s.start, 0) for c, s in zip(corner, span)]
        if tail >= width:
            continue
        run = [True] * (width - tail)
        rows = [0]
        for o, s in zip(head, lead):
            rows = [row * len(s) + k for row in rows for k in range(o, len(s))]
        for row in rows:
            flags[row * width + tail : (row + 1) * width] = run
    return flags


def _tally(
    result: CheckResult, E: SegreVeronese, m: tuple, ps: Sequence, regular: list[bool], answers: list[bool], key: str
) -> None:
    """Count the pairs whose answer by a route differs from the closed
    form's, and keep the first as the counterexample."""
    mismatches = [(p, f, a) for p, f, a in zip(ps, regular, answers) if f != a]
    result.failures += len(mismatches)
    p, f, a = mismatches[0]
    result.counterexample = result.counterexample or _instance(E, m=m, p=p, formula=f, **{key: a})


def _walk_pairs(config: VerifyConfig, unit: SegreVeronese | range, names: Sequence[str]) -> list[CheckResult]:
    """Tally one shard of the pair grid for each pair check named, in that
    order.  Each (E, m, ps) group is answered as one list per route, in the
    order of ps: the closed form, called once per pair; the cohomology scan
    for formula-vs-oracle; and for corner-membership, domination of the
    corners of O(m), filled in once per m over the group's span.  Only a
    list that differs from the closed form's is searched for its
    mismatches."""
    formula, oracle = regularity.is_regular_formula, regularity.is_regular_oracle
    checks = {name: CheckResult(name, 0, 0) for name in names}
    fo, cm = checks.get("formula-vs-oracle"), checks.get("corner-membership")
    instances = 0
    for E, m, ps, span in _pair_groups(config, unit):
        instances += len(ps)
        regular = [formula(E, m, p) for p in ps]
        if fo and (answers := [oracle(E, m, p) for p in ps]) != regular:
            _tally(fo, E, m, ps, regular, answers, "oracle")
        if cm:
            corners = (c.corner for c in regularity.regularity_corners(E, m))
            if (dominated := _dominated(corners, span)) != regular:
                _tally(cm, E, m, ps, regular, dominated, "corners")
    for result in checks.values():
        result.instances = instances
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


def _minimal_twist_failure(E: SegreVeronese, m: tuple[int, ...], multiples: dict[int, tuple]) -> dict | None:
    """Scan the twists q*d from q = -bound up with the cohomology route:
    the first regular one, which -bound must not be, is the least, and is
    compared against cm_regularity, and the three above it must be regular
    too.  ``multiples`` maps every q the scan may reach, -bound to
    bound + 3, to the vector q*d."""
    rho = regularity.cm_regularity(E, m)
    bound = E.n + max(abs(mk) + lk for mk, lk in zip(m, E.l)) + 2
    for found in range(-bound, bound + 1):
        if regularity.is_regular_oracle(E, m, multiples[found]):
            break
    else:
        return _instance(E, m=m, reason=f"no regular twist in [{-bound}, {bound}]")
    if found == -bound:
        return _instance(E, m=m, reason=f"scan lower bound {-bound} is already regular")
    if found != rho:
        return _instance(E, m=m, minimal_twist=found, cm_regularity=rho)
    for q in range(found + 1, found + 4):
        if not regularity.is_regular_oracle(E, m, multiples[q]):
            return _instance(E, m=m, reason=f"twist {q} above the minimum {found} is not regular")
    return None


def _scan_bound(config: VerifyConfig) -> int:
    """The largest bound of a minimal-twist scan on the grid:
    n + max(|m_k| + l_k) + 2 <= 4 lmax + max(|lo|, |hi|) + 2, as n <= 3 lmax."""
    return 4 * config.lmax + max(map(abs, config.box)) + 2


def _minimal_twist(config: VerifyConfig, unit: SegreVeronese | range) -> Iterator[dict | None]:
    """The scan of every point of the shard.  Its vectors q*d are built once
    per d the shard meets, for every q a scan may reach, up to three past
    its bound."""
    reach = _scan_bound(config) + 3
    scans: dict[tuple, dict[int, tuple]] = {}
    for E, m, *_ in _pair_groups(config, unit):
        d = E.d
        if (multiples := scans.get(d)) is None:
            multiples = scans[d] = {q: tuple([q * dk for dk in d]) for q in range(-reach, reach + 1)}
        yield _minimal_twist_failure(E, m, multiples)


def _factor_table(l: int, j: int) -> list[int]:
    """[h^0, ..., h^l] of O(j) on P^l by the Bott rules, not through
    ``cohomology``: C(j+l, l) if j >= 0, C(-j-1, l) in degree l if j < -l."""
    table = [0] * (l + 1)
    if j >= 0:
        table[0] = math.comb(j + l, l)
    elif j <= -l - 1:
        table[l] = math.comb(-j - 1, l)
    return table


def _euler_factor(l: int, a: int) -> int:
    """chi(O(a)) on P^l by the polynomial, not through the profile:
    (a+1)(a+2)...(a+l) / l!, exact since l consecutive integers have a
    product divisible by l!, and signed for negative a."""
    return math.prod(range(a + 1, a + l + 1)) // math.factorial(l)


def _euler_polynomial(l: Sequence[int], a: Sequence[int]) -> int:
    """chi(O(a)) on the product of the P^{l_k}: the product of the factors'
    ``_euler_factor``."""
    return math.prod(map(_euler_factor, l, a))


def _convolve(conv: list[int], table: list[int]) -> list[int]:
    """One step of the Kunneth convolution: the table of a product with
    table ``conv``, times one more factor with table ``table``."""
    new = [0] * (len(conv) + len(table) - 1)
    for i, ci in enumerate(conv):
        if ci:
            for j, tj in enumerate(table):
                if tj:
                    new[i + j] += ci * tj
    return new


def _kunneth_table(l: Sequence[int], a: Sequence[int]) -> list[int]:
    """[h^0, ..., h^n] of O(a) on the product of the P^{l_k}: the Kunneth
    convolution of the factor tables, without the concentration shortcut."""
    conv = [1]
    for lk, ak in zip(l, a):
        conv = _convolve(conv, _factor_table(lk, ak))
    return conv


def _cohomology_failure(E: SegreVeronese, a: tuple[int, ...], conv: list[int], polynomial: int) -> dict | None:
    """The profile of O(a), the profile of its Serre dual twist and chi,
    read off the first profile and by the polynomial, each compared once
    with ``conv``, the Kunneth convolution of the factor tables of O(a).
    ``conv`` and ``polynomial``, chi by the polynomial, are those of
    ``_kunneth_table(E.l, a)`` and ``_euler_polynomial(E.l, a)``;
    ``_cohomology`` passes them built from its head's shared values."""
    n = E.n
    profile = cohomology.product_cohomology(E, a)
    # table(n) refuses a degree over n, which only a library fault yields:
    # for this profile and the dual one below, it is a counterexample
    if (profile.degree or 0) > n or profile.table(n) != conv:
        return _instance(E, a=a, reason="profile disagrees with Kunneth convolution", profile=profile, table=conv)
    dual = tuple([-ak - lk - 1 for ak, lk in zip(a, E.l)])
    dual_profile = cohomology.product_cohomology(E, dual)
    if (dual_profile.degree or 0) > n or dual_profile.table(n)[::-1] != conv:
        return _instance(E, a=a, reason="Serre duality violated", dual=dual, dual_profile=dual_profile)
    alternating = sum(conv[::2]) - sum(conv[1::2])
    chi = profile.euler_characteristic
    if chi != alternating or polynomial != alternating:
        reason = "Euler characteristic disagrees"
        return _instance(E, a=a, reason=reason, chi=chi, polynomial=polynomial, alternating=alternating)
    return None


def _cohomology(config: VerifyConfig, l: tuple[int, ...]) -> Iterator[dict | None]:
    """Every twist a of the box on the product of the P^{l_k}, in
    ``itertools.product`` order.  The twists of one head, the entries of
    the leading r - 1 factors, share the head's convolution and Euler
    product, which are built once and extended by the last factor's table
    and ``_euler_factor`` for each twist; those of the last factor are
    built once per shard, and the walk holds one head at a time."""
    E = SegreVeronese(l, (1,) * len(l))
    box = _box_range(config)
    *lead, last = l
    tails = [(a_last, _factor_table(last, a_last), _euler_factor(last, a_last)) for a_last in box]
    for head in itertools.product(box, repeat=len(lead)):
        conv = _kunneth_table(lead, head)
        polynomial = _euler_polynomial(lead, head)
        for a_last, table, chi in tails:
            yield _cohomology_failure(E, (*head, a_last), _convolve(conv, table), polynomial * chi)


def _segre_regularity(a: int, b: int, k: int, l: int) -> int:
    """Regularity of the pushforward of O(k, l) under the Segre embedding of
    P^a x P^b, a, b >= 1: max(-min(k, l), min(b - k, a - l))."""
    return max(-min(k, l), min(b - k, a - l))


def _segre_closed_form(config: VerifyConfig, _unit: None) -> Iterator[dict | None]:
    for a, b in itertools.product(SEGRE_DIMS, repeat=2):
        E = SegreVeronese((a, b), (1, 1))
        for k, twist_l in itertools.product(SEGRE_TWISTS, repeat=2):
            special = _segre_regularity(a, b, k, twist_l)
            general = regularity.cm_regularity(E, (k, twist_l))
            yield None if special == general else _instance(E, m=(k, twist_l), special=special, general=general)


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
        holds = bound == case_split and bound - 1 >= reg_zero
        yield None if holds else _instance(E, bound=bound, case_split=case_split, reg_zero=reg_zero)
    witness = SegreVeronese((1, 2), (1, 1))
    bound = regularity.ideal_sheaf_bound(witness)
    reg_zero = regularity.cm_regularity(witness, (0, 0))
    holds = bound - 1 == 2 and reg_zero == 1 and bound - 1 > reg_zero
    yield None if holds else _instance(witness, bound=bound, reg_zero=reg_zero, reason="strictness witness failed")


def _subadditivity(config: VerifyConfig, E: SegreVeronese) -> Iterator[dict | None]:
    *_, twist = _drawer(config, f"subadd|{E.l}|{E.d}")
    for _ in range(config.subadd_pairs):
        m, m2 = twist(E.r), twist(E.r)
        report = regularity.check_subadditivity(E, m, m2)
        yield None if report.holds else _instance(E, m=m, m2=m2, report=report._asdict())


def _pair_subadditivity(config: VerifyConfig, E: SegreVeronese) -> Iterator[dict | None]:
    rng, draw, twist = _drawer(config, f"pairs|{E.l}|{E.d}")
    for _ in range(config.pair_samples):
        m, m2 = twist(E.r), twist(E.r)
        c1 = rng.choice(regularity.regularity_corners(E, m)).corner
        p = tuple([ck + draw(0, 3) for ck in c1])
        c2 = rng.choice(regularity.regularity_corners(E, m2)).corner
        p2 = tuple([ck + draw(0, 3) for ck in c2])
        status = regularity.check_pair_subadditivity(E, m, p, m2, p2)
        if status != "holds":
            yield _instance(E, m=m, p=p, m2=m2, p2=p2, status=status)
            continue
        # one step below a corner dominates no corner, as no corner lies
        # below another: each lowered pair misses its hypothesis
        low, low2 = tuple([ck - 1 for ck in c1]), tuple([ck - 1 for ck in c2])
        for q, q2 in ((low, p2), (p, low2)):
            status = regularity.check_pair_subadditivity(E, m, q, m2, q2)
            if status != "hypothesis-not-met":
                reason = "a pair below a corner met the hypothesis"
                yield _instance(E, m=m, p=q, m2=m2, p2=q2, status=status, reason=reason)
                break
        else:
            yield None


def _p_minus_ceiling(E: SegreVeronese, m: Sequence[int]) -> int:
    """p_minus through its direct form, independent of the dual twist:
    -max over nonempty J of min over k in J of (ceil((m_k+1)/d_k) - l_{J^c}).
    The subsets J come from the rows of cm_regularity_breakdown, and each
    factor's ceiling is computed once."""
    n = E.n
    ceiling = [-(-(mk + 1) // dk) for mk, dk in zip(m, E.d)].__getitem__
    return -max([min(map(ceiling, J)) - (n - lJ) for J, lJ, _ in regularity.cm_regularity_breakdown(E, m)])


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
    balanced = [(r, l, SegreVeronese((l,) * r, (1,) * r)) for r in TATE_R for l in range(1, config.lmax + 1)]
    # constant m: window length is (r-1)l + 1 whatever m is
    for r, l, E in balanced:
        for m_val in TATE_TWISTS:
            m = (m_val,) * r
            length = regularity.cm_regularity(E, m) - tate.p_minus(E, m)
            expected = (r - 1) * l + 1
            yield None if length == expected else _instance(E, m=m, length=length, expected=expected)
    # balanced closed form against the general operations
    for r, l, E in balanced:
        for ms in itertools.combinations_with_replacement(TATE_TWISTS, r):
            got = _balanced_endpoints(E, ms)
            want = (regularity.cm_regularity(E, ms), tate.p_minus(E, ms))
            yield None if got == want else _instance(E, m=ms, balanced=list(got), general=list(want))
    # m = (0, ..., 0, M) with M >= (r-1)l and r >= 2: window length grows as M - l + 1
    for r, l, E in balanced:
        for M in range((r - 1) * l, (r - 1) * l + TATE_LONG_M * (r > 1)):
            m = (0,) * (r - 1) + (M,)
            length = regularity.cm_regularity(E, m) - tate.p_minus(E, m)
            expected = M - l + 1
            yield None if length == expected else _instance(E, m=m, length=length, expected=expected)


def _tate_closed_form_count(config: VerifyConfig) -> int:
    twists = len(TATE_TWISTS)
    return config.lmax * sum(twists + math.comb(twists + r - 1, r) + TATE_LONG_M * (r > 1) for r in TATE_R)


def _tate_endpoints(config: VerifyConfig, unit: SegreVeronese | range | None) -> Iterator[dict | None]:
    if unit is None:
        return _tate_closed_forms(config)
    return (_duality_failure(E, m) for E, m, *_ in _pair_groups(config, unit))


def _pure(term: tate.TateTerm, degree: int) -> bool:
    """True when every summand of the column sits in the given degree."""
    return all(i == degree for i, _ in term.entries)


def _twist_table(E: SegreVeronese, m: Sequence[int], qs: range) -> dict[int, tuple[int, int] | None]:
    """``cohomology._kunneth``'s answer for O(m + q d), for each q in qs.
    It is not the ``tate._kunneth`` that ``tate_window`` calls, so a fault
    there shows."""
    l, d = E.l, E.d
    return {q: cohomology._kunneth(l, [mk + q * dk for mk, dk in zip(m, d)]) for q in qs}


def _tate_term(E: SegreVeronese, m: Sequence[int], p: int, table: dict | None = None) -> tate.TateTerm:
    """Column p of the Tate resolution, column by column and not twist by
    twist as ``tate_window`` files it: dim H^i(O(m + (p-i)d)) for each i
    in 0..n, read from ``table``, a ``_twist_table`` that holds q = p - n
    to p, or from one of its own."""
    n = E.n
    if table is None:
        table = _twist_table(E, m, range(p - n, p + 1))
    entries = []
    for i in range(n + 1):
        found = table[p - i]
        if found is not None and found[0] == i:
            entries.append((i, found[1]))
    return tate.TateTerm(p, tuple(entries))


def _window_failure(E: SegreVeronese, m: tuple[int, ...]) -> dict | None:
    """Every column of the padded window equals the one ``_tate_term``
    builds, and is pure exactly from the endpoints outward.  The columns
    share one ``_twist_table``, from n below the first column to the last:
    each twist is evaluated once, columns + n calls in all."""
    window = tate.tate_window(E, m, pad=3)
    n = E.n
    ps = [t.p for t in window.terms]
    table = _twist_table(E, m, range(min(ps) - n, max(ps) + 1)) if ps else {}
    for t in window.terms:
        if t != _tate_term(E, m, t.p, table):
            return _instance(E, m=m, p=t.p, reason="window column differs from tate_term")
        if _pure(t, 0) != (t.p >= window.p_plus) or _pure(t, n) != (t.p <= window.p_minus):
            return _instance(E, m=m, p=t.p, reason="purity does not match endpoint")
    return None


def _window_structure(config: VerifyConfig, E: SegreVeronese) -> Iterator[dict | None]:
    return (_window_failure(E, m) for m in itertools.product(WINDOW_BOX, repeat=E.r))


def _run_shard(task: tuple[tuple[str, ...], Callable, Any, VerifyConfig]) -> list[CheckResult]:
    """Tally one shard for each check the task names, in its order.  The
    pair walk tallies its checks itself; any other routine serves one
    check and yields None for an instance that holds and a counterexample
    for one that fails.  Runs in a worker process, and each result it
    returns reports the shard's wall time, timed from before the routine.

    ``VerifyConfig`` and ``run_checks`` refuse every bad input before a
    shard starts, so any exception raised here is a library fault, raised
    again as a RuntimeError naming its type, the checks and the unit.  A
    ``Refusal`` is named ValueError: here it refuses nothing the caller
    gave."""
    names, routine, unit, config = task
    started = time.perf_counter()
    try:
        if routine is _walk_pairs:
            results = _walk_pairs(config, unit, names)
        else:
            instances = failures = 0
            counterexample = None
            for outcome in routine(config, unit):
                instances += 1
                if outcome is not None:
                    failures += 1
                    counterexample = counterexample or outcome
            results = [CheckResult(names[0], instances, failures, counterexample)]
    except Exception as exc:
        kind = "ValueError" if isinstance(exc, Refusal) else type(exc).__name__
        raise RuntimeError(f"{', '.join(names)} failed on shard {unit!r}: {kind}: {exc}") from exc
    elapsed = time.perf_counter() - started
    for result in results:
        result.elapsed_s = elapsed
    return results


def _available_cpus() -> int:
    """CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity API on this platform
        return os.cpu_count() or 1


def _worker_count(shards: int) -> int:
    """Processes to run ``shards`` shards on: one per available CPU, at
    most one per shard."""
    return min(_available_cpus(), shards)


def _pooled(tasks: list) -> list[list[CheckResult]]:
    """``_run_shard`` on every task, in task order, on ``_worker_count``
    forked processes: one when the run has one shard or one CPU."""
    # fork, not spawn: workers must run the caller's modules as they are
    # now, patched functions included, without importing anew.  Any exception
    # from a shard is a library fault, BrokenProcessPool from one that dies too.
    executor = ProcessPoolExecutor(_worker_count(len(tasks)), mp_context=multiprocessing.get_context("fork"))
    try:
        return list(executor.map(_run_shard, tasks))
    finally:
        executor.shutdown(cancel_futures=True)


class _Check(NamedTuple):
    """A check: ``routine(config, unit)`` on each unit of ``units(config)``,
    one shard each, in iteration order; and ``cost(config)``, one
    ``(instances, weight)`` pair for each kind of instance that walk has:
    how many, in closed form, and the cost of one, in the weight units
    defined above ``CHECKS``.  The pair checks share the routine
    ``_walk_pairs``, and with it one walk."""

    routine: Callable
    units: Callable[[VerifyConfig], Iterable]
    cost: Callable[[VerifyConfig], list[tuple[int, int]]]


def _scan_weight(config: VerifyConfig) -> int:
    """The 2 bound + 4 oracle calls the minimal-twist scan of a box point
    may make, with the bound ``_scan_bound``: 15.2 us at the reference's
    weight 48."""
    return 2 * _scan_bound(config) + 4


# A weight prices one kind of instance of a check, such as the box pairs or
# the r=3 samples of a grid check: the mean cost of one, in units.  A unit is
# what one formula-vs-oracle pair of the reference grid cost when the weights
# were set, 2.3 us.  Each entry's comment gives what an instance costs now,
# so MAX_INSTANCES units last 27-84 CPU-s, depending on the checks named.
# The costs quoted are CPU time per instance of the check run alone in one
# process, on one core of a 2-vCPU Xeon VM, at the reference grid unless
# stated.  An r=3 sample's come from its shard alone, at lmax = dmax
# in 1, 3, 8 on the boxes 0..0 and -8..8, and in pairs: the cost of one
# reference box pair of the same check, or of formula-vs-oracle for
# tate-endpoints.  The costs of cohomology, minimal-twist, subadditivity,
# tate-endpoints and tate-window are the least of three runs, taken on a
# day when a reference formula-vs-oracle pair took 0.67 us, not 0.48.
CHECKS: dict[str, _Check] = {
    # the profile, the Serre dual twist's profile and the Euler characteristic,
    # read off the profile and by the polynomial, each replayed against a full
    # Kunneth convolution, exhaustively for r up to 3
    "cohomology": _Check(
        _cohomology,
        lambda config: [l for r in COHOMOLOGY_R for l in itertools.product(range(1, config.lmax + 1), repeat=r)],
        # its convolution and duality tables run over up to n + 1 <= 3 lmax + 1
        # degrees, and the twists of one head share its convolution and Euler
        # product: 5.5 us at lmax 3, 6.6 at 1 and 5.8 at 8 on the box -2..2
        lambda config: [
            (sum((config.lmax * (box.stop - box.start)) ** r for r in COHOMOLOGY_R), 2 * config.lmax + 13)
            for box in [_box_range(config)]
        ],
    ),
    "formula-vs-oracle": _Check(
        _walk_pairs,
        _grid,
        # a pair 0.48 us, 1.6-1.7 us at lmax = dmax = 8 on the box -1..1; an
        # r=3 sample 7.9-13.4 us, 16-28 pairs
        lambda config: [(_box(config, 2), 1), (config.r3_samples, 17)],
    ),
    "corner-membership": _Check(
        _walk_pairs,
        _grid,
        # a pair 0.27 us, 1.15 us at lmax = dmax = 8 on the box -1..1; an r=3
        # sample 20.7-24.6 us, 75-92 pairs, its six corners' orthants filled
        # in over its one-point span
        lambda config: [(_box(config, 2), 1), (config.r3_samples, 23)],
    ),
    "sorted-vs-subsets": _Check(
        _sorted_vs_subsets,
        lambda config: SUBSET_R,
        lambda config: [(len(SUBSET_R) * SUBSET_SAMPLES, 700)],  # 0.58 ms: up to 2^12 - 1 subsets each
    ),
    "minimal-twist": _Check(
        _minimal_twist,
        _grid,
        # an r=3 point scans as far, with costlier oracle calls: 17-44, 38-59
        # and 88-99 us at lmax = dmax = 1, 3 and 8, 1.1-6.5 box instances
        lambda config: [
            (_box(config, 1), _scan_weight(config)),
            (config.r3_samples, (config.lmax + 7) * _scan_weight(config) // 4),
        ],
    ),
    # the two-factor Segre closed form against cm_regularity
    "segre-r2": _Check(
        _segre_closed_form,
        lambda config: [None],
        lambda config: [((len(SEGRE_DIMS) * len(SEGRE_TWISTS)) ** 2, 3)],  # 1.6 us
    ),
    # lambda agrees with its case split, and lambda - 1 bounds reg of the
    # structure sheaf of the image from above, strictly so at l = (1, 2), d = (1, 1)
    "ideal-bound": _Check(
        _ideal_sheaf_bound,
        lambda config: [None],
        lambda config: [(_per_embedding(config, 1) + 1, 7)],  # 5.3-5.8 us
    ),
    # reg(m) + reg(m2) >= reg(m + m2) on seeded random pairs
    "subadditivity": _Check(
        _subadditivity,
        _embeddings,
        lambda config: [(_per_embedding(config, 1) * config.subadd_pairs, 7)],  # 4.3 us
    ),
    # the sum of two seeded pairs built from corner points, so meeting the
    # hypotheses, is regular, and either pair lowered one step below its
    # corner misses them
    "pair-subadditivity": _Check(
        _pair_subadditivity,
        _embeddings,
        # 13.5-22.7 us with its two lowered pairs, 11.4-15.9 without in
        # runs taken alternately
        lambda config: [(_per_embedding(config, 1) * config.pair_samples, 16)],
    ),
    "tate-endpoints": _Check(
        _tate_endpoints,
        lambda config: [None, *_grid(config)],
        # 9.6 us a closed-form or box instance; an r=3 sample 19.3-23.0 us,
        # 29-34 pairs
        lambda config: [(_tate_closed_form_count(config) + _box(config, 1), 22), (config.r3_samples, 27)],
    ),
    "tate-window": _Check(
        _window_structure,
        _embeddings,
        # a window's columns and their Kunneth calls, one per twist in the
        # window and in its replay, grow with l and d: 54 us at lmax = dmax = 1
        # (the least of 20 passes), 68 at 3, 80 at 4, 70 at lmax 1 and dmax 8,
        # 81 at lmax 8 and dmax 1, 102 at lmax 8 and dmax 4
        lambda config: [(_per_embedding(config, len(WINDOW_BOX)), 50 + config.lmax * (15 + config.dmax))],
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

    The shards of every check named run on one pool of forked worker
    processes, one per available CPU and at most one per shard.  The named
    pair checks share one walk.  Before any grid is built, names that are
    not a list or tuple, an empty list of names, an unknown and a repeated
    name are refused with Refusal, and so is a config that is not a
    ``VerifyConfig`` (one that is lies in the grid's domain) and a run that
    weighs more than ``MAX_INSTANCES``: the sum of ``instances * weight``
    over the ``cost`` pairs of the checks named."""
    if names is None:
        selected = list(CHECKS)
    else:
        if not isinstance(names, (list, tuple)):
            raise Refusal(f"names must be a list or tuple of check names, got {names!r}")
        if not names:
            raise Refusal(f"no checks named; available: {', '.join(CHECKS)}")
        unknown = [n for n in names if not (isinstance(n, str) and n in CHECKS)]
        if unknown:
            raise Refusal(
                f"unknown checks: {', '.join(map(str, unknown))}; available: {', '.join(CHECKS)}"
            )
        repeated = sorted({n for n in names if names.count(n) > 1}, key=names.index)
        if repeated:
            raise Refusal(f"checks named more than once: {', '.join(repeated)}")
        selected = list(names)
    if not isinstance(config, VerifyConfig):
        raise Refusal(f"config must be a VerifyConfig, got {config!r}")
    costs = [pair for name in selected for pair in CHECKS[name].cost(config)]
    weighted = sum(n * weight for n, weight in costs)
    if weighted > MAX_INSTANCES:
        instances = sum(n for n, _ in costs)
        raise Refusal(
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
