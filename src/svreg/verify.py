"""Grid verification: replay every closed form against the brute-force
cohomology route on exhaustive small grids plus seeded random sampling.

Each check walks its grid in a fixed deterministic order and reports how
many instances it saw, how many failed, and the first failure (hence the
smallest one in iteration order) as a serializable counterexample.
Sampled instances come from ``random.Random`` seeded off the
configuration, so reruns are reproducible.

A check's grid is cut into shards that follow its iteration order: one per
embedding for the pair and point grids, then contiguous slices of the
seeded r=3 stream; one per (r, l) for cohomology; a single shard for the
small checks.  The shards run on a pool of forked worker processes and are
merged in shard order, so instance counts and the first counterexample do
not depend on the number of workers.  The pool is forked anew for every
check, and shards look the ``regularity`` and ``tate`` functions up
through their modules, so workers run whatever those modules hold when the
check is called, patched functions included.
"""
from __future__ import annotations

import itertools
import os
import random
import time
from dataclasses import dataclass
from functools import lru_cache
from typing import Any, Callable, Iterable, Iterator, Sequence

from . import cohomology, regularity, tate
from .cohomology import SegreVeronese

R3_SLICE = 1000  # seeded r=3 samples per shard


@dataclass(frozen=True)
class VerifyConfig:
    """Grid bounds and sample counts; the defaults are the reference grid."""

    lmax: int = 3
    dmax: int = 3
    box: tuple[int, int] = (-8, 8)
    r3_samples: int = 10000
    seed: int = 1729
    subadd_pairs: int = 1000
    pair_samples: int = 200


@dataclass
class CheckResult:
    """A check's (or one shard's) tally; ``elapsed_s`` is the sum of the
    wall times of its shards, measured where they ran."""

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
            "counterexample": self.counterexample,
            "elapsed_s": round(self.elapsed_s, 3),
        }


def _embeddings(config: VerifyConfig, r_values: Sequence[int] = (1, 2)) -> Iterator[SegreVeronese]:
    for r in r_values:
        for l in itertools.product(range(1, config.lmax + 1), repeat=r):
            for d in itertools.product(range(1, config.dmax + 1), repeat=r):
                yield SegreVeronese(l, d)


def _box_points(config: VerifyConfig, r: int) -> list[tuple[int, ...]]:
    lo, hi = config.box
    return list(itertools.product(range(lo, hi + 1), repeat=r))


@lru_cache(maxsize=1)
def _r3_samples(config: VerifyConfig) -> tuple[tuple[tuple, tuple, tuple, tuple], ...]:
    """Seeded (l, d, m, p) samples with r = 3; the same sequence for every
    check that consumes it, whichever shard reads which slice."""
    rng = random.Random(config.seed)
    lo, hi = config.box
    out = []
    for _ in range(config.r3_samples):
        l = tuple(rng.randint(1, config.lmax) for _ in range(3))
        d = tuple(rng.randint(1, config.dmax) for _ in range(3))
        m = tuple(rng.randint(lo, hi) for _ in range(3))
        p = tuple(rng.randint(lo, hi) for _ in range(3))
        out.append((l, d, m, p))
    return tuple(out)


def _grid(config: VerifyConfig) -> list[SegreVeronese | slice]:
    """Shards of the pair and point grids in iteration order: every
    embedding with r in {1, 2}, then contiguous slices of the r=3 stream."""
    n = config.r3_samples
    slices = [slice(start, min(start + R3_SLICE, n)) for start in range(0, n, R3_SLICE)]
    return [*_embeddings(config), *slices]


def _pairs(config: VerifyConfig, unit: SegreVeronese | slice) -> Iterator[tuple[SegreVeronese, tuple, tuple]]:
    """(E, m, p) over one shard of the pair grid."""
    if isinstance(unit, slice):
        return ((SegreVeronese(l, d), m, p) for l, d, m, p in _r3_samples(config)[unit])
    pts = _box_points(config, unit.r)
    return itertools.product((unit,), pts, pts)


def _points(config: VerifyConfig, unit: SegreVeronese | slice) -> Iterator[tuple[SegreVeronese, tuple]]:
    """(E, m) over one shard of the point grid; r=3 samples drop their p."""
    if isinstance(unit, slice):
        return ((SegreVeronese(l, d), m) for l, d, m, _ in _r3_samples(config)[unit])
    return itertools.product((unit,), _box_points(config, unit.r))


def _instance(E: SegreVeronese, **extra) -> dict:
    out = {"l": list(E.l), "d": list(E.d)}
    for key, value in extra.items():
        out[key] = list(value) if isinstance(value, tuple) else value
    return out


def _compare(
    pairs: Iterable[tuple[SegreVeronese, tuple, tuple]],
    f: Callable[..., bool],
    g: Callable[..., bool],
    f_key: str,
    g_key: str,
) -> Iterator[dict | None]:
    """Two routes to the same predicate, evaluated on every (E, m, p)."""
    for E, m, p in pairs:
        a = f(E, m, p)
        b = g(E, m, p)
        yield None if a == b else _instance(E, m=m, p=p, **{f_key: a, g_key: b})


def _formula_vs_oracle(config: VerifyConfig, unit: SegreVeronese | slice) -> Iterator[dict | None]:
    return _compare(
        _pairs(config, unit), regularity.is_regular_formula, regularity.is_regular_oracle, "formula", "oracle"
    )


def _corner_membership(config: VerifyConfig, unit: SegreVeronese | slice) -> Iterator[dict | None]:
    return _compare(
        _pairs(config, unit), regularity.in_regularity_set, regularity.is_regular_formula, "member", "formula"
    )


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


def _minimal_twist(config: VerifyConfig, unit: SegreVeronese | slice) -> Iterator[dict | None]:
    return (_minimal_twist_failure(E, m) for E, m in _points(config, unit))


def _cohomology_failure(E: SegreVeronese, a: tuple[int, ...]) -> dict | None:
    n = E.n
    profile = cohomology.product_cohomology(E, a)
    # independent route: full Kunneth convolution of the factor tables
    conv = [1]
    for lk, ak in zip(E.l, a):
        t = cohomology.factor_cohomology(lk, ak).table(lk)
        new = [0] * (len(conv) + lk)
        for i, ci in enumerate(conv):
            if ci:
                for j, tj in enumerate(t):
                    if tj:
                        new[i + j] += ci * tj
        conv = new
    if sum(1 for v in conv if v) > 1:
        return _instance(E, a=a, reason="concentration violated", table=conv)
    if profile.table(n) != conv:
        return _instance(E, a=a, reason="profile disagrees with Kunneth convolution", table=conv)
    dead = any(-lk <= ak <= -1 for lk, ak in zip(E.l, a))
    if dead != profile.vanishes:
        return _instance(E, a=a, reason="vanishing window disagrees with profile")
    if not profile.vanishes:
        J = [k for k in range(E.r) if a[k] <= -E.l[k] - 1]
        lJ = sum(E.l[k] for k in J)
        dim = 1
        for k in range(E.r):
            if k in J:
                dim *= cohomology.binom(-a[k] - 1, E.l[k])
            else:
                dim *= cohomology.binom(a[k] + E.l[k], E.l[k])
        if profile.degree != lJ or profile.dimension != dim:
            return _instance(E, a=a, reason="degree law violated", expected=[lJ, dim])
    dual = tuple(-ak - lk - 1 for ak, lk in zip(a, E.l))
    dual_profile = cohomology.product_cohomology(E, dual)
    for i in range(n + 1):
        if conv[i] != dual_profile.h(n - i):
            return _instance(E, a=a, reason=f"Serre duality violated at i={i}")
    chi = cohomology.euler_characteristic(E, a)
    alternating = sum(v if i % 2 == 0 else -v for i, v in enumerate(conv))
    if chi != alternating:
        return _instance(E, a=a, reason="Euler characteristic disagrees", chi=chi, alternating=alternating)
    return None


def _cohomology_units(config: VerifyConfig) -> list[tuple[int, ...]]:
    return [l for r in (1, 2, 3) for l in itertools.product(range(1, config.lmax + 1), repeat=r)]


def _cohomology(config: VerifyConfig, l: tuple[int, ...]) -> Iterator[dict | None]:
    E = SegreVeronese(l, (1,) * len(l))
    return (_cohomology_failure(E, a) for a in _box_points(config, E.r))


def _segre_closed_form(config: VerifyConfig, _unit: None) -> Iterator[dict | None]:
    for a in range(1, 4):
        for b in range(1, 4):
            E = SegreVeronese((a, b), (1, 1))
            for k in range(-5, 6):
                for twist_l in range(-5, 6):
                    special = regularity.segre_regularity(a, b, k, twist_l)
                    general = regularity.cm_regularity(E, (k, twist_l))
                    if special == general:
                        yield None
                    else:
                        yield _instance(E, m=(k, twist_l), special=special, general=general)


def _ideal_sheaf_bound(config: VerifyConfig, _unit: None) -> Iterator[dict | None]:
    for E in _embeddings(config):
        bound = regularity.ideal_sheaf_bound(E)
        reg_zero = regularity.cm_regularity(E, (0,) * E.r)
        yield _instance(E, bound=bound.value, reg_zero=reg_zero) if bound.value - 1 < reg_zero else None
    witness = SegreVeronese((1, 2), (1, 1))
    bound = regularity.ideal_sheaf_bound(witness)
    reg_zero = regularity.cm_regularity(witness, (0, 0))
    if bound.value - 1 == 2 and reg_zero == 1 and bound.value - 1 > reg_zero:
        yield None
    else:
        yield _instance(witness, bound=bound.value, reg_zero=reg_zero, reason="strictness witness failed")


def _subadditivity(config: VerifyConfig, E: SegreVeronese) -> Iterator[dict | None]:
    lo, hi = config.box
    rng = random.Random(f"{config.seed}|subadd|{E.l}|{E.d}")
    for _ in range(config.subadd_pairs):
        m = tuple(rng.randint(lo, hi) for _ in range(E.r))
        m2 = tuple(rng.randint(lo, hi) for _ in range(E.r))
        report = regularity.check_subadditivity(E, m, m2)
        yield None if report.holds else _instance(E, m=m, m2=m2, report=report.__dict__)


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
    -max over nonempty J of min over k in J of (ceil((m_k+1)/d_k) - l_{J^c})."""
    n = E.n
    return -max(
        min(-(-(m[k] + 1) // E.d[k]) - (n - lJ) for k in members)
        for members, lJ in regularity._subset_table(E.l)
    )


def _duality_failure(E: SegreVeronese, m: tuple[int, ...]) -> dict | None:
    """p_minus(m) = -p_plus(dual twist of m), and the direct ceiling form
    of p_minus agrees with it."""
    md = tate.dual_twist(E, m)
    if tate.dual_twist(E, md) != tuple(m):
        return _instance(E, m=m, reason="dual twist is not an involution")
    lhs = tate.p_minus(E, m)
    dual_p_plus = tate.p_plus(E, md)
    ceiling = _p_minus_ceiling(E, m)
    if lhs != -dual_p_plus or lhs != ceiling:
        reason = "p_minus presentations disagree"
        return _instance(E, m=m, reason=reason, p_minus=lhs, dual_p_plus=dual_p_plus, ceiling=ceiling)
    return None


def _tate_closed_forms(config: VerifyConfig) -> Iterator[dict | None]:
    # constant m: window length is (r-1)l + 1 whatever m is
    for r in (1, 2, 3):
        for l in range(1, config.lmax + 1):
            E = SegreVeronese((l,) * r, (1,) * r)
            for m_val in range(-6, 7):
                m = (m_val,) * r
                length = tate.p_plus(E, m) - tate.p_minus(E, m)
                expected = (r - 1) * l + 1
                yield None if length == expected else _instance(E, m=m, length=length, expected=expected)
    # balanced closed form against the general operations
    for r in (1, 2, 3):
        for l in range(1, config.lmax + 1):
            E = SegreVeronese((l,) * r, (1,) * r)
            for ms in itertools.combinations_with_replacement(range(-6, 7), r):
                got = tate.balanced_endpoints(r, l, ms)
                want = (tate.p_plus(E, ms), tate.p_minus(E, ms))
                yield None if got == want else _instance(E, m=ms, balanced=list(got), general=list(want))
    # m = (0, ..., 0, M) with M >= (r-1)l: window length grows as M - l + 1
    for r in (2, 3):
        for l in range(1, config.lmax + 1):
            E = SegreVeronese((l,) * r, (1,) * r)
            for M in range((r - 1) * l, (r - 1) * l + 9):
                m = (0,) * (r - 1) + (M,)
                length = tate.p_plus(E, m) - tate.p_minus(E, m)
                expected = M - l + 1
                yield None if length == expected else _instance(E, m=m, length=length, expected=expected)


def _tate_endpoint_units(config: VerifyConfig) -> list[SegreVeronese | slice | None]:
    return [None, *_grid(config)]


def _tate_endpoints(config: VerifyConfig, unit: SegreVeronese | slice | None) -> Iterator[dict | None]:
    if unit is None:
        return _tate_closed_forms(config)
    return (_duality_failure(E, m) for E, m in _points(config, unit))


def _window_failure(E: SegreVeronese, m: tuple[int, ...]) -> dict | None:
    try:
        window = tate.tate_window(E, m, pad=3)
    except RuntimeError as exc:
        return _instance(E, m=m, reason=str(exc))
    n = E.n
    for t in window.terms:
        if tate._pure(t, 0) != (t.p >= window.p_plus) or tate._pure(t, n) != (t.p <= window.p_minus):
            return _instance(E, m=m, p=t.p, reason="purity does not match endpoint")
    return None


def _window_structure(config: VerifyConfig, E: SegreVeronese) -> Iterator[dict | None]:
    # windows cost a full cohomology sweep per column, hence the small box
    return (_window_failure(E, m) for m in itertools.product(range(-4, 5), repeat=E.r))


def _one(config: VerifyConfig) -> list[None]:
    return [None]


def _embedding_units(config: VerifyConfig) -> list[SegreVeronese]:
    return list(_embeddings(config))


# check name -> (its shards in iteration order, the outcomes of one shard:
# None for an instance that holds, a counterexample for one that fails)
_SHARDS: dict[str, tuple[Callable[[VerifyConfig], list], Callable[[VerifyConfig, Any], Iterable]]] = {
    "cohomology": (_cohomology_units, _cohomology),
    "formula-vs-oracle": (_grid, _formula_vs_oracle),
    "corner-membership": (_grid, _corner_membership),
    "minimal-twist": (_grid, _minimal_twist),
    "segre-r2": (_one, _segre_closed_form),
    "ideal-bound": (_one, _ideal_sheaf_bound),
    "subadditivity": (_embedding_units, _subadditivity),
    "pair-subadditivity": (_embedding_units, _pair_subadditivity),
    "tate-endpoints": (_tate_endpoint_units, _tate_endpoints),
    "tate-window": (_embedding_units, _window_structure),
}


def _run_shard(task: tuple[str, int, VerifyConfig]) -> CheckResult:
    """Tally one shard; runs in a worker process or in-process."""
    name, index, config = task
    units, outcomes = _SHARDS[name]
    started = time.perf_counter()
    instances = failures = 0
    counterexample = None
    for outcome in outcomes(config, units(config)[index]):
        instances += 1
        if outcome is not None:
            failures += 1
            counterexample = counterexample or outcome
    return CheckResult(name, instances, failures, counterexample, time.perf_counter() - started)


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


def _sharded(name: str, config: VerifyConfig) -> CheckResult:
    """Run every shard of a check and merge them in shard order."""
    tasks = [(name, index, config) for index in range(len(_SHARDS[name][0](config)))]
    workers = _worker_count(len(tasks))
    if workers == 1:
        parts = list(map(_run_shard, tasks))
    else:
        # deferred: one-shot CLI calls never need them
        import multiprocessing
        from concurrent.futures import ProcessPoolExecutor

        # fork, not spawn: workers must run the caller's modules as they
        # are now, patched functions included, without importing anew.  A
        # worker that dies raises BrokenProcessPool, a RuntimeError.
        executor = ProcessPoolExecutor(workers, mp_context=multiprocessing.get_context("fork"))
        try:
            parts = list(executor.map(_run_shard, tasks))
        finally:
            executor.shutdown(cancel_futures=True)
    merged = CheckResult(name, 0, 0)
    for part in parts:
        merged.instances += part.instances
        merged.failures += part.failures
        merged.elapsed_s += part.elapsed_s
        if merged.counterexample is None:
            merged.counterexample = part.counterexample
    return merged


# The checks are named module functions rather than partials of _sharded,
# so that each is an entry point of its own for callers and for profilers
# that wrap module functions.


def check_formula_vs_oracle(config: VerifyConfig) -> CheckResult:
    """The closed-form regularity test must agree with the cohomology scan
    on every grid point."""
    return _sharded("formula-vs-oracle", config)


def check_corner_membership(config: VerifyConfig) -> CheckResult:
    """Corner domination must agree with the closed-form test everywhere."""
    return _sharded("corner-membership", config)


def check_minimal_twist(config: VerifyConfig) -> CheckResult:
    """cm_regularity must equal the least q with q*d in the regularity set."""
    return _sharded("minimal-twist", config)


def check_cohomology_consistency(config: VerifyConfig) -> CheckResult:
    """Concentration, Serre duality and the Euler characteristic, replayed
    against a full Kunneth convolution, exhaustively for r up to 3."""
    return _sharded("cohomology", config)


def check_segre_closed_form(config: VerifyConfig) -> CheckResult:
    """The two-factor Segre closed form must match cm_regularity."""
    return _sharded("segre-r2", config)


def check_ideal_sheaf_bound(config: VerifyConfig) -> CheckResult:
    """lambda - 1 must bound reg of the structure sheaf of the image from
    above, strictly so at l=(1,2), d=(1,1)."""
    return _sharded("ideal-bound", config)


def check_subadditivity_random(config: VerifyConfig) -> CheckResult:
    """reg(m) + reg(m2) >= reg(m + m2) on seeded random pairs."""
    return _sharded("subadditivity", config)


def check_pair_subadditivity_random(config: VerifyConfig) -> CheckResult:
    """For seeded random pairs satisfying the hypotheses (built from corner
    points, so regularity is guaranteed), the sum pair must be regular."""
    return _sharded("pair-subadditivity", config)


def check_tate_endpoints(config: VerifyConfig) -> CheckResult:
    """Window length closed forms, the balanced special case, and the
    duality p_minus(m) = -p_plus(dual twist of m), replayed against the
    direct ceiling form of p_minus."""
    return _sharded("tate-endpoints", config)


def check_window_structure(config: VerifyConfig) -> CheckResult:
    """Column purity must characterize both endpoints exactly: pure H^0 iff
    p >= p_plus, pure H^n iff p <= p_minus, across a padded window."""
    return _sharded("tate-window", config)


CHECKS: dict[str, Callable[[VerifyConfig], CheckResult]] = {
    "cohomology": check_cohomology_consistency,
    "formula-vs-oracle": check_formula_vs_oracle,
    "corner-membership": check_corner_membership,
    "minimal-twist": check_minimal_twist,
    "segre-r2": check_segre_closed_form,
    "ideal-bound": check_ideal_sheaf_bound,
    "subadditivity": check_subadditivity_random,
    "pair-subadditivity": check_pair_subadditivity_random,
    "tate-endpoints": check_tate_endpoints,
    "tate-window": check_window_structure,
}


def run_checks(config: VerifyConfig, names: Sequence[str] | None = None) -> list[CheckResult]:
    """Run the named checks (all of them by default) in registry order.

    Each check runs on one worker process per available CPU, at most one
    per shard; with a single CPU it runs in this process."""
    if names is None:
        selected = list(CHECKS)
    else:
        unknown = [n for n in names if n not in CHECKS]
        if unknown:
            raise ValueError(
                f"unknown checks: {', '.join(unknown)}; available: {', '.join(CHECKS)}"
            )
        selected = list(names)
    return [CHECKS[name](config) for name in selected]
