"""The fault catalogue: each row of ``FAULTS`` plants one fault in the
library or in one of verify's second routes, and names the checks of
``svreg verify`` that must catch it, with the failures each reports.

``test_each_fault_fails_its_checks`` plants a row and runs ``svreg verify``
in-process on the row's grid and checks, with two available CPUs.  It
requires exit 2 (a library fault is a counterexample), each check's
failures, each check's instances as ``verify.instance_counts`` sizes them,
and the whole first counterexample of each check the row pins.  The
plants reach the checks because ``verify`` forks its workers after they
are set, and its shards look the library up through the modules.

A plant is ``(owner, attribute, replacement)``; ``replacement`` is called
with the real attribute and returns what stands in for it, such as a
wrapper around it.  ``mutant`` makes the plant that recompiles a
function's own source with one exact substring replaced.

To add a row, write its plants, guess its counts, and enter the counts
and first counterexamples the test's failure reports; say in CHANGES.md
what the row catches.  A fault that no check catches yet is a row with
``xfail`` naming the ROADMAP item whose check will catch it: a strict
xfail, whose counts are not read and which fails once its checks exit 2.  A
mutant whose text a refactor edits away, or repeats, fails its row with
the function's name and the text, and the row is updated with the
refactor.
"""
import __future__

import inspect
import json
from typing import Any, Callable, NamedTuple

import pytest

from svreg import cli, cohomology, regularity, tate, verify

# the grids of the catalogue and of tests/test_verify.py: SMALL, TINY the
# least grid, and REFERENCE
SMALL = verify.VerifyConfig(lmax=2, dmax=2, box=(-3, 3), r3_samples=50)
TINY = verify.VerifyConfig(lmax=1, dmax=1, box=(0, 0), r3_samples=0)
REFERENCE = verify.VerifyConfig()
PAIR_CHECKS = ("formula-vs-oracle", "corner-membership")


class Fault(NamedTuple):
    """Its plants; each check it names, with the failures that check
    reports; the first counterexample of each check it pins; the grid it
    runs on; and the xfail reason of a fault no check catches yet."""

    plants: tuple[tuple[Any, str, Callable], ...]
    failures: dict[str, int]
    first: dict[str, dict] = {}
    grid: verify.VerifyConfig = SMALL
    xfail: str | None = None


def mutant(owner, name: str, old: str, new: str) -> tuple[Any, str, Callable]:
    """The plant of ``owner.name`` recompiled from its own source with the
    one occurrence of ``old`` replaced by ``new``, in ``owner``'s namespace,
    so the mutant reads the module's globals as the function does.  It
    raises AssertionError naming ``owner.name`` and ``old`` when planted
    while ``old`` does not occur exactly once."""

    def build(real):
        source = inspect.getsource(real)
        if (count := source.count(old)) != 1:
            raise AssertionError(f"stale mutant of {owner.__name__}.{name}: {old!r} occurs {count} times, not once")
        filename = f"<mutant of {owner.__name__}.{name}>"
        code = compile(source.replace(old, new), filename, "exec", flags=__future__.annotations.compiler_flag)
        defined: dict = {}
        exec(code, vars(owner), defined)
        return defined[name]

    return owner, name, build


def grid_flags(grid: verify.VerifyConfig) -> list[str]:
    lo, hi = grid.box
    return [
        f"--lmax={grid.lmax}", f"--dmax={grid.dmax}", f"--box={lo},{hi}",
        f"--r3-samples={grid.r3_samples}", f"--seed={grid.seed}",
    ]


def plant(monkeypatch, fault: Fault) -> None:
    for owner, attribute, replacement in fault.plants:
        monkeypatch.setattr(owner, attribute, replacement(getattr(owner, attribute)))


def shift_corners(by):
    return lambda real: lambda E, m: [c._replace(corner=tuple(x + by for x in c.corner)) for c in real(E, m)]


def one_more_rank(real):
    return lambda l, a: (found := real(l, a)) and (found[0], found[1] + 1)


def wrong_outside_the_box(real):
    # wrong only outside the box -3..3, where no profile but a dual one is read
    def profile(E, a):
        found = real(E, a)
        if found.degree is None or all(-3 <= ak <= 3 for ak in a):
            return found
        return cohomology.CohomologyProfile(found.degree, found.dimension + 1)

    return profile


def not_monotone(real):
    # regular at the least regular twist, not at the one above it
    return lambda E, m, p: real(E, m, p) and tuple(p) != tuple((regularity.cm_regularity(E, m) + 1) * dk for dk in E.d)


def early_stop(degree):
    # no degree over ``degree`` is scanned, and only the r = 3 samples reach n > 8
    return mutant(regularity, "_oracle_scan", "range(n, 0, -1)", f"range(min(n, {degree}), 0, -1)")


# only the sorted prefixes of length <= 2 are read: exact at r <= 2
PREFIXES = mutant(regularity, "_regularity", "d), l)):", "d), l))[:2]:")
LOWERED = "a pair below a corner met the hypothesis"

FAULTS: dict[str, Fault] = {
    # the pair walk: each route is caught by the check that owns it, and the
    # other pair check, on the same walk, fails nothing; on the box -3..3,
    # the flipped sum m + p = -2 has five pairs of l=(2,), d=(1,)
    "oracle-flip": Fault(
        ((regularity, "_oracle_scan", lambda real: lambda l, d, c: real(l, d, c) != ((l, d, c) == ((2,), (1,), (-2,)))),),
        {"formula-vs-oracle": 5, "corner-membership": 0},
        {"formula-vs-oracle": {"l": [2], "d": [1], "m": [-3], "p": [1], "formula": False, "oracle": True}},
    ),
    "corners-up": Fault(
        ((regularity, "regularity_corners", shift_corners(1)),), {"formula-vs-oracle": 0, "corner-membership": 3271}
    ),
    # each orthant then holds points below the regularity set, some below the box
    "corners-down": Fault(
        ((regularity, "regularity_corners", shift_corners(-1)),), {"formula-vs-oracle": 0, "corner-membership": 4785}
    ),
    # a library fault found by verify exits 2 with the smallest counterexample
    "formula-flip-one-pair": Fault(
        ((regularity, "is_regular_formula", lambda real: lambda E, m, p: (
            real(E, m, p) != ((E.l, E.d, tuple(m), tuple(p)) == ((1,), (1,), (-2,), (-2,))))),),
        {"formula-vs-oracle": 1},
        {"formula-vs-oracle": {"l": [1], "d": [1], "m": [-2], "p": [-2], "formula": True, "oracle": False}},
        grid=verify.VerifyConfig(lmax=1, dmax=1, box=(-2, 2), r3_samples=0),
    ),
    # first found at the same pair by both checks
    "formula-flip": Fault(
        ((regularity, "is_regular_formula", lambda real: lambda E, m, p: real(E, m, p) != (E.l == (1, 2) and tuple(m) == (0, 0))),),
        dict.fromkeys(PAIR_CHECKS, 196),
        {
            "formula-vs-oracle": {"l": [1, 2], "d": [1, 1], "m": [0, 0], "p": [-3, -3], "formula": True, "oracle": False},
            "corner-membership": {"l": [1, 2], "d": [1, 1], "m": [0, 0], "p": [-3, -3], "formula": True, "corners": False},
        },
    ),
    # the sorted forms against their definitions over every subset
    "subsets-reg-at-r7": Fault(
        ((regularity, "cm_regularity", lambda real: lambda E, m: real(E, m) + (E.r == 7)),),
        {"sorted-vs-subsets": 20},
        {"sorted-vs-subsets": {
            "l": [1, 2, 2, 2, 2, 2, 1], "d": [1, 2, 1, 1, 1, 1, 1], "m": [-3, -2, -1, -1, 0, 3, 1], "p": [-2, 1, 2, 1, 2, -1, -3],
            "cm_regularity": 9, "subsets_reg": 8, "formula": False, "subsets": False,
        }},
    ),
    "subsets-formula-negated": Fault(
        ((regularity, "is_regular_formula", lambda real: lambda E, m, p: not real(E, m, p)),),
        {"sorted-vs-subsets": 180},
        {"sorted-vs-subsets": {
            "l": [1, 2, 1, 2], "d": [2, 1, 1, 2], "m": [0, 0, -3, 1], "p": [-2, -1, 1, -2],
            "cm_regularity": 4, "subsets_reg": 4, "formula": True, "subsets": False,
        }},
    ),
    "prefixes-up-to-2": Fault((PREFIXES,), {"sorted-vs-subsets": 169}),
    "prefixes-up-to-2-sampled": Fault(
        (PREFIXES,), dict.fromkeys(("subadditivity", "pair-subadditivity"), 0), grid=REFERENCE,
        xfail="the subadditivity checks sample r <= 2, where the fault is exact; ROADMAP item 9's every-pair reaches r = 3",
    ),
    # cohomology against the Kunneth convolution, Serre duality and the Euler polynomial
    "kunneth-dimension": Fault(
        ((cohomology, "_kunneth", one_more_rank),),
        {"cohomology": 1463},
        {"cohomology": {"l": [1], "d": [1], "a": [-3], "reason": "profile disagrees with Kunneth convolution", "profile": [1, 3], "table": [0, 2]}},
    ),
    # H^1 of O(-3) on P^1 lands in degree 2, past the table of n = 1
    "kunneth-degree": Fault(
        ((cohomology, "_kunneth", lambda real: lambda l, a: (found := real(l, a)) and (found[0] + 1, found[1])),),
        {"cohomology": 1463},
        {"cohomology": {"l": [1], "d": [1], "a": [-3], "reason": "profile disagrees with Kunneth convolution", "profile": [2, 2], "table": [0, 2]}},
    ),
    "chi-sign": Fault(
        ((cohomology.CohomologyProfile, "euler_characteristic", lambda real: property(lambda self: -real.fget(self))),),
        {"cohomology": 1463},
        {"cohomology": {"l": [1], "d": [1], "a": [-3], "reason": "Euler characteristic disagrees", "chi": 2, "alternating": -2, "polynomial": -2}},
    ),
    # the product runs (a+2)...(a+l+1), in every factor of every twist
    "euler-factor": Fault(
        ((verify, "_euler_factor", lambda real: lambda l, a: real(l, a + 1)),),
        {"cohomology": 2091},
        {"cohomology": {"l": [1], "d": [1], "a": [-3], "reason": "Euler characteristic disagrees", "chi": -2, "alternating": -2, "polynomial": -1}},
    ),
    "dual-only": Fault(
        ((cohomology, "product_cohomology", wrong_outside_the_box),),
        {"cohomology": 1205},
        {"cohomology": {"l": [1], "d": [1], "a": [2], "reason": "Serre duality violated", "dual": [-4], "dual_profile": [1, 4]}},
    ),
    # a degree that table(n) refuses, outside the box as above
    "dual-degree-over-n": Fault(
        ((cohomology, "product_cohomology", lambda real: lambda E, a: (
            real(E, a) if all(-3 <= ak <= 3 for ak in a) else cohomology.CohomologyProfile(E.n + 1, 1))),),
        {"cohomology": 2135},
        {"cohomology": {"l": [1], "d": [1], "a": [2], "reason": "Serre duality violated", "dual": [-4], "dual_profile": [2, 1]}},
    ),
    # Bott's rules, broken in the library and in verify's factor tables alike
    "bott-rank": Fault(
        (
            mutant(cohomology, "_kunneth", "comb(-ak - 1, lk)", "comb(-ak, lk)"),
            mutant(verify, "_factor_table", "math.comb(-j - 1, l)", "math.comb(-j, l)"),
        ),
        {"cohomology": 1463},
    ),
    "bott-vanishing": Fault(
        (
            mutant(cohomology, "_kunneth", "elif ak <= -lk - 1:", "elif ak < -lk - 1:"),
            mutant(verify, "_factor_table", "elif j <= -l - 1:", "elif j < -l - 1:"),
        ),
        {"cohomology": 1064},
    ),
    "bott-degree": Fault((mutant(cohomology, "_kunneth", "degree += lk", "degree += lk + 1"),), {"cohomology": 1463}),
    # the oracle's scan and the closed form
    "early-stop-8": Fault((early_stop(8),), {"minimal-twist": 52}, grid=verify.VerifyConfig(r3_samples=1000)),
    "early-stop-6": Fault((early_stop(6),), {"minimal-twist": 384}, grid=verify.VerifyConfig(r3_samples=1000)),
    "kill-window": Fault(
        (mutant(regularity, "_oracle_scan", "if j >= -lk:", "if j > -lk:"),), {"minimal-twist": 624, "formula-vs-oracle": 3271}
    ),
    "floor-rounds-up": Fault(
        (mutant(regularity, "_regularity", "map(operator.add, c, l)", "map(lambda ck, lk: ck + lk - 1, c, l)"),),
        {"minimal-twist": 624, "formula-vs-oracle": 3271},
    ),
    # tate binds cm_regularity at import, so it is pointed at the mutant too
    "regularity-parity": Fault(
        (
            mutant(regularity, "cm_regularity", "tuple(m))", "tuple(m)) + sum(m) % 2"),
            (tate, "cm_regularity", lambda real: regularity.cm_regularity),
        ),
        {"minimal-twist": 425, "segre-r2": 540, "tate-endpoints": 1529, "sorted-vs-subsets": 78},
    ),
    # minimal-twist against oracles that break what its scan assumes
    "oracle-always": Fault(
        ((regularity, "is_regular_oracle", lambda real: lambda E, m, p: True),),
        {"minimal-twist": 2}, {"minimal-twist": {"l": [1], "d": [1], "m": [0], "reason": "scan lower bound -4 is already regular"}}, grid=TINY,
    ),
    "oracle-never": Fault(
        ((regularity, "is_regular_oracle", lambda real: lambda E, m, p: False),),
        {"minimal-twist": 2}, {"minimal-twist": {"l": [1], "d": [1], "m": [0], "reason": "no regular twist in [-4, 4]"}}, grid=TINY,
    ),
    "oracle-not-monotone": Fault(
        ((regularity, "is_regular_oracle", not_monotone),),
        {"minimal-twist": 2}, {"minimal-twist": {"l": [1], "d": [1], "m": [0], "reason": "twist 1 above the minimum 0 is not regular"}}, grid=TINY,
    ),
    # one more everywhere, by both routes, still bounds reg, but no longer strictly by one
    "ideal-bound-witness": Fault(
        (
            (regularity, "ideal_sheaf_bound", lambda real: lambda E: real(E) + 1),
            (verify, "_case_split_lambda", lambda real: lambda E: real(E) + 1),
        ),
        {"ideal-bound": 1},
        {"ideal-bound": {"l": [1, 2], "d": [1, 1], "bound": 4, "reg_zero": 1, "reason": "strictness witness failed"}},
        grid=TINY,
    ),
    # fails every embedding, but not the witness, which reads lambda alone
    "ideal-bound-case-split": Fault(
        ((verify, "_case_split_lambda", lambda real: lambda E: real(E) + 1),),
        {"ideal-bound": 90, "segre-r2": 0},
        {"ideal-bound": {"l": [1], "d": [1], "bound": 1, "case_split": 2, "reg_zero": 0}},
        grid=REFERENCE,
    ),
    "segre-formula": Fault(
        ((verify, "_segre_regularity", lambda real: lambda a, b, k, l: real(a, b, k, l) + 1),),
        {"segre-r2": 1089, "ideal-bound": 0},
        {"segre-r2": {"l": [1, 1], "d": [1, 1], "m": [-5, -5], "special": 7, "general": 6}},
        grid=TINY,
    ),
    # subadditivity: a strict inequality fails every sample where reg(m) +
    # reg(m2) = reg(m + m2), and a sum whose p drops p2 every sample that needs p2
    "subadditivity-strict": Fault(
        (mutant(regularity, "check_subadditivity", "reg_m + reg_m2 >= reg_sum", "reg_m + reg_m2 > reg_sum"),),
        {"subadditivity": 4503},
        {"subadditivity": {"l": [1], "d": [1], "m": [2], "m2": [1], "report": {"reg_m": -2, "reg_m2": -1, "reg_sum": -3, "holds": False}}},
    ),
    "pair-sum-drops-p2": Fault(
        (mutant(regularity, "check_pair_subadditivity", "tuple(map(operator.add, p, p2))", "tuple(p)"),),
        {"pair-subadditivity": 1487},
        {"pair-subadditivity": {"l": [1], "d": [1], "m": [2], "p": [-1], "m2": [-3], "p2": [5], "status": "fails"}},
    ),
    # every sample lowers each of its pairs one step below its corner, so a
    # hypothesis met by either pair, or read off the first pair alone, passes
    # a lowered pair on and fails every sample; on l = d = (1,), m = -1 and
    # m2 = -2 have the corners 1 and 2
    "hypothesis-or": Fault(
        (mutant(regularity, "check_pair_subadditivity", "(E, m, p) and is_regular", "(E, m, p) or is_regular"),),
        {"pair-subadditivity": 4000},
        {"pair-subadditivity": {"l": [1], "d": [1], "m": [-1], "p": [0], "m2": [-2], "p2": [2], "status": "fails", "reason": LOWERED}},
    ),
    "hypothesis-first-pair": Fault(
        (mutant(regularity, "check_pair_subadditivity", " and is_regular_formula(E, m2, p2)", ""),),
        {"pair-subadditivity": 4000},
        {"pair-subadditivity": {"l": [1], "d": [1], "m": [-1], "p": [3], "m2": [-2], "p2": [1], "status": "holds", "reason": LOWERED}},
    ),
    # the Tate endpoints: only the balanced block of the closed-form shard
    # fails, at lmax 1 the 13 + 91 + 455 multisets of r = 1, 2, 3 entries in -6..6
    "balanced-endpoints": Fault(
        ((verify, "_balanced_endpoints", lambda real: lambda E, m: (real(E, m)[0], real(E, m)[1] + 1)),),
        {"tate-endpoints": 559},
        {"tate-endpoints": {"l": [1], "d": [1], "m": [-6], "balanced": [6, 6], "general": [6, 5]}},
        grid=TINY,
    ),
    "dual-twist-without-minus-one": Fault((mutant(tate, "dual_twist", "n * dk - lk - 1", "n * dk - lk"),), {"tate-endpoints": 1845}),
    "ceiling-as-floor": Fault((mutant(verify, "_p_minus_ceiling", "-(-(mk + 1) // dk)", "(mk + 1) // dk"),), {"tate-endpoints": 170}),
    # the Tate window: its columns are replayed through cohomology._kunneth,
    # not the tate._kunneth they are built from; with the columns right, only
    # the purity replay sees an endpoint off by one
    "window-rank": Fault(
        ((tate, "_kunneth", one_more_rank),),
        {"tate-window": 90}, {"tate-window": {"l": [1], "d": [1], "m": [-4], "p": 0, "reason": "window column differs from tate_term"}}, grid=TINY,
    ),
    "window-purity": Fault(
        ((tate, "tate_window", lambda real: lambda E, m, pad=2: (w := real(E, m, pad))._replace(p_plus=w.p_plus + 1)),),
        {"tate-window": 90}, {"tate-window": {"l": [1], "d": [1], "m": [-4], "p": 4, "reason": "purity does not match endpoint"}}, grid=TINY,
    ),
}


@pytest.mark.parametrize(
    "fault",
    [
        pytest.param(fault, id=name, marks=[pytest.mark.xfail(strict=True, raises=AssertionError, reason=fault.xfail)] if fault.xfail else [])
        for name, fault in FAULTS.items()
    ],
)
def test_each_fault_fails_its_checks(capsys, monkeypatch, fault):
    plant(monkeypatch, fault)
    monkeypatch.setattr(verify, "_available_cpus", lambda: 2)
    code = cli.main(["verify", *grid_flags(fault.grid), f"--checks={','.join(fault.failures)}", "--format=json"])
    checks = {check["name"]: check for check in json.loads(capsys.readouterr().out)["result"]["checks"]}
    assert code == 2
    if fault.xfail:
        return
    counts = verify.instance_counts(fault.grid)
    assert {name: check["failures"] for name, check in checks.items()} == fault.failures
    assert {name: check["instances"] for name, check in checks.items()} == {name: counts[name] for name in checks}
    assert {name: checks[name]["counterexample"] for name in fault.first} == fault.first


def test_a_mutant_names_its_function_and_text_unless_the_text_occurs_once():
    for old, count in (("no such text", 0), ("total - fk", 2)):
        _, _, build = mutant(regularity, "_regularity", old, "x")
        message = f"stale mutant of svreg.regularity._regularity: {old!r} occurs {count} times, not once"
        with pytest.raises(AssertionError, match=f"^{message}$"):
            build(regularity._regularity)
