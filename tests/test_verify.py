"""Sharded verification: the merge must not depend on the worker count."""
import dataclasses
import inspect
import itertools
import json
import os
import random
import re
import subprocess
import sys
import types

import pytest

from svreg import cohomology, regularity, tate, verify
from svreg.cohomology import SegreVeronese
from conftest import SRC, refuse_to_start
from test_faults import FAULTS, PAIR_CHECKS, SMALL, TINY, plant


def summary(results):
    return [(r.name, r.instances, r.failures, r.counterexample) for r in results]


def run_on(cpus, monkeypatch, *args):
    """run_checks as it runs with ``cpus`` available CPUs: on that many
    forked workers, whatever this machine has."""
    monkeypatch.setattr(verify, "_available_cpus", lambda: cpus)
    return verify.run_checks(*args)


@pytest.mark.parametrize(
    "config",
    [
        verify.VerifyConfig(lmax=1, dmax=1, box=(0, 0), r3_samples=3),
        verify.VerifyConfig(lmax=2, dmax=1, box=(-1, 2), r3_samples=0),
    ],
)
def test_instance_counts_match_the_runs(monkeypatch, config):
    results = run_on(1, monkeypatch, config)
    assert {r.name: r.instances for r in results} == verify.instance_counts(config)


def test_subadditivity_sample_counts_are_constants():
    # no caller varies them; bench/workloads.py reads them off a config to
    # size the reference run
    config = verify.VerifyConfig()
    assert (config.subadd_pairs, config.pair_samples) == (1000, 200)
    assert [f.name for f in dataclasses.fields(config)] == ["lmax", "dmax", "box", "r3_samples", "seed"]
    for field in ("subadd_pairs", "pair_samples"):
        with pytest.raises(TypeError):
            verify.VerifyConfig(**{field: 5})


def test_run_checks_is_the_one_route_to_a_check(monkeypatch):
    # CHECKS describes the checks and runs none: a check runs through
    # run_checks, and a config outside the domain is refused when built
    public = {
        name
        for name, value in vars(verify).items()
        if inspect.isfunction(value) and not name.startswith("_") and value.__module__ == verify.__name__
    }
    assert public == {"run_checks", "instance_counts"}
    tiny = verify.VerifyConfig(lmax=1, dmax=1, box=(0, 0), r3_samples=3)
    for name in verify.CHECKS:
        (result,) = run_on(1, monkeypatch, tiny, [name])
        assert isinstance(result, verify.CheckResult) and result.name == name
    assert list(verify.CHECKS) == list(verify.instance_counts(verify.VerifyConfig()))


def test_one_pool_per_run(monkeypatch):
    calls = []
    real = verify._pooled

    def recorded(tasks):
        calls.append(tasks)
        return real(tasks)

    monkeypatch.setattr(verify, "_pooled", recorded)
    pooled = run_on(2, monkeypatch, SMALL)
    (tasks,) = calls
    # every shard of every check, the pair checks on shared shards
    for name, check in verify.CHECKS.items():
        assert [unit for names, _, unit, _ in tasks if name in names] == list(check.units(SMALL))
    walk = [names for names, routine, *_ in tasks if routine is verify._walk_pairs]
    assert walk == [tuple(PAIR_CHECKS)] * len(verify._grid(SMALL))
    monkeypatch.setattr(verify, "_pooled", real)
    serial = run_on(1, monkeypatch, SMALL)
    assert all(r.ok for r in serial)
    assert {r.name: r.instances for r in serial} == verify.instance_counts(SMALL)
    assert summary(pooled) == summary(serial)


def test_one_verify_run_forks_without_the_fork_warning():
    # from 3.12 a fork of a multi-threaded process warns; one svreg verify
    # forks its one pool before the pool starts a thread, so a fresh
    # interpreter that prints every DeprecationWarning prints none.  Not
    # -W error: os.fork clears the error it makes of this warning
    argv = ["verify", "--lmax=1", "--dmax=1", "--box=-1,1", "--r3-samples=3", "--format", "json"]
    proc = subprocess.run(
        [sys.executable, "-W", "always::DeprecationWarning", "-m", "svreg.cli", *argv],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": SRC},
        timeout=60,
    )
    assert (proc.returncode, proc.stderr) == (0, "")
    assert json.loads(proc.stdout)["result"]["ok"] is True


@pytest.mark.parametrize("row", ["oracle-flip", "corners-up", "corners-down", "formula-flip"])
def test_the_shared_walk_reports_each_pair_check_as_a_lone_run(monkeypatch, row):
    plant(monkeypatch, FAULTS[row])
    both = run_on(2, monkeypatch, SMALL, PAIR_CHECKS)
    assert summary(both) == [summary(run_on(2, monkeypatch, SMALL, [name]))[0] for name in PAIR_CHECKS]


def test_patched_corners_reach_every_run(monkeypatch):
    # a memo of corners in verify would hand the next run a clean run's
    # corners and hide the patched regularity_corners
    config = verify.VerifyConfig(lmax=1, dmax=1, box=(-2, 2), r3_samples=0)
    monkeypatch.setattr(verify, "_available_cpus", lambda: 1)
    assert verify.run_checks(config, ["corner-membership"])[0].failures == 0
    plant(monkeypatch, FAULTS["corners-up"])
    assert verify.run_checks(config, ["corner-membership"])[0].failures == 121


def test_report_follows_the_order_named(monkeypatch):
    # the pair checks share one walk, so only the report order puts them
    # apart and reversed here
    names = ["corner-membership", "segre-r2", "formula-vs-oracle"]
    results = run_on(1, monkeypatch, SMALL, names)
    assert summary(results) == [summary(run_on(1, monkeypatch, SMALL, [name]))[0] for name in names]


def refusal(cost, limit):
    """The budget's message for a run of these ``(instances, weight)`` pairs."""
    instances, price = sum(n for n, _ in cost), sum(n * weight for n, weight in cost)
    return f"^the run has {instances} instances, or {price} weighted instances, over the limit of {limit}$"


@pytest.mark.parametrize("name", list(verify.CHECKS))
def test_each_check_is_priced_by_its_count_and_weight(monkeypatch, name):
    # the price is the sum of instances * weight over the check's cost pairs:
    # refused one under it, started at it
    cost = verify.CHECKS[name].cost(SMALL)
    price = sum(n * weight for n, weight in cost)
    monkeypatch.setattr(verify, "_pooled", refuse_to_start)
    monkeypatch.setattr(verify, "MAX_INSTANCES", price - 1)
    with pytest.raises(ValueError, match=refusal(cost, price - 1)):
        verify.run_checks(SMALL, [name])
    monkeypatch.setattr(verify, "MAX_INSTANCES", price)
    with pytest.raises(AssertionError, match=f"^{name} started$"):
        verify.run_checks(SMALL, [name])


def test_grid_over_the_limit_is_refused_before_any_check(monkeypatch):
    # a run weighs the sum over the checks named, each priced by its entry
    monkeypatch.setattr(verify, "_pooled", refuse_to_start)
    names = ["segre-r2", "tate-window"]
    ((windows, weight),) = verify.CHECKS["tate-window"].cost(SMALL)
    price = 3 * 1089 + windows * weight
    monkeypatch.setattr(verify, "MAX_INSTANCES", price)
    with pytest.raises(AssertionError, match="^segre-r2, tate-window started$"):
        verify.run_checks(SMALL, names)
    heavier = verify.CHECKS["segre-r2"]._replace(cost=lambda config: [(1089, 4)])
    monkeypatch.setitem(verify.CHECKS, "segre-r2", heavier)
    with pytest.raises(ValueError, match=refusal([(1089, 4), (windows, weight)], price)):
        verify.run_checks(SMALL, names)


def test_two_pair_checks_are_each_charged_their_pairs(monkeypatch):
    # they share one walk, but each is priced as if run alone
    cost = [pair for name in PAIR_CHECKS for pair in verify.CHECKS[name].cost(SMALL)]
    monkeypatch.setattr(verify, "_pooled", refuse_to_start)
    monkeypatch.setattr(verify, "MAX_INSTANCES", sum(n * weight for n, weight in cost) - 1)
    with pytest.raises(ValueError, match=refusal(cost, verify.MAX_INSTANCES)):
        verify.run_checks(SMALL, PAIR_CHECKS)


@pytest.mark.parametrize(
    "config, names, message",
    [
        (dict(box=(3, 1)), None, "box needs lo <= hi, got 3,1"),
        (dict(lmax=0), None, "lmax must be between 1 and 8, got 0"),
        (dict(dmax=9), None, "dmax must be between 1 and 8, got 9"),
        (dict(r3_samples=-1), None, "r3_samples must be >= 0, got -1"),
        (SMALL, ["segre-r2", "cohomology", "segre-r2"], "checks named more than once: segre-r2"),
        (SMALL, [], f"no checks named; available: {', '.join(verify.CHECKS)}"),
        (SMALL, "segre-r2", "names must be a list or tuple of check names, got 'segre-r2'"),
        (SMALL, {"segre-r2"}, r"names must be a list or tuple of check names, got \{'segre-r2'\}"),
        (SMALL, {"segre-r2": 1}, r"names must be a list or tuple of check names, got \{'segre-r2': 1\}"),
        (SMALL, iter(["segre-r2"]), "names must be a list or tuple of check names, got <list_iterator object at .*>"),
        (SMALL, ["segre-r2", 1, ["x"]], rf"unknown checks: 1, \['x'\]; available: {', '.join(verify.CHECKS)}"),
        (dict(lmax=2.5), None, r"lmax must be an integer, got 2\.5"),
        (dict(r3_samples=1e3), None, r"r3_samples must be an integer, got 1000\.0"),
        (dict(box=(1, 2, 3)), None, r"box must be two integers lo,hi, got \(1, 2, 3\)"),
        (dict(box=(-0.5, 2)), None, r"box must be two integers lo,hi, got \(-0\.5, 2\)"),
        # a bool is an int to isinstance, but not a grid bound
        (dict(lmax=True), None, "lmax must be an integer, got True"),
        (dict(box=(False, 1)), None, r"box must be two integers lo,hi, got \(False, 1\)"),
        # a list would leave the frozen config unhashable and unequal to the tuple's
        (dict(box=[-1, 1]), None, r"box must be two integers lo,hi, got \[-1, 1\]"),
        # True would seed other samples than 1, its key reading "True|..."
        (dict(seed=True), None, "seed must be an integer, got True"),
        (dict(seed=1.5), None, r"seed must be an integer, got 1\.5"),
        (dict(seed="x"), None, "seed must be an integer, got 'x'"),
        (dict(seed=-1), None, f"seed must be between 0 and {2**64 - 1}, got -1"),
        (dict(seed=2**70), None, f"seed must be between 0 and {2**64 - 1}, got {2**70}"),
        # with a check named alone too: the config is refused before the names
        *(
            (dict(lmax=0, r3_samples=0), [name], "lmax must be between 1 and 8, got 0")
            for name in verify.CHECKS
        ),
        *(
            (dict(box=(3, 1), lmax=1, dmax=1), [name], "box needs lo <= hi, got 3,1")
            for name in verify.CHECKS
        ),
    ],
    ids=[
        "inverted-box",
        "lmax-0",
        "dmax-9",
        "r3-samples",
        "repeated-name",
        "no-name",
        "names-string",
        "names-set",
        "names-dict",
        "names-iterator",
        "names-not-strings",
        "lmax-float",
        "r3-samples-float",
        "box-three",
        "box-float",
        "lmax-bool",
        "box-bool",
        "box-list",
        "seed-bool",
        "seed-float",
        "seed-string",
        "seed-negative",
        "seed-2**70",
        *(f"lmax-0-{name}" for name in verify.CHECKS),
        *(f"inverted-box-{name}" for name in verify.CHECKS),
    ],
)
def test_config_outside_the_domain_is_refused_before_any_check(monkeypatch, config, names, message):
    # a config case is given as keyword arguments: VerifyConfig refuses it
    # when it is built, so run_checks never sees it; run_checks refuses names
    monkeypatch.setattr(verify, "_pooled", refuse_to_start)
    with pytest.raises(ValueError, match=f"^{message}$"):
        if isinstance(config, dict):
            verify.VerifyConfig(**config)
        else:
            verify.run_checks(config, names)


def test_replace_refuses_a_config_outside_the_domain():
    with pytest.raises(ValueError, match="^lmax must be between 1 and 8, got 0$"):
        dataclasses.replace(verify.VerifyConfig(), lmax=0)
    with pytest.raises(ValueError, match=r"^box must be two integers lo,hi, got \[-1, 1\]$"):
        dataclasses.replace(verify.VerifyConfig(), box=[-1, 1])


@pytest.mark.parametrize(
    "fields, message",
    [
        (dict(box=(3, 1)), "box needs lo <= hi, got 3,1"),
        (dict(lmax=2.5, r3_samples=0), r"lmax must be an integer, got 2\.5"),
        (dict(r3_samples=-5), "r3_samples must be >= 0, got -5"),
    ],
    ids=["inverted-box", "lmax-float", "r3-samples-negative"],
)
def test_instance_counts_never_sees_a_config_outside_the_domain(fields, message):
    # when a config was not checked until run_checks, these were sized as
    # -21 cohomology instances, 4700223.75 pairs and 6,767,797 pairs
    with pytest.raises(ValueError, match=f"^{message}$"):
        verify.instance_counts(verify.VerifyConfig(**fields))


def test_run_checks_refuses_a_config_that_is_not_a_verify_config(monkeypatch):
    monkeypatch.setattr(verify, "_pooled", refuse_to_start)
    fields = vars(verify.VerifyConfig())
    config = types.SimpleNamespace(**fields, subadd_pairs=1000, pair_samples=200)
    with pytest.raises(ValueError, match=r"^config must be a VerifyConfig, got namespace\(lmax=3, .*\)$"):
        verify.run_checks(config)


def test_first_counterexample_in_iteration_order(monkeypatch):
    # one planted failure in an r=1 embedding's shard, one in a later r=2
    # embedding's shard; the r=1 one comes first in iteration order
    real = regularity.is_regular_formula
    targets = {((2,), (1,), (1,), (-3,)), ((1, 2), (2, 1), (0, 0), (3, -1))}

    def broken(E, m, p):
        value = real(E, m, p)
        return not value if (E.l, E.d, tuple(m), tuple(p)) in targets else value

    monkeypatch.setattr(regularity, "is_regular_formula", broken)
    serial = run_on(1, monkeypatch, SMALL, ["formula-vs-oracle", "corner-membership"])
    for result in serial:
        assert result.failures == 2
        assert (result.counterexample["l"], result.counterexample["m"], result.counterexample["p"]) == (
            [2],
            [1],
            [-3],
        )
    assert serial[0].counterexample["formula"] != serial[0].counterexample["oracle"]
    parallel = run_on(2, monkeypatch, SMALL, ["formula-vs-oracle", "corner-membership"])
    assert summary(parallel) == summary(serial)


def replay_twist(E, a):
    """The cohomology replay of one twist on its own: its convolution and
    Euler polynomial built from all of its factors."""
    return verify._cohomology_failure(E, a, verify._kunneth_table(E.l, a), verify._euler_polynomial(E.l, a))


def test_cohomology_instance_makes_two_kunneth_calls(monkeypatch):
    # chi is read off the profile already compared, not from a third
    # evaluation: one Kunneth call for O(a), one for its Serre dual twist
    calls = []
    real = cohomology._kunneth
    monkeypatch.setattr(cohomology, "_kunneth", lambda l, a: calls.append(a) or real(l, a))
    E = SegreVeronese((1, 2), (1, 1))
    twists = list(itertools.product(range(-5, 3), repeat=2))
    assert [replay_twist(E, a) for a in twists] == [None] * len(twists)
    assert len(calls) == 2 * len(twists)


def dominating(corners, span):
    """Componentwise domination of some corner, point by point in the order
    of itertools.product(*span)."""
    return [any(all(map(int.__ge__, p, c)) for c in corners) for p in itertools.product(*span)]


def test_orthant_enumeration_is_componentwise_domination():
    # the flags follow itertools.product(*span), the order of a pair group's
    # ps; seeded spans, a third of their ranges single points, with corners
    # inside, below and above each span
    rng = random.Random(31)
    for _ in range(500):
        span = [range(lo, lo + rng.choice((1, 2, 5))) for lo in (rng.randint(-4, 4) for _ in range(rng.randint(1, 3)))]
        corners = [tuple(rng.randint(s.start - 3, s.stop + 2) for s in span) for _ in range(rng.randint(0, 6))]
        assert verify._dominated(corners, span) == dominating(corners, span)
    # spans of one point, each range a single value as on an r=3 sample,
    # with corners below, at and above the point in each coordinate
    outcomes = set()
    for _ in range(500):
        point = tuple(rng.randint(-4, 4) for _ in range(rng.randint(1, 3)))
        corners = [tuple(pk + rng.randint(-2, 2) for pk in point) for _ in range(rng.randint(0, 6))]
        flags = verify._dominated(corners, [range(pk, pk + 1) for pk in point])
        assert flags == [any(all(map(int.__ge__, point, c)) for c in corners)]
        outcomes.add(flags[0])
    assert outcomes == {True, False}
    one = [range(0, 1), range(2, 3), range(-1, 0)]
    assert verify._dominated([], one) == [False]
    assert verify._dominated([(0, 3, -1), (1, 2, -1), (0, 2, 0)], one) == [False]
    assert verify._dominated([(0, 3, -1), (0, 2, -1)], one) == [True]
    assert verify._dominated([(-5, -5, -5)], one) == [True]
    # rows in product order: the first coordinate picks the row
    assert verify._dominated([(1, 2), (2, 0)], [range(3), range(3)]) == [False] * 5 + [True] * 4
    # r = 1 and r = 2 on the reference box, width 17, with corners left of,
    # at either end of, inside and right of the span in each coordinate
    box = range(-8, 9)
    sides = (-13, -9, -8, -7, -1, 0, 6, 8, 9, 12)
    for r in (1, 2):
        span = [box] * r
        for corner in itertools.product(sides, repeat=r):
            assert verify._dominated([corner], span) == dominating([corner], span)
        for _ in range(300):
            corners = [tuple(rng.choice(sides) + rng.randint(-1, 1) for _ in span) for _ in range(rng.randint(0, 6))]
            assert verify._dominated(corners, span) == dominating(corners, span)


def test_draws_follow_the_randint_stream(monkeypatch):
    # randint(a, b) is randrange(a, b + 1): the samples and the seeded
    # subadditivity pairs are exactly what randint loops on the same seed draw
    config = verify.VerifyConfig(lmax=3, dmax=2, box=(-5, 4), seed=7)
    lo, hi = config.box
    rng = random.Random(f"{config.seed}|r3")
    expected = []
    for _ in range(40):
        l = tuple(rng.randint(1, config.lmax) for _ in range(3))
        d = tuple(rng.randint(1, config.dmax) for _ in range(3))
        m = tuple(rng.randint(lo, hi) for _ in range(3))
        p = tuple(rng.randint(lo, hi) for _ in range(3))
        expected.append((SegreVeronese(l, d), m, p))
    assert list(verify._samples(config, "r3", 3, 40)) == expected

    E = SegreVeronese((2, 1), (1, 2))
    drawn = []
    report = regularity.SubadditivityReport(0, 0, 0, True)
    monkeypatch.setattr(regularity, "check_subadditivity", lambda E, m, m2: drawn.append((m, m2)) or report)
    assert list(verify._subadditivity(config, E)) == [None] * config.subadd_pairs
    rng = random.Random(f"{config.seed}|subadd|{E.l}|{E.d}")
    pairs = [tuple(tuple(rng.randint(lo, hi) for _ in range(2)) for _ in range(2)) for _ in range(config.subadd_pairs)]
    assert drawn == pairs

    # each sample's first call draws its pair; the two after it lower one
    # of the pair to below its corner, which must miss the hypothesis
    drawn = []
    answers = itertools.cycle(["holds", "hypothesis-not-met", "hypothesis-not-met"])
    monkeypatch.setattr(regularity, "check_pair_subadditivity", lambda *args: drawn.append(args[1:]) or next(answers))
    assert list(verify._pair_subadditivity(config, E)) == [None] * config.pair_samples
    drawn = drawn[::3]
    rng = random.Random(f"{config.seed}|pairs|{E.l}|{E.d}")
    quads = []
    for _ in range(config.pair_samples):
        m = tuple(rng.randint(lo, hi) for _ in range(2))
        m2 = tuple(rng.randint(lo, hi) for _ in range(2))
        p = tuple(ck + rng.randint(0, 2) for ck in rng.choice(regularity.regularity_corners(E, m)).corner)
        p2 = tuple(ck + rng.randint(0, 2) for ck in rng.choice(regularity.regularity_corners(E, m2)).corner)
        quads.append((m, p, m2, p2))
    assert drawn == quads


def test_draw_is_randrange_on_the_same_stream():
    # draw and the twist drawer read getrandbits as randrange does, each
    # rejected value included: widths 1..70 take in every power of two and
    # its neighbours, where a draw of k bits is rejected most and least
    # often, and rng.choice calls interleave on the one stream
    config = verify.VerifyConfig(seed=11)
    rng, draw, _ = verify._drawer(config, "draws")
    reference = random.Random(f"{config.seed}|draws")
    options = list(range(5))
    for width in range(1, 71):
        for start in (-width, 0, 3):
            for _ in range(10):
                assert draw(start, start + width) == reference.randrange(start, start + width)
            assert rng.choice(options) == reference.choice(options)
    for lo, hi in [(0, 0), (-1, 0), (-2, 1), (-3, 1), (-8, 7), (-8, 8), (5, 36)]:
        config = verify.VerifyConfig(box=(lo, hi), seed=11)
        rng, _, twist = verify._drawer(config, "twists")
        reference = random.Random(f"{config.seed}|twists")
        for r in (1, 3, 2) * 20:
            assert twist(r) == tuple(reference.randrange(lo, hi + 1) for _ in range(r))
            assert rng.choice(options) == reference.choice(options)


def pairs_of(config, unit):
    return [(E, m, p) for E, m, ps, _ in verify._pair_groups(config, unit) for p in ps]


def test_the_grid_is_every_embedding_then_one_r3_shard():
    config = verify.VerifyConfig(lmax=1, dmax=2, box=(-1, 1), r3_samples=2007)
    grid = verify._grid(config)
    assert grid[:-1] == list(verify._embeddings(config))
    # every r=3 sample is in the last shard, drawn from one stream
    assert grid[-1] == range(config.r3_samples)
    for E in grid[:-1]:
        pts = list(itertools.product(range(-1, 2), repeat=E.r))
        assert pairs_of(config, E) == [(E, m, p) for m in pts for p in pts]
        # the point grid is the (E, m) of the groups
        assert [(F, m) for F, m, *_ in verify._pair_groups(config, E)] == [(E, m) for m in pts]
    # every group's pairs are the product of its span, which the corner
    # orthants are enumerated over
    for unit in grid:
        assert all(list(ps) == list(itertools.product(*span)) for *_, ps, span in verify._pair_groups(config, unit))
    pairs = pairs_of(config, grid[-1])
    assert pairs == list(verify._samples(config, "r3", 3, config.r3_samples))
    assert all(E.r == len(m) == len(p) == 3 for E, m, p in pairs)
    # each sample is a group of its own, so all four grid checks see the
    # same (E, m)
    assert all(len(ps) == 1 for _, _, ps, _ in verify._pair_groups(config, grid[-1]))


@pytest.mark.parametrize("names", [PAIR_CHECKS, PAIR_CHECKS[:1], PAIR_CHECKS[1:]], ids=["both", "oracle", "corners"])
def test_the_pair_walk_calls_each_public_route_once_per_pair(monkeypatch, names):
    # a speed-up of the walk must not batch, skip or memoize these calls:
    # each pair of the shard reaches the closed form, and the oracle when
    # formula-vs-oracle is named, once and as (E, m, p)
    config = verify.VerifyConfig(lmax=2, dmax=2, box=(-2, 2), r3_samples=40)
    calls = {"is_regular_formula": [], "is_regular_oracle": []}

    def logged(route, log):
        def call(E, m, p):
            log.append((E, m, p))
            return route(E, m, p)

        return call

    for name, log in calls.items():
        monkeypatch.setattr(regularity, name, logged(getattr(regularity, name), log))
    grid = verify._grid(config)
    units = [next(u for u in grid if isinstance(u, SegreVeronese) and u.r == r) for r in (1, 2)] + [grid[-1]]
    assert isinstance(units[-1], range)
    for unit in units:
        for log in calls.values():
            log.clear()
        results = verify._walk_pairs(config, unit, names)
        pairs = pairs_of(config, unit)
        assert [r.instances for r in results] == [len(pairs)] * len(names)
        assert calls["is_regular_formula"] == pairs
        assert calls["is_regular_oracle"] == (pairs if "formula-vs-oracle" in names else [])
        assert all(r.ok for r in results)

def test_elapsed_is_reported():
    (result,) = verify.run_checks(SMALL, ["segre-r2"])
    assert result.elapsed_s > 0
    assert result.as_dict()["elapsed_s"] == round(result.elapsed_s, 3)


def test_worker_count_is_bounded_by_cpus_and_shards(monkeypatch):
    # computed without starting any process
    monkeypatch.setattr(verify, "_available_cpus", lambda: 2)
    assert verify._worker_count(1000) == 2
    assert verify._worker_count(1) == 1
    monkeypatch.setattr(verify, "_available_cpus", lambda: 1)
    assert verify._worker_count(1000) == 1


def test_worker_error_reaches_the_caller(monkeypatch):
    # any exception from a shard comes back as a RuntimeError naming its
    # type, the check and the shard's unit
    for kind in (RuntimeError, IndexError):

        def broken(E, m, p):
            raise kind("planted invariant failure")

        monkeypatch.setattr(regularity, "is_regular_formula", broken)
        shard = "formula-vs-oracle failed on shard SegreVeronese(l=(1,), d=(1,))"
        with pytest.raises(RuntimeError, match=f"^{re.escape(shard)}: {kind.__name__}: planted invariant failure$"):
            run_on(2, monkeypatch, SMALL, ["formula-vs-oracle"])


@pytest.mark.parametrize("cpus", [1, 2])
def test_every_shard_runs_in_a_worker(monkeypatch, cpus):
    # one CPU makes a pool of one worker, not a run in this process
    real = regularity.is_regular_formula
    parent = os.getpid()

    def in_worker(E, m, p):
        assert os.getpid() != parent, "shard ran in-process"
        return real(E, m, p)

    monkeypatch.setattr(regularity, "is_regular_formula", in_worker)
    (result,) = run_on(cpus, monkeypatch, SMALL, ["formula-vs-oracle"])
    assert result.ok and result.instances == verify.instance_counts(SMALL)["formula-vs-oracle"]


@pytest.mark.parametrize("cpus", [1, 2])
def test_dead_worker_is_an_error(monkeypatch, cpus):
    parent = os.getpid()

    def dies(E, m, p):
        if os.getpid() == parent:  # never end the test process itself
            raise AssertionError("shard ran in-process")
        os._exit(1)

    monkeypatch.setattr(regularity, "is_regular_formula", dies)
    with pytest.raises(RuntimeError, match="terminated abruptly"):
        run_on(cpus, monkeypatch, SMALL, ["formula-vs-oracle"])


def test_window_replay_evaluates_each_twist_once(monkeypatch):
    # the columns of one window share a table of their twists: columns + n
    # Kunneth calls, not columns * (n + 1)
    calls = []
    real = cohomology._kunneth
    monkeypatch.setattr(cohomology, "_kunneth", lambda l, a: calls.append(tuple(a)) or real(l, a))
    for l, d, m in [((1,), (1,), (0,)), ((2, 1), (1, 2), (-3, 4)), ((3, 3), (2, 3), (4, -4))]:
        E = SegreVeronese(l, d)
        calls.clear()
        assert verify._window_failure(E, m) is None
        columns = len(tate.tate_window(E, m, pad=3).terms)
        assert len(calls) <= columns + E.n + 1
        assert len(set(calls)) == len(calls)


def test_p_minus_disagreement_is_a_counterexample(monkeypatch):
    real = tate.p_minus
    monkeypatch.setattr(tate, "p_minus", lambda E, m: real(E, m) + 1)
    failure = verify._duality_failure(SegreVeronese((1, 1), (1, 1)), (0, 2))
    assert failure["reason"] == "p_minus presentations disagree"
    assert (failure["p_minus"], failure["ceiling"]) == (-1, -2)


def test_a_dual_degree_over_n_is_a_counterexample(monkeypatch):
    # also on a twist with no cohomology, whose table is all zeros
    plant(monkeypatch, FAULTS["dual-degree-over-n"])
    failure = replay_twist(SegreVeronese((1, 1), (1, 1)), (-1, 3))
    assert (failure["reason"], failure["dual"], failure["dual_profile"]) == ("Serre duality violated", [-1, -5], [3, 1])


@pytest.mark.parametrize(
    "row",
    [None, "kunneth-dimension", "kunneth-degree", "chi-sign", "dual-only", "euler-factor"],
    ids=["clean", "dimension", "degree", "chi", "dual", "euler-factor"],
)
def test_the_walk_shares_heads_without_changing_outcomes(monkeypatch, row):
    # one r=3 unit yields, in itertools.product order, what replaying each
    # twist on its own yields: the heads' convolutions and Euler products
    # are shared by the twists that extend them, never changed
    if row:
        plant(monkeypatch, FAULTS[row])
    config = verify.VerifyConfig(lmax=2, dmax=1, box=(-3, 3), r3_samples=0)
    E = SegreVeronese((1, 2, 1), (1, 1, 1))
    expected = [replay_twist(E, a) for a in itertools.product(range(-3, 4), repeat=3)]
    assert list(verify._cohomology(config, E.l)) == expected
    assert (expected == [None] * 7**3) == (row is None)


EMBEDDING_CHECKS = [
    "formula-vs-oracle", "corner-membership", "minimal-twist", "ideal-bound",
    "subadditivity", "pair-subadditivity", "tate-endpoints", "tate-window",
]
NARROWED_GRIDS = [
    ("EMBEDDING_R", (1,), EMBEDDING_CHECKS),
    ("COHOMOLOGY_R", (1, 2), ["cohomology"]),
    ("SEGRE_DIMS", range(2, 4), ["segre-r2"]),
    ("SEGRE_TWISTS", range(-1, 2), ["segre-r2"]),
    ("TATE_R", (1, 2), ["tate-endpoints"]),
    ("TATE_TWISTS", range(-1, 2), ["tate-endpoints"]),
    ("TATE_LONG_M", 2, ["tate-endpoints"]),
    ("WINDOW_BOX", range(-1, 2), ["tate-window"]),
]


@pytest.mark.parametrize("constant, narrowed, names", NARROWED_GRIDS, ids=[c for c, *_ in NARROWED_GRIDS])
def test_each_fixed_grid_is_counted_from_the_constant_its_walk_reads(monkeypatch, constant, narrowed, names):
    # narrowing a grid's constant shrinks the count of exactly the checks
    # whose walk reads it, and their runs still match the count
    before = verify.instance_counts(TINY)
    monkeypatch.setattr(verify, constant, narrowed)
    after = verify.instance_counts(TINY)
    assert [name for name in verify.CHECKS if after[name] != before[name]] == names
    assert all(after[name] < before[name] for name in names)
    results = run_on(2, monkeypatch, TINY, names)
    assert {r.name: r.instances for r in results} == {name: after[name] for name in names}


def test_minimal_twist_vectors_reach_the_largest_bound(monkeypatch):
    # the shard builds q*d up front: on the point of the largest bound,
    # n = 3 lmax with every |m_k| at the box's wider end, a scan that finds
    # its least regular twist at the bound reads the three above it too
    config = verify.VerifyConfig(lmax=2, dmax=2, box=(-5, 3), r3_samples=1)
    E, m = SegreVeronese((2, 2, 2), (2, 1, 2)), (-5, -5, -5)
    bound = verify._scan_bound(config)
    assert bound == E.n + max(abs(mk) + lk for mk, lk in zip(m, E.l)) + 2
    scanned = []
    monkeypatch.setattr(verify, "_pair_groups", lambda config, unit: iter([(E, m, None, None)]))
    monkeypatch.setattr(regularity, "cm_regularity", lambda E, m: bound)
    monkeypatch.setattr(regularity, "is_regular_oracle", lambda E, m, p: scanned.append(p[1]) or p[1] >= bound)
    assert list(verify._minimal_twist(config, range(1))) == [None]
    assert scanned == list(range(-bound, bound + 4))


def test_dual_twist_that_is_not_an_involution_is_a_counterexample(monkeypatch):
    # a sign flip maps m to m - c, c = n d - l - 1 = (1, 0) here
    real = tate.dual_twist
    monkeypatch.setattr(tate, "dual_twist", lambda E, m: tuple(-x for x in real(E, m)))
    failure = verify._duality_failure(SegreVeronese((1, 2), (1, 1)), (0, 0))
    assert failure == {"l": [1, 2], "d": [1, 1], "m": [0, 0], "reason": "dual twist is not an involution"}
