"""Sharded verification: the merge must not depend on the worker count."""
import dataclasses
import inspect
import itertools
import json
import os
import types

import pytest

from svreg import cli, cohomology, regularity, tate, verify
from svreg.cohomology import SegreVeronese

SMALL = verify.VerifyConfig(lmax=2, dmax=2, box=(-3, 3), r3_samples=50)
PAIR_CHECKS = ["formula-vs-oracle", "corner-membership"]


def summary(results):
    return [(r.name, r.instances, r.failures, r.counterexample) for r in results]


def run_on(cpus, monkeypatch, *args):
    """run_checks as it runs with ``cpus`` available CPUs: in-process for
    one, on that many forked workers otherwise, whatever this machine has."""
    monkeypatch.setattr(verify, "_available_cpus", lambda: cpus)
    return verify.run_checks(*args)


def test_parallel_matches_serial(monkeypatch):
    serial = run_on(1, monkeypatch, SMALL)
    assert all(r.ok for r in serial)
    assert {r.name: r.instances for r in serial} == verify.instance_counts(SMALL)
    assert summary(run_on(2, monkeypatch, SMALL)) == summary(serial)


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
    assert summary(pooled) == summary(run_on(1, monkeypatch, SMALL))


def refuse_to_start(tasks):
    """Stands in for ``_pooled``, which starts every shard of a run."""
    raise AssertionError(f"{', '.join(sorted({n for names, *_ in tasks for n in names}))} started")


def flip_oracle(monkeypatch):
    # on the box [-3, 3], m + p = -2 for m in -3..1: five pairs of l=(2,), d=(1,)
    real = regularity._oracle_scan
    monkeypatch.setattr(regularity, "_oracle_scan", lambda l, d, c: real(l, d, c) != ((l, d, c) == ((2,), (1,), (-2,))))


def shift_corners(monkeypatch):
    real = regularity.regularity_corners
    monkeypatch.setattr(
        regularity,
        "regularity_corners",
        lambda E, m: [c._replace(corner=tuple(x + 1 for x in c.corner)) for c in real(E, m)],
    )


def flip_formula(monkeypatch):
    real = regularity.is_regular_formula
    monkeypatch.setattr(
        regularity, "is_regular_formula", lambda E, m, p: real(E, m, p) != (E.l == (1, 2) and tuple(m) == (0, 0))
    )


@pytest.mark.parametrize("cpus", [1, 2])
@pytest.mark.parametrize(
    "plant, failing",
    [(flip_oracle, {"formula-vs-oracle"}), (shift_corners, {"corner-membership"}), (flip_formula, set(PAIR_CHECKS))],
    ids=["oracle", "corners", "formula"],
)
def test_each_route_is_caught_by_the_check_that_owns_it(monkeypatch, plant, failing, cpus):
    plant(monkeypatch)
    both = run_on(cpus, monkeypatch, SMALL, PAIR_CHECKS)
    assert {r.name for r in both if r.failures} == failing
    counts = verify.instance_counts(SMALL)
    assert [r.instances for r in both] == [counts[name] for name in PAIR_CHECKS]
    firsts = {tuple(map(tuple, (ce["l"], ce["d"], ce["m"], ce["p"]))) for ce in (r.counterexample for r in both) if ce}
    assert len(firsts) == 1  # a formula fault is first found at the same pair by both
    # the shared walk reports each check as a lone run of it does
    assert summary(both) == [summary(run_on(cpus, monkeypatch, SMALL, [name]))[0] for name in PAIR_CHECKS]


def test_patched_corners_reach_every_run(monkeypatch):
    # a memo of corners in verify would hand the next run a clean run's
    # corners and hide the patched regularity_corners
    config = verify.VerifyConfig(lmax=1, dmax=1, box=(-2, 2), r3_samples=0)
    monkeypatch.setattr(verify, "_available_cpus", lambda: 1)
    assert verify.run_checks(config, ["corner-membership"])[0].failures == 0
    shift_corners(monkeypatch)
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


def test_sorted_vs_subsets_catches_planted_faults(monkeypatch):
    real_reg, real_formula = regularity.cm_regularity, regularity.is_regular_formula
    monkeypatch.setattr(regularity, "cm_regularity", lambda E, m: real_reg(E, m) + (E.r == 7))
    (result,) = run_on(2, monkeypatch, SMALL, ["sorted-vs-subsets"])
    assert result.failures == verify.SUBSET_SAMPLES
    ce = result.counterexample
    assert len(ce["l"]) == 7 and ce["cm_regularity"] == ce["subsets_reg"] + 1
    assert ce["formula"] == ce["subsets"]
    monkeypatch.setattr(regularity, "cm_regularity", real_reg)
    monkeypatch.setattr(regularity, "is_regular_formula", lambda E, m, p: not real_formula(E, m, p))
    (result,) = run_on(1, monkeypatch, SMALL, ["sorted-vs-subsets"])
    assert result.failures == result.instances == len(verify.SUBSET_R) * verify.SUBSET_SAMPLES
    assert result.counterexample["formula"] != result.counterexample["subsets"]


def test_cohomology_catches_planted_chi_faults(monkeypatch):
    # chi read off the profile and chi by verify's polynomial are each
    # replayed against the convolution's alternating sum
    config = verify.VerifyConfig(lmax=2, dmax=1, box=(-3, 3), r3_samples=0)
    real_chi, real_polynomial = cohomology.CohomologyProfile.euler_characteristic, verify._euler_polynomial
    monkeypatch.setattr(cohomology.CohomologyProfile, "euler_characteristic", property(lambda self: -real_chi.fget(self)))
    (result,) = run_on(2, monkeypatch, config, ["cohomology"])
    ce = result.counterexample
    assert result.failures > 0 and ce["chi"] == -ce["alternating"] == -ce["polynomial"]
    assert ce["reason"] == "Euler characteristic disagrees"
    monkeypatch.setattr(cohomology.CohomologyProfile, "euler_characteristic", real_chi)
    # off by one: the product runs (a_k+2)...(a_k+l_k+1)
    monkeypatch.setattr(verify, "_euler_polynomial", lambda l, a: real_polynomial(l, tuple(ak + 1 for ak in a)))
    (result,) = run_on(1, monkeypatch, config, ["cohomology"])
    ce = result.counterexample
    assert result.failures > 0 and ce["chi"] == ce["alternating"] != ce["polynomial"]


def test_cohomology_instance_makes_two_kunneth_calls(monkeypatch):
    # chi is read off the profile already compared, not from a third
    # evaluation: one Kunneth call for O(a), one for its Serre dual twist
    calls = []
    real = cohomology._kunneth
    monkeypatch.setattr(cohomology, "_kunneth", lambda l, a: calls.append(a) or real(l, a))
    E = SegreVeronese((1, 2), (1, 1))
    twists = list(itertools.product(range(-5, 3), repeat=2))
    assert [verify._cohomology_failure(E, a) for a in twists] == [None] * len(twists)
    assert len(calls) == 2 * len(twists)


def test_patched_oracle_scan_reaches_forked_workers(monkeypatch):
    # is_regular_oracle looks _oracle_scan up when it is called, so the
    # workers run the patched scan, not the memoized one
    real = regularity._oracle_scan
    parent = os.getpid()
    target = ((2,), (1,), (-2,))

    def flipped(l, d, c):
        if os.getpid() == parent:
            raise AssertionError("shard ran in-process")
        value = real(l, d, c)
        return not value if (l, d, c) == target else value

    monkeypatch.setattr(regularity, "_oracle_scan", flipped)
    (result,) = run_on(2, monkeypatch, SMALL, ["formula-vs-oracle"])
    # on the box [-3, 3], m + p = -2 for m in -3..1
    assert result.failures == 5
    ce = result.counterexample
    assert (ce["l"], ce["d"], ce["m"], ce["p"]) == ([2], [1], [-3], [1])
    assert ce["oracle"] != ce["formula"]


def pairs_of(config, unit):
    return [(E, m, p) for E, m, ps in verify._pair_groups(config, unit) for p in ps]


def test_r3_slices_draw_their_own_samples():
    # enough r=3 samples for several slices, the last one short
    config = verify.VerifyConfig(lmax=1, dmax=2, box=(-1, 1), r3_samples=2 * verify.R3_SLICE + 7)
    grid = verify._grid(config)
    slices = grid[6:]
    assert grid[:6] == list(verify._embeddings(config))
    for E in grid[:6]:
        pts = list(itertools.product(range(-1, 2), repeat=E.r))
        assert pairs_of(config, E) == [(E, m, p) for m in pts for p in pts]
        # the point grid is the (E, m) of the groups
        assert [(F, m) for F, m, _ in verify._pair_groups(config, E)] == [(E, m) for m in pts]
    # the slices cover the samples in order, with no gap and no overlap
    assert [i for unit in slices for i in unit] == list(range(config.r3_samples))
    drawn = [pairs_of(config, unit) for unit in slices]
    for unit, pairs in zip(slices, drawn):
        assert len(pairs) == len(unit)
        assert all(E.r == len(m) == len(p) == 3 for E, m, p in pairs)
        # each sample is a group of its own, so all four grid checks see
        # the same (E, m) for a slice
        assert all(len(ps) == 1 for _, _, ps in verify._pair_groups(config, unit))
    # each slice draws from a seed of its own, and its samples do not
    # depend on which slices were drawn before it
    assert drawn[0] != drawn[1]
    assert [pairs_of(config, unit) for unit in reversed(slices)] == drawn[::-1]


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
    def broken(E, m, p):
        raise RuntimeError("planted invariant failure")

    monkeypatch.setattr(regularity, "is_regular_formula", broken)
    with pytest.raises(RuntimeError, match="planted invariant failure"):
        run_on(2, monkeypatch, SMALL, ["formula-vs-oracle"])


def test_dead_worker_is_an_error(monkeypatch):
    parent = os.getpid()

    def dies(E, m, p):
        if os.getpid() == parent:  # never end the test process itself
            raise AssertionError("shard ran in-process")
        os._exit(1)

    monkeypatch.setattr(regularity, "is_regular_formula", dies)
    with pytest.raises(RuntimeError, match="terminated abruptly"):
        run_on(2, monkeypatch, SMALL, ["formula-vs-oracle"])


def test_window_replay_does_not_share_the_windows_route(monkeypatch):
    # the replay builds its columns through cohomology._kunneth, so a rank
    # fault planted in the _kunneth that tate_window reads fails every window
    real = tate._kunneth

    def one_more(l, a):
        found = real(l, a)
        return found and (found[0], found[1] + 1)

    monkeypatch.setattr(tate, "_kunneth", one_more)
    config = verify.VerifyConfig(lmax=1, dmax=1, box=(0, 0), r3_samples=0)
    (result,) = run_on(1, monkeypatch, config, ["tate-window"])
    assert result.failures == result.instances == 90
    assert result.counterexample["reason"] == "window column differs from tate_term"


def test_p_minus_disagreement_is_a_counterexample(monkeypatch):
    real = tate.p_minus
    monkeypatch.setattr(tate, "p_minus", lambda E, m: real(E, m) + 1)
    failure = verify._duality_failure(SegreVeronese((1, 1), (1, 1)), (0, 2))
    assert failure["reason"] == "p_minus presentations disagree"
    assert (failure["p_minus"], failure["ceiling"]) == (-1, -2)


def kunneth_dimension(monkeypatch):
    real = cohomology._kunneth
    monkeypatch.setattr(cohomology, "_kunneth", lambda l, a: (found := real(l, a)) and (found[0], found[1] + 1))


def kunneth_degree(monkeypatch):
    # H^1 of O(-3) on P^1 lands in degree 2, past the table of n = 1
    real = cohomology._kunneth
    monkeypatch.setattr(cohomology, "_kunneth", lambda l, a: (found := real(l, a)) and (found[0] + 1, found[1]))


def chi_sign(monkeypatch):
    real = cohomology.CohomologyProfile.euler_characteristic
    monkeypatch.setattr(cohomology.CohomologyProfile, "euler_characteristic", property(lambda self: -real.fget(self)))


def dual_twists_only(monkeypatch):
    # wrong only outside the box -3..3, where no profile but a dual one is read
    real = cohomology.product_cohomology

    def wrong_outside(E, a):
        profile = real(E, a)
        if profile.degree is None or all(-3 <= ak <= 3 for ak in a):
            return profile
        return cohomology.CohomologyProfile(profile.degree, profile.dimension + 1)

    monkeypatch.setattr(cohomology, "product_cohomology", wrong_outside)


@pytest.mark.parametrize("cpus", [1, 2])
@pytest.mark.parametrize(
    "plant, first",
    [
        (kunneth_dimension, {"a": [-3], "reason": "profile disagrees with Kunneth convolution", "profile": [1, 3]}),
        (kunneth_degree, {"a": [-3], "reason": "profile disagrees with Kunneth convolution", "profile": [2, 2]}),
        (chi_sign, {"a": [-3], "reason": "Euler characteristic disagrees", "chi": 2}),
        (dual_twists_only, {"a": [2], "reason": "Serre duality violated", "dual": [-4], "dual_profile": [1, 4]}),
    ],
    ids=["dimension", "degree", "chi", "dual"],
)
def test_cohomology_faults_are_counterexamples(capsys, monkeypatch, plant, first, cpus):
    # a library fault is a counterexample, exit 2, never a usage error
    plant(monkeypatch)
    monkeypatch.setattr(verify, "_available_cpus", lambda: cpus)
    argv = ["verify", "--lmax=2", "--dmax=1", "--box=-3,3", "--r3-samples=0", "--checks=cohomology", "--format=json"]
    assert cli.main(argv) == 2
    (check,) = json.loads(capsys.readouterr().out)["result"]["checks"]
    assert check["failures"] > 0 and check["counterexample"]["l"] == [1]
    assert {key: check["counterexample"][key] for key in first} == first


TINY = verify.VerifyConfig(lmax=1, dmax=1, box=(0, 0), r3_samples=0)


def not_monotone(E, m, p, real=regularity.is_regular_oracle, reg=regularity.cm_regularity):
    # regular at the least regular twist, not at the one above it
    return real(E, m, p) and tuple(p) != tuple((reg(E, m) + 1) * dk for dk in E.d)


@pytest.mark.parametrize(
    "oracle, reason",
    [
        (lambda E, m, p: True, "scan lower bound -4 is already regular"),
        (lambda E, m, p: False, "no regular twist in [-4, 4]"),
        (not_monotone, "twist 1 above the minimum 0 is not regular"),
    ],
    ids=["always", "never", "not-monotone"],
)
def test_minimal_twist_catches_planted_oracles(monkeypatch, oracle, reason):
    monkeypatch.setattr(regularity, "is_regular_oracle", oracle)
    (result,) = run_on(1, monkeypatch, TINY, ["minimal-twist"])
    assert result.failures == result.instances == 2
    assert (result.counterexample["l"], result.counterexample["reason"]) == ([1], reason)


def test_ideal_bound_catches_a_lost_strictness_witness(monkeypatch):
    # one more everywhere, by both routes, still bounds reg, but no longer
    # strictly by one
    real, split = regularity.ideal_sheaf_bound, verify._case_split_lambda
    monkeypatch.setattr(regularity, "ideal_sheaf_bound", lambda E: real(E) + 1)
    monkeypatch.setattr(verify, "_case_split_lambda", lambda E: split(E) + 1)
    (result,) = run_on(1, monkeypatch, TINY, ["ideal-bound"])
    assert result.failures == 1
    assert result.counterexample == {"l": [1, 2], "d": [1, 1], "bound": 4, "reg_zero": 1, "reason": "strictness witness failed"}


@pytest.mark.parametrize("cpus", [1, 2])
def test_ideal_bound_catches_a_planted_case_split_fault(capsys, monkeypatch, cpus):
    # the case split lives in verify; its disagreement with the library's
    # lambda fails every embedding, not the witness, which reads lambda alone,
    # and is a counterexample (exit 2), not an internal error.  A second
    # check's shard makes two workers
    real = verify._case_split_lambda
    monkeypatch.setattr(verify, "_case_split_lambda", lambda E: real(E) + 1)
    result, other = run_on(cpus, monkeypatch, verify.VerifyConfig(), ["ideal-bound", "segre-r2"])
    assert (result.failures, result.instances) == (90, 91) and other.ok
    assert result.counterexample == {"l": [1], "d": [1], "bound": 1, "case_split": 2, "reg_zero": 0}
    assert cli.main(["verify", "--checks=ideal-bound", "--format=json"]) == 2
    (check,) = json.loads(capsys.readouterr().out)["result"]["checks"]
    assert check["counterexample"] == result.counterexample


@pytest.mark.parametrize("cpus", [1, 2])
def test_tate_endpoints_catches_a_planted_balanced_fault(monkeypatch, cpus):
    # the balanced closed form lives in verify, and only its block of the
    # closed-form shard fails: at lmax 1, the 13 + 91 + 455 multisets of
    # r = 1, 2, 3 entries in -6..6
    real = verify._balanced_endpoints
    monkeypatch.setattr(verify, "_balanced_endpoints", lambda E, m: (real(E, m)[0], real(E, m)[1] + 1))
    (result,) = run_on(cpus, monkeypatch, TINY, ["tate-endpoints"])
    assert (result.failures, result.instances) == (559, 618)
    assert result.counterexample == {"l": [1], "d": [1], "m": [-6], "balanced": [6, 6], "general": [6, 5]}


@pytest.mark.parametrize("cpus", [1, 2])
def test_segre_r2_catches_a_planted_formula_fault(monkeypatch, cpus):
    # the formula lives in verify, and its fault is a counterexample of the
    # check that replays it; a second check's shard makes two workers
    real = verify._segre_regularity
    monkeypatch.setattr(verify, "_segre_regularity", lambda a, b, k, l: real(a, b, k, l) + 1)
    result, other = run_on(cpus, monkeypatch, TINY, ["segre-r2", "ideal-bound"])
    assert result.failures == result.instances == 1089 and other.ok
    assert result.counterexample == {"l": [1, 1], "d": [1, 1], "m": [-5, -5], "special": 7, "general": 6}


def test_dual_twist_that_is_not_an_involution_is_a_counterexample(monkeypatch):
    # a sign flip maps m to m - c, c = n d - l - 1 = (1, 0) here
    real = tate.dual_twist
    monkeypatch.setattr(tate, "dual_twist", lambda E, m: tuple(-x for x in real(E, m)))
    failure = verify._duality_failure(SegreVeronese((1, 2), (1, 1)), (0, 0))
    assert failure == {"l": [1, 2], "d": [1, 1], "m": [0, 0], "reason": "dual twist is not an involution"}


def test_window_endpoint_off_by_one_fails_purity(monkeypatch):
    # the columns stay right, so only the purity replay sees the endpoint
    real = tate.tate_window
    monkeypatch.setattr(tate, "tate_window", lambda E, m, pad=2: (w := real(E, m, pad))._replace(p_plus=w.p_plus + 1))
    (result,) = run_on(1, monkeypatch, TINY, ["tate-window"])
    assert result.failures == result.instances == 90
    assert result.counterexample["reason"] == "purity does not match endpoint"
