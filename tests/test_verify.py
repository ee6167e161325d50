"""Sharded verification: the merge must not depend on the worker count."""
import itertools
import os

import pytest

from svreg import regularity, tate, verify
from svreg.cohomology import SegreVeronese

SMALL = verify.VerifyConfig(lmax=2, dmax=2, box=(-3, 3), r3_samples=50)


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
    assert summary(run_on(2, monkeypatch, SMALL)) == summary(serial)


def test_first_counterexample_in_iteration_order(monkeypatch):
    # one planted failure in an r=1 embedding's shard, one in a later r=2
    # embedding's shard; the r=1 one comes first in iteration order
    real = regularity.is_regular_formula
    targets = {((2,), (1,), (1,), (-3,)), ((1, 2), (2, 1), (0, 0), (3, -1))}

    def broken(E, m, p, subset_cap=regularity.SUBSET_CAP):
        value = real(E, m, p, subset_cap)
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


def test_shards_partition_the_serial_stream():
    # enough r=3 samples to cut the stream into several slices
    config = verify.VerifyConfig(lmax=1, dmax=2, box=(-1, 1), r3_samples=2 * verify.R3_SLICE + 7)
    sharded = [case for unit in verify._grid(config) for case in verify._pairs(config, unit)]
    serial = []
    for E in verify._embeddings(config):
        pts = list(itertools.product(range(-1, 2), repeat=E.r))
        serial += [(E, m, p) for m in pts for p in pts]
    serial += [(SegreVeronese(l, d), m, p) for l, d, m, p in verify._r3_samples(config)]
    assert len(verify._grid(config)) == 6 + 3
    assert sharded == serial


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
    def broken(E, m, p, subset_cap=regularity.SUBSET_CAP):
        raise RuntimeError("planted invariant failure")

    monkeypatch.setattr(regularity, "is_regular_formula", broken)
    with pytest.raises(RuntimeError, match="planted invariant failure"):
        run_on(2, monkeypatch, SMALL, ["formula-vs-oracle"])


def test_dead_worker_is_an_error(monkeypatch):
    parent = os.getpid()

    def dies(E, m, p, subset_cap=regularity.SUBSET_CAP):
        if os.getpid() == parent:  # never end the test process itself
            raise AssertionError("shard ran in-process")
        os._exit(1)

    monkeypatch.setattr(regularity, "is_regular_formula", dies)
    with pytest.raises(RuntimeError, match="terminated abruptly"):
        run_on(2, monkeypatch, SMALL, ["formula-vs-oracle"])


def test_p_minus_disagreement_is_a_counterexample(monkeypatch):
    real = tate.p_minus
    monkeypatch.setattr(tate, "p_minus", lambda E, m: real(E, m) + 1)
    failure = verify._duality_failure(SegreVeronese((1, 1), (1, 1)), (0, 2))
    assert failure["reason"] == "p_minus presentations disagree"
    assert (failure["p_minus"], failure["dual_p_plus"], failure["ceiling"]) == (-1, 2, -2)
