"""Fixtures and helpers shared by the test modules."""
import os

import pytest

from svreg import tate
from svreg.cohomology import SegreVeronese

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
P1P1 = SegreVeronese((1, 1), (1, 1))


def names_started(tasks):
    """The checks a stand-in for ``verify._pooled``, which starts every
    shard of a run, was handed shards of."""
    return sorted({name for names, *_ in tasks for name in names})


def refuse_to_start(tasks):
    """Stands in for ``verify._pooled`` where no shard may start."""
    raise AssertionError(f"{', '.join(names_started(tasks))} started")


@pytest.fixture
def kunneth_calls(monkeypatch):
    """Stands in for the Kunneth evaluation that builds a Tate window: it
    records each call and finds no cohomology, so that a window at a limit
    is cheap to build."""
    calls = []

    def no_cohomology(l, a):
        calls.append(l)

    monkeypatch.setattr(tate, "_kunneth", no_cohomology)
    return calls
