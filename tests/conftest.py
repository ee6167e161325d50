"""Fixtures shared by the test modules."""
import pytest

from svreg import tate


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
