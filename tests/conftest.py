import pytest

import chowdefect.bolattice as bo


@pytest.fixture(autouse=True)
def empty_handoff(monkeypatch):
    """Start every test with an empty hand-off, so that no test's call takes
    a rank read that another test's call handed on."""
    monkeypatch.setattr(bo, "_handoff", None)
