import pytest

import chowdefect.bolattice as bo


@pytest.fixture(autouse=True)
def empty_handoff():
    """Start every test with an empty s1-to-s2 hand-off, so that no test's
    s2 call receives the work of another test's s1 call."""
    bo._handoff = None
