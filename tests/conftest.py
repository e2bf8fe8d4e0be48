"""Fixtures that more than one test module reads."""

import time

import pytest

from rsmirnov.synthesis import SynthesisProblem, synthesize_search
from rsmirnov.valence_tree import Interval, Node, Tree


@pytest.fixture(scope="session")
def two_one_search():
    """(result, seconds) of the uncapped search for the (2, 1) edge on
    (-1, 1), with seed 0, a budget of 100,000 and 16 restarts.  It takes
    seconds, so the session solves it once."""
    target = Tree([Node("p1", 1, 2), Node("m1", -1, 1)],
                  [("p1", "m1", Interval(-1.0, 1.0))])
    t0 = time.monotonic()
    result = synthesize_search(SynthesisProblem(target, restarts=16, budget=100_000,
                                                seed=0))
    return result, time.monotonic() - t0
