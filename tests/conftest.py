import json
import pathlib

import numpy as np
import pytest

from czempc.cli import parse_problem
from czempc.condense import build_condensed_qp
from czempc.explorer import explore

ROOT = pathlib.Path(__file__).resolve().parents[1]
PAPER_PROBLEM = ROOT / "problems" / "paper4state.json"
DINT_PROBLEM = ROOT / "problems" / "doubleint.json"


@pytest.fixture(scope="session")
def paper_doc():
    with open(PAPER_PROBLEM) as fh:
        return json.load(fh)


@pytest.fixture(scope="session")
def paper_cp(paper_doc):
    """Factory: condensed 4-state benchmark problem for a given horizon (cached)."""
    cache = {}

    def make(N):
        if N not in cache:
            problem, _ = parse_problem(paper_doc, n_override=N)
            cache[N] = build_condensed_qp(problem)
        return cache[N]

    return make


@pytest.fixture(scope="session")
def paper_tree(paper_cp):
    """Factory: explored solution tree for (horizon, variant), cached per session.

    ``make.build_seconds[(N, variant)]`` records the wall time of each first build
    so timing budgets can be asserted without re-exploring.
    """
    import time

    cache = {}
    times = {}

    def make(N, variant):
        key = (N, variant)
        if key not in cache:
            t0 = time.perf_counter()
            cache[key] = explore(paper_cp(N), variant=variant)
            times[key] = time.perf_counter() - t0
        return cache[key]

    make.build_seconds = times
    return make


@pytest.fixture(scope="session")
def dint_doc():
    with open(DINT_PROBLEM) as fh:
        return json.load(fh)


@pytest.fixture(scope="session")
def dint_problem(dint_doc):
    problem, _ = parse_problem(dint_doc, None)
    return problem


@pytest.fixture(scope="session")
def dint_cp(dint_problem):
    return build_condensed_qp(dint_problem)


@pytest.fixture(scope="session")
def dint_tree(dint_cp):
    return explore(dint_cp, variant="iter")


@pytest.fixture
def rng():
    return np.random.default_rng(20260823)
