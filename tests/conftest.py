import json
import pathlib

import numpy as np
import pytest

from czempc.cli import parse_problem
from czempc.condense import build_condensed_qp
from czempc.explorer import explore
from czempc.regions import region_from_scratch, region_iterative

ROOT = pathlib.Path(__file__).resolve().parents[1]
PAPER_PROBLEM = ROOT / "problems" / "paper4state.json"
DINT_PROBLEM = ROOT / "problems" / "doubleint.json"


def node_results(cp, tree, eps=1e-10):
    """The region result of every node of an explored ``tree``, by node id,
    with the KKT factors and duals that tree nodes do not keep. Replays the
    tree's edges through the solver of its variant as ``explore`` does: the
    root from scratch, then each parent's children as one stack."""
    children = {nd.node_id: [] for nd in tree.nodes}
    for parent, child, _ in tree.edges():
        children[parent].append(child)
    results = [region_from_scratch(cp, tree.nodes[0].active, [-1]).result(0)] + [None] * (tree.num_regions - 1)
    for nd in tree.nodes:  # BFS order: a parent's result is ready before its children's
        if children[nd.node_id]:
            added = [tree.nodes[child].edge_label for child in children[nd.node_id]]
            if tree.variant == "baseline":
                stack = region_from_scratch(cp, nd.active, added)
            else:
                stack = region_iterative(cp, results[nd.node_id], added, eps)
            for position, child in enumerate(children[nd.node_id]):
                results[child] = stack.result(position)
    return results


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
