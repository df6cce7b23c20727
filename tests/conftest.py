import json
import pathlib
from typing import NamedTuple

import numpy as np
import pytest

from czempc.cli import parse_problem
from czempc.condense import CondensedProblem, build_condensed_qp
from czempc.explorer import explore
from czempc.regions import RegionRejected, RegionStack, region_from_scratch, region_iterative

ROOT = pathlib.Path(__file__).resolve().parents[1]
PAPER_PROBLEM = ROOT / "problems" / "paper4state.json"
DINT_PROBLEM = ROOT / "problems" / "doubleint.json"


class NodeSolve(NamedTuple):
    """Where a node was solved: candidate ``position`` of ``stack``. The
    stack keeps what tree nodes do not: the KKT factors and right-hand side
    (``Kinv``, ``kappa``) and the multipliers ``S`` of its kept candidates."""

    stack: RegionStack
    position: int

    @property
    def row(self) -> int:
        """Index of this node among the stack's kept candidates."""
        return int(np.searchsorted(self.stack.kept, self.position))

    def result(self):
        return self.stack.result(self.position)

    def xi(self, x0) -> np.ndarray:
        """Lifted minimizer ``xi*(x0) = Kinv kappa [1; x0]``."""
        return self.stack.Kinv[self.row] @ (self.stack.kappa[self.row] @ np.r_[1.0, x0])

    def duals(self, x0) -> np.ndarray:
        """Multipliers ``[lambda; mu_A](x0) = S [1; x0]``."""
        return self.stack.S[self.row] @ np.r_[1.0, x0]


def explore_unreduced(cp, **options):
    """:func:`explore` with no lifted coordinate eliminated: the BFS over all
    ``2 Dbar`` facets of ``cp``, the reference the reduced BFS reproduces."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(CondensedProblem, "never_binding", property(lambda cp: np.arange(0)))
        return explore(cp, **options)


def node_results(cp, tree, eps=1e-10) -> list:
    """The :class:`NodeSolve` of every node of an explored ``tree``, by node
    id. Replays the tree's edges over all of ``cp``'s lifted coordinates
    through the solver of its variant as :func:`explore_unreduced` does:
    the root from scratch, then each parent's children as one stack; raises
    :class:`RegionRejected` if the replay rejects a node."""
    children = {nd.node_id: [] for nd in tree.nodes}
    for parent, child, _ in tree.edges():
        children[parent].append(child)
    solves = [NodeSolve(region_from_scratch(cp, [tree.nodes[0].active], [[-1]]), 0)] + [None] * (tree.num_regions - 1)
    for nd in tree.nodes:  # BFS order: a parent's stack is ready before its children's
        if children[nd.node_id]:
            added = [tree.nodes[child].edge_label for child in children[nd.node_id]]
            if tree.variant == "baseline":
                stack = region_from_scratch(cp, [nd.active], [added])
            else:
                stack = region_iterative(cp, [solves[nd.node_id].result()], [added], eps)
            for position, child in enumerate(children[nd.node_id]):
                if stack.reasons[position] is not None:
                    raise RegionRejected(stack.reasons[position])
                solves[child] = NodeSolve(stack, position)
    return solves


@pytest.fixture(scope="session")
def paper_doc():
    with open(PAPER_PROBLEM) as fh:
        return json.load(fh)


@pytest.fixture(scope="session")
def paper_problem(paper_doc):
    """Factory: the 4-state benchmark problem for a given horizon (cached)."""
    cache = {}

    def make(N):
        if N not in cache:
            cache[N], _ = parse_problem(paper_doc, n_override=N)
        return cache[N]

    return make


@pytest.fixture(scope="session")
def paper_cp(paper_problem):
    """Factory: condensed 4-state benchmark problem for a given horizon (cached)."""
    cache = {}

    def make(N):
        if N not in cache:
            cache[N] = build_condensed_qp(paper_problem(N))
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
