"""Breadth-first enumeration of active sets over the lifted hypercube.

Starting from the empty active set, each node spawns candidates by activating
one facet of every still-untouched coordinate pair. A candidate is rejected
if its KKT solve fails numerically or if its critical region's Chebyshev
radius falls below the threshold; the rest become tree nodes. The result is a
rooted tree whose edges are labeled by the activated constraint index.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field
from itertools import groupby

import numpy as np

from czempc.condense import CondensedProblem, eliminate
from czempc.regions import (
    ActiveSet,
    AffineLaw,
    CriticalRegion,
    RegionRejected,
    reduced_active_set,  # noqa: F401 (perfbench/spans.py traces it by this name)
    region_from_scratch,
    region_iterative,
)
from czempc.sets import DEFAULT_RADIUS_THRESHOLD, Polytope, is_empty, is_empty_stack

VARIANTS = ("baseline", "iter")
# explore gathers parents into a batch until their fresh candidates times
# Dbar**2 reach this budget, Dbar being that of the reduced problem: about
# 255 candidates at Dbar = 14 (paper4state N=3), 195 at 16 (N=4), 500 at 10
# (N=1 with the LQR-invariant terminal set). A batch is one KKT stack per
# parent cardinality, holding one to three Dbar**2 floats per candidate,
# and one stack of emptiness LPs: _accept peaks at about 2.5 MB at N=4
# here, and at 4-5 MB with twice the budget, which is not faster on all
# of N=3, N=4 and the LQR-invariant case.
BATCH_BUDGET = 50_000


class InfeasibleProblem(RuntimeError):
    """The root critical region is rejected or empty."""


class ResourceCap(RuntimeError):
    """Node cap exceeded during exploration."""


@dataclass(frozen=True)
class RegionNode:
    """An accepted region, its law and its place in the tree: ``parent`` is
    the id of the node it was reached from by activating facet
    ``edge_label``. Explored and imported nodes alike hold just these."""

    active: ActiveSet
    law: AffineLaw
    region: CriticalRegion
    node_id: int
    parent: int | None
    edge_label: int | None


@dataclass
class ExplorationStats:
    discovered: int = 0
    numerical: int = 0
    empty: int = 0
    dedup: int = 0
    examined: int = 0


@dataclass
class SolutionTree:
    Dbar: int
    n: int
    m: int
    N: int
    variant: str
    radius_threshold: float
    nodes: list = field(default_factory=list)
    stats: ExplorationStats = field(default_factory=ExplorationStats)
    index: dict = field(default_factory=dict)  # active-set bits -> node id

    @property
    def num_regions(self) -> int:
        return len(self.nodes)

    def edges(self) -> list:
        return [(nd.parent, nd.node_id, nd.edge_label) for nd in self.nodes if nd.parent is not None]


def candidate_indices(active: ActiveSet) -> list:
    """Facets a child of ``active`` may activate, in BFS order: for each pair
    ``(i, i + Dbar)`` with neither facet active, the lower facet
    ``-xi_i <= 1`` (index ``i + Dbar``) first, then the upper ``xi_i <= 1``."""
    d = active.dbar
    taken = {i % d for i in active.indices}
    return [j for i in range(d) if i not in taken for j in (i + d, i)]


def _accept(tree: SolutionTree, results: dict, batch: list, cp: CondensedProblem, eps: float,
            radius_threshold: float, node_cap: int) -> None:
    """Solve the fresh candidates of every parent of ``batch`` as one KKT
    stack per parent cardinality, test the kept ones for emptiness as one
    stack, then append the non-empty ones to ``tree`` per parent, in
    candidate order, and their region results to ``results`` by node id.

    ``batch`` holds ``(parent id, fresh, parent)`` in BFS order, ``parent``
    being the node's active set for ``baseline`` and its region result for
    ``iter``; so parents of equal cardinality are consecutive, and the
    stacks, read in order, keep the candidates in batch order."""
    stacks = []
    for _, run in groupby(batch, key=lambda item: tree.nodes[item[0]].active.cardinality):
        run = list(run)
        parents, added = [parent for _, _, parent in run], [fresh for _, fresh, _ in run]
        if tree.variant == "baseline":
            stack = region_from_scratch(cp, parents, added)
        else:
            stack = region_iterative(cp, parents, added, eps)
        tree.stats.numerical += len(stack.reasons) - stack.kept.size
        stacks.append(([(parent, i) for parent, fresh, _ in run for i in fresh], stack))
    empty = is_empty_stack(
        np.concatenate([stack.L for _, stack in stacks]), np.concatenate([stack.l for _, stack in stacks]),
        radius_threshold,
    )
    tree.stats.empty += int(empty.sum())
    for edges, stack in stacks:
        stack_empty, empty = empty[: stack.kept.size], empty[stack.kept.size :]
        for position in stack.kept[~stack_empty]:
            tree.stats.discovered += 1
            if len(tree.nodes) >= node_cap:
                raise ResourceCap(f"node cap {node_cap} exceeded")
            res = results[len(tree.nodes)] = stack.result(position)
            tree.index[res.active.bits] = len(tree.nodes)
            tree.nodes.append(RegionNode(res.active, res.law, res.region, len(tree.nodes), *edges[position]))


def check_thresholds(radius_threshold: float, eps: float) -> None:
    """Raise ``ValueError`` unless ``radius_threshold`` is finite and ``>= 0``
    and ``eps`` is ``>= 0``. A negative or NaN threshold would accept empty
    regions."""
    if not (np.isfinite(radius_threshold) and radius_threshold >= 0):
        raise ValueError(f"radius threshold must be a finite number >= 0, got {radius_threshold!r}")
    if not eps >= 0:
        raise ValueError(f"eps must be a number >= 0, got {eps!r}")


def explore(
    cp: CondensedProblem,
    variant: str = "baseline",
    radius_threshold: float = DEFAULT_RADIUS_THRESHOLD,
    eps: float = 1e-10,
    node_cap: int = 1_000_000,
) -> SolutionTree:
    """BFS over candidate active sets; returns the solution tree.

    ``variant`` selects how child regions are computed: 'baseline' from
    scratch, 'iter' by low-rank updates of the parent's factorizations.
    Either way the BFS gathers consecutive parents and their fresh
    candidates into a batch, up to :data:`BATCH_BUDGET`; it then solves the
    batch's KKT systems as one stack per parent cardinality (at most two,
    as a batch spans at most two depths) and tests the kept candidates for
    emptiness as one stack. Both variants accept the same candidates.

    The BFS runs over the lifted coordinates whose box bounds can bind: the
    coordinates ``E`` of :func:`~czempc.condense.never_binding`, which
    ``cp`` computes once and keeps, are eliminated first, so no candidate
    activates one of their facets (none would be accepted). Active sets and edge labels are mapped back to
    ``cp``'s indices; each region keeps the ``2 d`` rows the reduced BFS
    computed, ``d`` being the number of coordinates explored. The rows of
    the ``E`` facets are redundant and left out: ``never_binding`` keeps
    every ``|xi_E|`` below ``1 - NEVER_BINDS_MARGIN`` at every feasible
    point, so by convexity ``|xi_E| < 1`` wherever ``|xi_R| <= 1`` (see the
    README's *Tree files*).
    Raises ``ValueError`` on an unknown variant, a NaN, infinite or negative
    ``radius_threshold``, or a NaN or negative ``eps``.
    """
    if variant not in VARIANTS:
        raise ValueError(f"variant must be one of {VARIANTS}")
    check_thresholds(radius_threshold, eps)
    reduced, kept = eliminate(cp, cp.never_binding)
    return _lift(_explore(reduced, variant, radius_threshold, eps, node_cap), cp.Dbar, kept)


def _explore(cp: CondensedProblem, variant: str, radius_threshold: float, eps: float, node_cap: int) -> SolutionTree:
    """The BFS of :func:`explore` over all of ``cp``'s lifted coordinates.

    Expanding a node only enumerates and deduplicates its candidates; the
    batch keeps what its variant's solver needs of the node (the active set
    for ``baseline``, the region result for ``iter``) until :func:`_accept`
    solves every parent of the batch together. A single parent is a batch
    of one."""
    tree = SolutionTree(cp.Dbar, cp.n, cp.m, cp.N, variant, radius_threshold)
    try:
        root = region_from_scratch(cp, [ActiveSet(cp.Dbar)], [[-1]]).result(0)
    except RegionRejected as exc:
        raise InfeasibleProblem(f"root region rejected: {exc.reason}") from exc
    if is_empty(Polytope(root.region.L, root.region.l), radius_threshold):
        raise InfeasibleProblem("root critical region is empty")
    tree.nodes.append(RegionNode(root.active, root.law, root.region, 0, None, None))
    tree.index[root.active.bits] = 0
    # the region result each node was accepted from, kept until the node is
    # expanded and its batch solved: iter updates its KKT factors into the
    # children
    results = {0: root}

    seen = set(tree.index)  # bits of every candidate examined so far, accepted or not
    depth = cp.Dbar - cp.nbar_c  # Z has no columns here: every child would be singular
    stats = tree.stats
    batch, size = [], 0  # (parent id, fresh, parent) of the pending parents; their candidate count
    for position, node in enumerate(tree.nodes):  # grows at each batch, so nodes are visited in BFS order
        res = results.pop(position)
        if node.active.cardinality < depth:
            bits = node.active.bits
            candidates = candidate_indices(node.active)
            fresh = [i for i in candidates if bits | 1 << i not in seen]
            seen.update(bits | 1 << i for i in fresh)
            stats.examined += len(candidates)
            stats.dedup += len(candidates) - len(fresh)
            if fresh:
                batch.append((position, fresh, node.active if variant == "baseline" else res))
                size += len(fresh)
        # decide the batch once it fills the budget or no known node is left
        if batch and (size * cp.Dbar**2 >= BATCH_BUDGET or position + 1 == len(tree.nodes)):
            _accept(tree, results, batch, cp, eps, radius_threshold, node_cap)
            batch, size = [], 0  # frees the batch's parents and stacks before the next batch
    return tree


def _lift(tree: SolutionTree, D: int, kept: np.ndarray) -> SolutionTree:
    """``tree``, explored over the lifted coordinates ``kept`` of a problem
    with ``D`` of them (see :func:`~czempc.condense.eliminate`), in that
    problem's indices: reduced facet ``f`` is facet ``lift[f]``, for active
    sets and edge labels alike. Laws and regions stay as they are."""
    lift = np.concatenate([kept, kept + D])
    out = SolutionTree(D, tree.n, tree.m, tree.N, tree.variant, tree.radius_threshold, stats=tree.stats)
    for nd in tree.nodes:
        active = ActiveSet(D, tuple(lift[list(nd.active.indices)]))
        edge = None if nd.edge_label is None else int(lift[nd.edge_label])
        out.index[active.bits] = nd.node_id
        out.nodes.append(RegionNode(active, nd.law, nd.region, nd.node_id, nd.parent, edge))
    return out


def export_dot(tree: SolutionTree) -> str:
    """Graphviz DOT rendering: nodes labeled by active indices, edges by the
    constraint activated in the parent-to-child step."""
    lines = ["digraph solution_tree {", "  rankdir=TB;"]
    for nd in tree.nodes:
        label = "{" + ",".join(str(i) for i in nd.active.indices) + "}"
        lines.append(f'  n{nd.node_id} [label="{nd.node_id}: {label}"];')
    for parent, child, edge in tree.edges():
        lines.append(f'  n{parent} -> n{child} [label="{edge}"];')
    lines.append("}")
    return "\n".join(lines)


def _mat(M: np.ndarray) -> list:
    return np.asarray(M, dtype=float).tolist()


def export_json(tree: SolutionTree) -> str:
    """Full numeric payload; floats round-trip exactly via repr."""
    payload = {
        "format": "czempc-tree",
        "version": 3,
        "Dbar": tree.Dbar,
        "n": tree.n,
        "m": tree.m,
        "N": tree.N,
        "variant": tree.variant,
        "radius_threshold": tree.radius_threshold,
        "stats": asdict(tree.stats),
        "nodes": [
            {
                "id": nd.node_id,
                "active": list(nd.active.indices),
                "Ku": _mat(nd.law.Ku),
                "ku": _mat(nd.law.ku),
                "L": _mat(nd.region.L),
                "l": _mat(nd.region.l),
                "parent": nd.parent,
                "edge_label": nd.edge_label,
            }
            for nd in tree.nodes
        ],
    }
    return json.dumps(payload, indent=1)


def import_json(text: str) -> SolutionTree:
    """Rebuild a tree from :func:`export_json` output (the ``ared`` lists of
    version-1 files are ignored). A malformed file raises ``ValueError``, as
    does a node whose ``id`` is not its position or whose ``L``, ``l``,
    ``Ku`` or ``ku`` has the wrong shape or a NaN or inf. Every node must
    have the row count of node 0."""
    data = json.loads(text)
    if not isinstance(data, dict) or data.get("format") != "czempc-tree":
        raise ValueError("not a czempc tree file")
    try:
        tree = SolutionTree(
            Dbar=data["Dbar"],
            n=data["n"],
            m=data["m"],
            N=data["N"],
            variant=data["variant"],
            radius_threshold=data["radius_threshold"],
        )
        stats = dict(data["stats"])
        # older version-1 files count the candidates a since-removed necessary
        # test pruned before the emptiness LP; every one of them was empty
        stats["empty"] += stats.pop("quick", 0)
        tree.stats = ExplorationStats(**stats)
        # every node has the row count of the first: 2 Dbar in version 1
        # and 2 files, the 2 d rows of the explored coordinates in version 3
        rows, nu = len(data["nodes"][0]["l"]) if data["nodes"] else 0, tree.N * tree.m
        shapes = {"Ku": (nu, tree.n), "ku": (nu,), "L": (rows, tree.n), "l": (rows,)}
        for position, nd in enumerate(data["nodes"]):
            if nd["id"] != position:
                raise ValueError(f"malformed tree file: node at position {position} has id {nd['id']!r}")
            arrays = {key: np.asarray(nd[key], dtype=float) for key in shapes}
            for key, shape in shapes.items():
                if arrays[key].shape != shape:
                    raise ValueError(
                        f"malformed tree file: node {position} has {key} of shape {arrays[key].shape}, expected {shape}"
                    )
            active = ActiveSet(tree.Dbar, tuple(nd["active"]))
            tree.nodes.append(RegionNode(
                active, AffineLaw(arrays["Ku"], arrays["ku"]), CriticalRegion(arrays["L"], arrays["l"]),
                position, nd["parent"], nd["edge_label"],
            ))
            tree.index[active.bits] = position
        values = [a.ravel() for nd in tree.nodes for a in (nd.law.Ku, nd.law.ku, nd.region.L, nd.region.l)]
        if values and not np.isfinite(np.concatenate(values)).all():
            raise ValueError("malformed tree file: a law or region has a NaN or infinite entry")
    except (KeyError, TypeError, IndexError) as exc:
        raise ValueError(f"malformed tree file: {exc!r}") from exc
    return tree
