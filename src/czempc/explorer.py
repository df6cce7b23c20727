"""Breadth-first enumeration of active sets over the lifted hypercube.

Starting from the empty active set, each node spawns candidates by activating
one facet of every still-untouched coordinate pair. A candidate is rejected
if its KKT solve fails numerically or if its critical region's Chebyshev
radius falls below the threshold; the rest become tree nodes. The result is a
rooted tree whose edges are labeled by the activated constraint index.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from czempc.condense import CondensedProblem
from czempc.regions import (
    ActiveSet,
    AffineLaw,
    CriticalRegion,
    DualSolution,
    KktCache,
    RegionRejected,
    RegionResult,
    reduced_active_set,
    region_from_scratch,
    region_iterative,
)
from czempc.sets import DEFAULT_RADIUS_THRESHOLD, Polytope, is_empty, is_empty_stack

VARIANTS = ("baseline", "iter")


class InfeasibleProblem(RuntimeError):
    """The root critical region is rejected or empty."""


class ResourceCap(RuntimeError):
    """Node cap exceeded during exploration."""


@dataclass
class RegionNode:
    node_id: int
    result: RegionResult
    ared: tuple | None
    parent: int | None
    edge_label: int | None

    @property
    def active(self) -> ActiveSet:
        return self.result.active

    @property
    def law(self) -> AffineLaw:
        return self.result.law

    @property
    def region(self) -> CriticalRegion:
        return self.result.region

    @property
    def duals(self) -> DualSolution:
        return self.result.duals

    @property
    def cache(self) -> KktCache:
        return self.result.cache


@dataclass
class ExplorationStats:
    discovered: int = 0
    numerical: int = 0
    empty: int = 0
    dedup: int = 0
    examined: int = 0

    def as_dict(self) -> dict:
        return {
            "discovered": self.discovered,
            "numerical": self.numerical,
            "empty": self.empty,
            "dedup": self.dedup,
            "examined": self.examined,
        }


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


def swap_indices(active: ActiveSet) -> list:
    """Coordinate pairs with neither facet active: candidates for activation."""
    out = []
    for i in range(active.dbar):
        if not active.contains(i) and not active.contains(i + active.dbar):
            out.append(i)
    return out


def enumerate_children(active: ActiveSet) -> list:
    """Candidate (child active set, activated index) pairs in deterministic order.

    For each free pair ``(i, i + Dbar)`` the lower facet ``-xi_i <= 1`` is
    proposed first, then the upper facet ``xi_i <= 1``.
    """
    out = []
    for i in swap_indices(active):
        out.append((active.with_index(i + active.dbar), i + active.dbar))
        out.append((active.with_index(i), i))
    return out


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
    depth_cap: int | None = None,
) -> SolutionTree:
    """BFS over candidate active sets; returns the solution tree.

    ``variant`` selects how child regions are computed: 'baseline' from
    scratch, 'iter' by low-rank updates of the parent's factorizations.
    Both accept the same candidates. Raises ``ValueError`` on an unknown
    variant, a NaN, infinite or negative ``radius_threshold``, or a NaN or
    negative ``eps``.
    """
    if variant not in VARIANTS:
        raise ValueError(f"variant must be one of {VARIANTS}")
    check_thresholds(radius_threshold, eps)
    if depth_cap is None:
        depth_cap = cp.Dbar - cp.nbar_c

    tree = SolutionTree(cp.Dbar, cp.n, cp.m, cp.N, variant, radius_threshold)
    root_active = ActiveSet(cp.Dbar)
    try:
        root = region_from_scratch(cp, root_active, [-1]).result(0)
    except RegionRejected as exc:
        raise InfeasibleProblem(f"root region rejected: {exc.reason}") from exc
    if is_empty(Polytope(root.region.L, root.region.l), radius_threshold):
        raise InfeasibleProblem("root critical region is empty")
    root_ared = reduced_active_set(cp, root.law)
    tree.nodes.append(RegionNode(0, root, root_ared, None, None))
    tree.index[root_active.bits] = 0

    seen = {root_active.bits}
    queue = [0]
    head = 0
    stats = tree.stats
    while head < len(queue):
        node = tree.nodes[queue[head]]
        head += 1
        if node.active.cardinality >= depth_cap:
            continue
        fresh = []
        for child_active, new_index in enumerate_children(node.active):
            stats.examined += 1
            bits = child_active.bits
            if bits in seen:
                stats.dedup += 1
                continue
            seen.add(bits)
            fresh.append((child_active, new_index))
        if not fresh:
            continue
        outcomes = _solve_children(cp, node.result, fresh, variant, radius_threshold, eps)
        for (_, new_index), res in zip(fresh, outcomes):
            if res == "numerical":
                stats.numerical += 1
                continue
            if res == "empty":
                stats.empty += 1
                continue
            stats.discovered += 1
            if len(tree.nodes) >= node_cap:
                raise ResourceCap(f"node cap {node_cap} exceeded")
            node_id = len(tree.nodes)
            ared = reduced_active_set(cp, res.law)
            tree.nodes.append(RegionNode(node_id, res, ared, node.node_id, new_index))
            tree.index[res.active.bits] = node_id
            queue.append(node_id)
    return tree


def _solve_children(cp, parent: RegionResult, fresh: list, variant: str, radius_threshold: float, eps: float) -> list:
    """One outcome per fresh (child active set, new index) pair, in order: the
    accepted :class:`RegionResult`, or the rejection ``"numerical"`` or
    ``"empty"``. One stacked KKT solve ('iter': low-rank updates of the
    parent; 'baseline': from scratch) is followed by one stacked emptiness
    test; only accepted children are copied out of the stack."""
    added = [i for _, i in fresh]
    if variant == "baseline":
        stack = region_from_scratch(cp, parent.active, added)
    else:
        stack = region_iterative(cp, parent, added, eps)
    outcomes = ["numerical"] * len(fresh)
    if stack.kept.size:
        for position, empty in zip(stack.kept, is_empty_stack(stack.L, stack.l, radius_threshold)):
            outcomes[position] = "empty" if empty else stack.result(position)
    return outcomes


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
        "version": 1,
        "Dbar": tree.Dbar,
        "n": tree.n,
        "m": tree.m,
        "N": tree.N,
        "variant": tree.variant,
        "radius_threshold": tree.radius_threshold,
        "stats": tree.stats.as_dict(),
        "nodes": [
            {
                "id": nd.node_id,
                "active": list(nd.active.indices),
                "Ku": _mat(nd.law.Ku),
                "ku": _mat(nd.law.ku),
                "L": _mat(nd.region.L),
                "l": _mat(nd.region.l),
                "ared": list(nd.ared) if nd.ared is not None else None,
                "parent": nd.parent,
                "edge_label": nd.edge_label,
            }
            for nd in tree.nodes
        ],
    }
    return json.dumps(payload, indent=1)


def import_json(text: str) -> SolutionTree:
    """Rebuild a tree from :func:`export_json` output (laws/regions only;
    KKT caches and duals are not serialized). A malformed file raises
    ``ValueError``, as does a node whose ``id`` is not its position or whose
    ``L``, ``l``, ``Ku`` or ``ku`` has the wrong shape."""
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
        rows, nu = 2 * tree.Dbar, tree.N * tree.m
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
            law = AffineLaw(arrays["Ku"], arrays["ku"])
            region = CriticalRegion(arrays["L"], arrays["l"])
            result = RegionResult(active, law, region, duals=None, cache=None)
            ared = tuple(nd["ared"]) if nd["ared"] is not None else None
            tree.nodes.append(RegionNode(position, result, ared, nd["parent"], nd["edge_label"]))
            tree.index[active.bits] = position
    except (KeyError, TypeError, IndexError) as exc:
        raise ValueError(f"malformed tree file: {exc!r}") from exc
    return tree
