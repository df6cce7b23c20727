"""Breadth-first enumeration of active sets over the lifted hypercube.

Starting from the empty active set, each node spawns candidates by activating
one facet of every still-untouched coordinate pair. Candidates pass through a
three-level pruning hierarchy (numerical rejection, the quick child-face
check, Chebyshev-radius emptiness) before becoming tree nodes. The result is
a rooted tree whose edges are labeled by the activated constraint index.
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
from czempc.sets import DEFAULT_RADIUS_THRESHOLD, Polytope, is_empty

VARIANTS = ("baseline", "iter", "iter-quick")


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
    quick: int = 0
    empty: int = 0
    dedup: int = 0
    examined: int = 0

    def as_dict(self) -> dict:
        return {
            "discovered": self.discovered,
            "numerical": self.numerical,
            "quick": self.quick,
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


def quick_check(parent_ared: tuple, child_ared: tuple) -> bool:
    """Necessary non-emptiness test: the child must pin exactly one new polyhedral row."""
    parent_set = set(parent_ared)
    child_set = set(child_ared)
    return parent_set <= child_set and len(child_set - parent_set) == 1


def explore(
    cp: CondensedProblem,
    variant: str = "baseline",
    radius_threshold: float = DEFAULT_RADIUS_THRESHOLD,
    eps: float = 1e-10,
    node_cap: int = 1_000_000,
    depth_cap: int | None = None,
    quick_enabled: bool | None = None,
) -> SolutionTree:
    """BFS over candidate active sets; returns the solution tree.

    ``variant`` selects how child regions are computed ('baseline' from
    scratch, 'iter'/'iter-quick' by low-rank updates) and whether the quick
    check prunes ('iter-quick' only, unless overridden via ``quick_enabled``).
    """
    if variant not in VARIANTS:
        raise ValueError(f"variant must be one of {VARIANTS}")
    use_quick = (variant == "iter-quick") if quick_enabled is None else quick_enabled
    if use_quick and not cp.poly_has_terminal:
        raise ValueError("quick check needs the full polyhedral form (zonotopic terminal set)")
    if depth_cap is None:
        depth_cap = cp.Dbar - cp.nbar_c

    tree = SolutionTree(cp.Dbar, cp.n, cp.m, cp.N, variant, radius_threshold)
    root_active = ActiveSet(cp.Dbar)
    try:
        root = region_from_scratch(cp, root_active)
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
        for child_active, new_index in enumerate_children(node.active):
            stats.examined += 1
            bits = child_active.bits
            if bits in seen:
                stats.dedup += 1
                continue
            seen.add(bits)
            try:
                if variant == "baseline":
                    res = region_from_scratch(cp, child_active)
                else:
                    res = region_iterative(cp, node.result, new_index, eps)
            except RegionRejected:
                stats.numerical += 1
                continue
            if use_quick:
                child_ared = reduced_active_set(cp, res.law)
                if not quick_check(node.ared, child_ared):
                    stats.quick += 1
                    continue
            if is_empty(Polytope(res.region.L, res.region.l), radius_threshold):
                stats.empty += 1
                continue
            if not use_quick:  # without the quick check only accepted nodes need it
                child_ared = reduced_active_set(cp, res.law)
            stats.discovered += 1
            if len(tree.nodes) >= node_cap:
                raise ResourceCap(f"node cap {node_cap} exceeded")
            node_id = len(tree.nodes)
            tree.nodes.append(RegionNode(node_id, res, child_ared, node.node_id, new_index))
            tree.index[bits] = node_id
            queue.append(node_id)
    return tree


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
    KKT caches and duals are not serialized)."""
    data = json.loads(text)
    if data.get("format") != "czempc-tree":
        raise ValueError("not a czempc tree file")
    tree = SolutionTree(
        Dbar=data["Dbar"],
        n=data["n"],
        m=data["m"],
        N=data["N"],
        variant=data["variant"],
        radius_threshold=data["radius_threshold"],
    )
    st = data["stats"]
    tree.stats = ExplorationStats(**st)
    for nd in data["nodes"]:
        active = ActiveSet(tree.Dbar, tuple(nd["active"]))
        law = AffineLaw(np.asarray(nd["Ku"], dtype=float), np.asarray(nd["ku"], dtype=float))
        region = CriticalRegion(np.asarray(nd["L"], dtype=float), np.asarray(nd["l"], dtype=float))
        result = RegionResult(active, law, region, duals=None, cache=None)
        node = RegionNode(nd["id"], result, tuple(nd["ared"]) if nd["ared"] is not None else None, nd["parent"], nd["edge_label"])
        tree.nodes.append(node)
        tree.index[active.bits] = nd["id"]
    return tree
