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

import numpy as np

from czempc.condense import CondensedProblem
from czempc.regions import (
    ActiveSet,
    AffineLaw,
    CriticalRegion,
    RegionRejected,
    RegionResult,
    reduced_active_set,  # noqa: F401 (perfbench/spans.py traces it by this name)
    region_from_scratch,
    region_iterative,
)
from czempc.sets import DEFAULT_RADIUS_THRESHOLD, Polytope, is_empty, is_empty_stack

VARIANTS = ("baseline", "iter")
# explore gathers parents for one stacked emptiness test until their fresh
# candidates times Dbar**2 reach this budget: about 100 candidates at
# Dbar = 22, 39 at Dbar = 36. A pending stack holds one to three Dbar**2
# floats per kept candidate (iter's fewer than baseline's), so the batch's
# stacks stay near 1 MB.
BATCH_BUDGET = 50_000


class InfeasibleProblem(RuntimeError):
    """The root critical region is rejected or empty."""


class ResourceCap(RuntimeError):
    """Node cap exceeded during exploration."""


@dataclass(frozen=True)
class RegionNode(RegionResult):
    """An accepted region and its place in the tree: ``parent`` is the id of
    the node it was reached from by activating facet ``edge_label``."""

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


def _node(res: RegionResult, node_id: int, parent, edge_label) -> RegionNode:
    return RegionNode(res.active, res.law, res.region, res.duals, res.cache, node_id, parent, edge_label)


def _accept(tree: SolutionTree, batch: list, radius_threshold: float, node_cap: int) -> None:
    """Test every kept candidate of ``batch`` for emptiness as one stack, then
    append the non-empty ones to ``tree`` per parent, in candidate order."""
    empty = is_empty_stack(
        np.concatenate([stack.L for _, _, stack in batch]), np.concatenate([stack.l for _, _, stack in batch]),
        radius_threshold,
    )
    tree.stats.empty += int(empty.sum())
    for parent, fresh, stack in batch:
        parent_empty, empty = empty[: stack.kept.size], empty[stack.kept.size :]
        for position in stack.kept[~parent_empty]:
            tree.stats.discovered += 1
            if len(tree.nodes) >= node_cap:
                raise ResourceCap(f"node cap {node_cap} exceeded")
            res = stack.result(position)
            tree.index[res.active.bits] = len(tree.nodes)
            tree.nodes.append(_node(res, len(tree.nodes), parent.node_id, fresh[position]))


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
    Either way each parent's fresh candidates are solved as one stack; the
    stacks of consecutive parents, up to :data:`BATCH_BUDGET`, are tested for
    emptiness as one stack, and both variants accept the same candidates.
    Raises ``ValueError`` on an unknown variant, a NaN, infinite or negative
    ``radius_threshold``, or a NaN or negative ``eps``.
    """
    if variant not in VARIANTS:
        raise ValueError(f"variant must be one of {VARIANTS}")
    check_thresholds(radius_threshold, eps)

    tree = SolutionTree(cp.Dbar, cp.n, cp.m, cp.N, variant, radius_threshold)
    try:
        root = region_from_scratch(cp, ActiveSet(cp.Dbar), [-1]).result(0)
    except RegionRejected as exc:
        raise InfeasibleProblem(f"root region rejected: {exc.reason}") from exc
    if is_empty(Polytope(root.region.L, root.region.l), radius_threshold):
        raise InfeasibleProblem("root critical region is empty")
    tree.nodes.append(_node(root, 0, None, None))
    tree.index[root.active.bits] = 0

    seen = set(tree.index)  # bits of every candidate examined so far, accepted or not
    depth = cp.Dbar - cp.nbar_c  # Z has no columns here: every child would be singular
    stats = tree.stats
    batch, size = [], 0  # (parent, fresh, stack) of the pending parents; their candidate count
    for position, node in enumerate(tree.nodes):  # grows at each batch, so nodes are visited in BFS order
        if node.active.cardinality < depth:
            bits = node.active.bits
            candidates = candidate_indices(node.active)
            fresh = [i for i in candidates if bits | 1 << i not in seen]
            seen.update(bits | 1 << i for i in fresh)
            stats.examined += len(candidates)
            stats.dedup += len(candidates) - len(fresh)
            if fresh:
                if variant == "baseline":
                    batch.append((node, fresh, region_from_scratch(cp, node.active, fresh)))
                else:
                    batch.append((node, fresh, region_iterative(cp, node, fresh, eps)))
                stats.numerical += len(fresh) - batch[-1][2].kept.size
                size += len(fresh)
        # decide the batch once it fills the budget or no known node is left
        if batch and (size * cp.Dbar**2 >= BATCH_BUDGET or position + 1 == len(tree.nodes)):
            _accept(tree, batch, radius_threshold, node_cap)
            batch, size = [], 0  # frees the batch's stacks before the next batch
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
        "version": 2,
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
    """Rebuild a tree from :func:`export_json` output (laws/regions only;
    KKT caches and duals are not serialized; the ``ared`` lists of version-1
    files are ignored). A malformed file raises ``ValueError``, as does a
    node whose ``id`` is not its position or whose ``L``, ``l``, ``Ku`` or
    ``ku`` has the wrong shape or a NaN or inf."""
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
            tree.nodes.append(RegionNode(
                active, AffineLaw(arrays["Ku"], arrays["ku"]), CriticalRegion(arrays["L"], arrays["l"]),
                duals=None, cache=None, node_id=position, parent=nd["parent"], edge_label=nd["edge_label"],
            ))
            tree.index[active.bits] = position
        values = [a.ravel() for nd in tree.nodes for a in (nd.law.Ku, nd.law.ku, nd.region.L, nd.region.l)]
        if values and not np.isfinite(np.concatenate(values)).all():
            raise ValueError("malformed tree file: a law or region has a NaN or infinite entry")
    except (KeyError, TypeError, IndexError) as exc:
        raise ValueError(f"malformed tree file: {exc!r}") from exc
    return tree
