"""Correctness checks of czempc's outputs against the reference computations.

Trees are checked in their exported JSON form (active set, law ``Ku, ku`` and
region ``L, l`` per node), so no czempc region code takes part. Each check
returns a list of ``(kind, message)`` problems; an empty list is a pass.

``MISSING`` marks a region that another variant found, that the reference
Chebyshev LP shows to be nonempty, and that this tree lacks. It is the one
kind of problem a run may report without turning ``correct`` false: the
``iter`` explore of the ``cz-n1`` problem misses such a region today, through
a fault in ``lp.solve_lp``.
"""

from __future__ import annotations

import numpy as np

from reference import ReferenceMpc, chebyshev

MISSING = "missing-region"
LAW_TOL = 1e-6  # relative to 1 + |u|, the agreement asked of every variant
COEF_TOL = 1e-6
COVER_TOL = 1e-7  # on row-normalised region inequalities
INSIDE_DEPTH = 1e-6


def _nodes(tree_doc) -> dict:
    return {tuple(nd["active"]): nd for nd in tree_doc["nodes"]}


def _normalised(nd):
    L = np.asarray(nd["L"], dtype=float)
    l = np.asarray(nd["l"], dtype=float)
    norms = np.linalg.norm(L, axis=1)
    keep = norms > 1e-14
    return L[keep] / norms[keep, None], l[keep] / norms[keep], bool(np.all(l[~keep] >= -1e-12))


def depth(nodes, pts: np.ndarray) -> np.ndarray:
    """Per point, the least over regions of the most violated normalised row
    (negative: strictly inside some region)."""
    best = np.full(pts.shape[0], np.inf)
    for nd in nodes:
        L, l, ok = _normalised(nd)
        if not ok:
            continue
        best = np.minimum(best, np.max(pts @ L.T - l, axis=1, initial=-np.inf))
    return best


def law_problems(ref: ReferenceMpc, tree_doc, radius_threshold: float) -> list:
    """Each region must have an interior ball of at least ``radius_threshold``
    and, at its centre, the law must give the reference QP's optimal input."""
    out = []
    for nd in tree_doc["nodes"]:
        center, radius = chebyshev(nd["L"], nd["l"])
        if not radius >= radius_threshold:
            out.append(("empty-region", f"node {nd['id']} {nd['active']} radius {radius:.3e}"))
            continue
        u_ref = ref.solve(center)
        if u_ref is None:
            out.append(("infeasible-region", f"node {nd['id']} centre is infeasible for the reference QP"))
            continue
        u = np.asarray(nd["Ku"]) @ center + np.asarray(nd["ku"])
        err = float(np.max(np.abs(u - u_ref)))
        if err > LAW_TOL * (1.0 + float(np.max(np.abs(u_ref)))):
            out.append(("law", f"node {nd['id']} {nd['active']} law off by {err:.3e}"))
    return out


def node_set_problems(trees: dict, radius_threshold: float) -> dict:
    """Variants must return the same active sets with the same coefficients.
    An active set only one variant returns is settled by the reference
    Chebyshev LP on that variant's region."""
    nodes = {v: _nodes(t) for v, t in trees.items()}
    out = {v: [] for v in trees}
    variants = list(trees)
    for i, va in enumerate(variants):
        for vb in variants[i + 1 :]:
            for has, lacks in ((va, vb), (vb, va)):
                for key in sorted(set(nodes[has]) - set(nodes[lacks])):
                    _, radius = chebyshev(nodes[has][key]["L"], nodes[has][key]["l"])
                    if radius >= radius_threshold:
                        out[lacks].append((MISSING, f"{lacks} lacks {list(key)} that {has} finds; Chebyshev radius {radius:.4g}"))
                    else:
                        out[has].append(("empty-region", f"{has} keeps {list(key)}; Chebyshev radius {radius:.3e}"))
            for key in set(nodes[va]) & set(nodes[vb]):
                a, b = nodes[va][key], nodes[vb][key]
                err = max(float(np.max(np.abs(np.asarray(a[f]) - np.asarray(b[f])), initial=0.0)) for f in ("Ku", "ku", "L", "l"))
                if err > COEF_TOL:
                    msg = f"{va} and {vb} differ by {err:.3e} on {list(key)}"
                    out[va].append(("coefficients", msg))
                    out[vb].append(("coefficients", msg))
    return out


def coverage_problems(ref: ReferenceMpc, tree_doc, feasible_pts, probe_pts, excused_nodes=()) -> list:
    """Feasible samples must all lie in some region (unless they lie in a
    region already reported missing), and a probe strictly inside a region
    must be feasible for the reference LP."""
    out = []
    nodes = tree_doc["nodes"]
    lost = depth(nodes, feasible_pts) > COVER_TOL
    if excused_nodes and lost.any():
        lost &= depth(excused_nodes, feasible_pts) > COVER_TOL
    if lost.any():
        out.append(("coverage", f"{int(lost.sum())} of {len(feasible_pts)} feasible samples lie in no region, e.g. {feasible_pts[lost][0].tolist()}"))
    inside = depth(nodes, probe_pts) < -INSIDE_DEPTH
    bad = [x for x in probe_pts[inside] if not ref.feasible(x)]
    if bad:
        out.append(("infeasible-inside", f"{len(bad)} infeasible probes lie inside regions, e.g. {bad[0].tolist()}"))
    return out


def explore_problems(ref: ReferenceMpc, trees: dict, feasible_pts, probe_pts, radius_threshold: float) -> dict:
    """All explore checks for the trees of one round, keyed by variant."""
    out = node_set_problems(trees, radius_threshold)
    all_nodes = {v: _nodes(t) for v, t in trees.items()}
    for v, tree_doc in trees.items():
        own = all_nodes[v]
        excused = [nd for w in trees if w != v for key, nd in all_nodes[w].items() if key not in own]
        out[v] += law_problems(ref, tree_doc, radius_threshold)
        out[v] += coverage_problems(ref, tree_doc, feasible_pts, probe_pts, excused)
    return out


def eval_problem(ref: ReferenceMpc, x0, u0):
    """``u0`` must be the first input block of the reference QP's optimum."""
    u_ref = ref.solve(x0)
    if u_ref is None:
        return ("eval", f"x0 {x0.tolist()} is infeasible for the reference QP")
    u_ref = u_ref[: ref.m]
    err = float(np.max(np.abs(np.asarray(u0) - u_ref)))
    if err > LAW_TOL * (1.0 + float(np.max(np.abs(u_ref)))):
        return ("eval", f"evaluate at {x0.tolist()} off by {err:.3e}")
    return None


def sim_problem(ref: ReferenceMpc, states, inputs):
    """A closed-loop trajectory must stay in X and U."""
    for k, x in enumerate(states):
        if not ref.in_x(x):
            return ("simulate", f"state {k} leaves X: {np.asarray(x).tolist()}")
    for k, u in enumerate(inputs):
        if not ref.in_u(u):
            return ("simulate", f"input {k} leaves U: {np.asarray(u).tolist()}")
    return None
