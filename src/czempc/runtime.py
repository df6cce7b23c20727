"""Online use of the explicit solution: point location, evaluation, simulation.

Point location searches the regions in discovery (BFS) order, a block of
stacked halfspaces at a time: the blocks hold 1, 4, 16, ... consecutive
regions, so a hit near the root costs one small matvec and a hit deep in the
tree O(log R) of them. Overlapping closed regions tie-break to the first hit
in BFS order.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

LOCATE_TOL = 1e-9
BLOCK_GROWTH = 4  # regions per point-location block: 1, 4, 16, 64, ...


class InfeasibleError(RuntimeError):
    """No critical region contains the queried parameter."""


@dataclass
class Trajectory:
    states: np.ndarray  # (steps + 1) x n
    inputs: np.ndarray  # steps x m
    costs: np.ndarray  # stage costs x'Qx + u'Ru


def _blocks(tree) -> list:
    """``(first node id, stacked L, stacked l)`` per block, cached on the tree.

    Each block stacks the rows of consecutive regions, which all have the
    same row count (see :func:`~czempc.explorer.import_json`); ``L`` is
    column-major, which makes its tall, thin matvec several times faster.
    Rebuilt when the tree's node count has changed since the last build.
    """
    cached = getattr(tree, "_locate_blocks", None)
    if cached is not None and cached[0] == len(tree.nodes):
        return cached[1]
    blocks = []
    first, size = 0, 1
    while first < len(tree.nodes):
        chunk = tree.nodes[first : first + size]
        L = np.asfortranarray(np.vstack([nd.region.L for nd in chunk]))
        l = np.concatenate([nd.region.l for nd in chunk])
        blocks.append((first, L, l))
        first += size
        size *= BLOCK_GROWTH
    tree._locate_blocks = (len(tree.nodes), blocks)
    return blocks


def locate(tree, x0, tol: float = LOCATE_TOL):
    """First node (BFS order) whose region contains ``x0``; None when outside."""
    x0 = np.asarray(x0, dtype=float).ravel()
    for first, L, l in _blocks(tree):
        inside = (L @ x0 <= l + tol).reshape(-1, tree.nodes[first].region.l.size).all(axis=1)
        k = int(inside.argmax())
        if inside[k]:
            return first + k
    return None


def evaluate(tree, x0) -> np.ndarray:
    """First input block ``u0`` of the located affine law."""
    node_id = locate(tree, x0)
    if node_id is None:
        raise InfeasibleError(f"x0 = {np.asarray(x0).ravel()} lies in no critical region")
    return tree.nodes[node_id].law(x0)[: tree.m]


def simulate(tree, A_d, B_d, Q, R, x0, steps: int) -> Trajectory:
    """Closed loop: apply the first input block and roll the dynamics forward.

    Raises ``ValueError`` on a negative ``steps``.
    """
    if steps < 0:
        raise ValueError(f"steps must be >= 0, got {steps}")
    A_d = np.atleast_2d(np.asarray(A_d, dtype=float))
    B_d = np.atleast_2d(np.asarray(B_d, dtype=float))
    Q = np.atleast_2d(np.asarray(Q, dtype=float))
    R = np.atleast_2d(np.asarray(R, dtype=float))
    x = np.asarray(x0, dtype=float).ravel()
    states = [x]
    inputs = []
    costs = []
    for k in range(steps):
        try:
            u = evaluate(tree, x)
        except InfeasibleError as exc:
            raise InfeasibleError(f"infeasible at step {k}: {exc}") from exc
        costs.append(float(x @ Q @ x + u @ R @ u))
        x = A_d @ x + B_d @ u
        inputs.append(u)
        states.append(x)
    return Trajectory(np.array(states), np.array(inputs).reshape(steps, B_d.shape[1]), np.array(costs))
