"""Online use of the explicit solution and the brute-force validation oracle.

Point location searches the regions in discovery (BFS) order, a block of
stacked halfspaces at a time: the blocks hold 1, 4, 16, ... consecutive
regions, so a hit near the root costs one small matvec and a hit deep in the
tree O(log R) of them. Overlapping closed regions tie-break to the first hit
in BFS order. The oracle solves the condensed QP by enumerating active
subsets of the polyhedral rows, entirely independent of the region
machinery, and is the ground truth for tests.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from czempc.condense import CondensedProblem, feasible_polytope
from czempc.sets import is_empty

LOCATE_TOL = 1e-9
BLOCK_GROWTH = 4  # regions per point-location block: 1, 4, 16, 64, ...


class InfeasibleError(RuntimeError):
    """No critical region contains the queried parameter."""


class CapExceeded(RuntimeError):
    """Active-subset enumeration would exceed the configured cap."""


@dataclass
class Trajectory:
    states: np.ndarray  # (steps + 1) x n
    inputs: np.ndarray  # steps x m
    costs: np.ndarray  # stage costs x'Qx + u'Ru


@dataclass
class OracleSolution:
    u_star: np.ndarray
    cost: float
    active_rows: tuple


def _blocks(tree) -> list:
    """``(first node id, stacked L, stacked l)`` per block, cached on the tree.

    Each block stacks the ``2 Dbar`` rows of consecutive regions; ``L`` is
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
    rows = 2 * tree.Dbar
    for first, L, l in _blocks(tree):
        inside = (L @ x0 <= l + tol).reshape(-1, rows).all(axis=1)
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
    return Trajectory(np.array(states), np.array(inputs), np.array(costs))


def _require_terminal_rows(cp: CondensedProblem) -> None:
    if not cp.poly_has_terminal:
        raise ValueError(
            "the polyhedral rows omit the terminal constraint (a terminal set with "
            "equality constraints has no facet form here)"
        )


def polyhedral_feasible(cp: CondensedProblem, x0, tol: float = 1e-9) -> bool:
    """Whether ``A u <= b + E x0`` has a solution: its Chebyshev radius is at least ``-tol``.

    Raises ``ValueError`` when the polyhedral rows lack the terminal
    constraint (``cp.poly_has_terminal`` is false), since the answer would
    then be for a larger feasible set.
    """
    _require_terminal_rows(cp)
    return not is_empty(feasible_polytope(cp, x0), -tol)


class ActiveSubsetOracle:
    """Exhaustive KKT enumeration over polyhedral active subsets.

    For each subset S of rows (|S| <= N m) the equality-KKT system is solved
    once for its affine dependence on x0, so repeated queries cost only
    batched matrix-vector products. Rows that do not involve u are checked as
    feasibility cuts on x0 alone. Raises ``ValueError`` when the polyhedral
    rows lack the terminal constraint (``cp.poly_has_terminal`` is false).
    """

    def __init__(self, cp: CondensedProblem, size_cap: int = 2_000_000, tol: float = 1e-7):
        _require_terminal_rows(cp)
        self.cp = cp
        self.tol = tol
        nu = cp.N * cp.m
        norms = np.linalg.norm(cp.A_poly, axis=1)
        rows = np.nonzero(norms > 1e-12)[0]
        self._const_rows = np.nonzero(norms <= 1e-12)[0]
        total = sum(math.comb(rows.size, k) for k in range(min(nu, rows.size) + 1))
        if total > size_cap:
            raise CapExceeded(f"{total} subsets exceed cap {size_cap}")
        Qt, Ht = cp.Qtilde, cp.Htilde
        self._groups = []  # per subset size: (subsets, Fu, gu, Fmu, gmu)
        for k in range(min(nu, rows.size) + 1):
            subsets, Fu, gu, Fmu, gmu = [], [], [], [], []
            for comb in itertools.combinations(rows.tolist(), k):
                S = list(comb)
                A_S = cp.A_poly[S]
                M = np.block([[Qt, A_S.T], [A_S, np.zeros((k, k))]])
                rhs_x = np.vstack([-Ht.T, cp.E_poly[S]])
                rhs_c = np.concatenate([np.zeros(nu), cp.b_poly[S]])
                try:
                    sol_x = np.linalg.solve(M, rhs_x)
                    sol_c = np.linalg.solve(M, rhs_c)
                except np.linalg.LinAlgError:
                    continue  # dependent rows; some other subset covers this face
                subsets.append(comb)
                Fu.append(sol_x[:nu])
                gu.append(sol_c[:nu])
                Fmu.append(sol_x[nu:])
                gmu.append(sol_c[nu:])
            if subsets:
                self._groups.append(
                    (subsets, np.array(Fu), np.array(gu), np.array(Fmu), np.array(gmu))
                )

    def solve(self, x0) -> OracleSolution | None:
        cp = self.cp
        x0 = np.asarray(x0, dtype=float).ravel()
        rhs = cp.b_poly + cp.E_poly @ x0
        if np.any(rhs[self._const_rows] < -self.tol):
            return None
        best = None
        for subsets, Fu, gu, Fmu, gmu in self._groups:
            u_all = Fu @ x0 + gu  # (S, nu)
            mu_all = Fmu @ x0 + gmu if Fmu.shape[1] else np.zeros((len(subsets), 0))
            feas = np.all(u_all @ cp.A_poly.T <= rhs + self.tol, axis=1)
            if mu_all.shape[1]:
                feas &= np.all(mu_all >= -self.tol, axis=1)
            if not feas.any():
                continue
            idx = np.nonzero(feas)[0]
            costs = 0.5 * np.einsum("si,ij,sj->s", u_all[idx], cp.Qtilde, u_all[idx])
            costs += (x0 @ cp.Htilde) @ u_all[idx].T
            kbest = idx[int(np.argmin(costs))]
            cand = OracleSolution(u_all[kbest], float(np.min(costs)), subsets[kbest])
            if best is None or cand.cost < best.cost - 1e-12:
                best = cand
        return best


def oracle_qp(cp: CondensedProblem, x0, size_cap: int = 2_000_000) -> OracleSolution | None:
    """Ground-truth QP solve by active-subset enumeration (cached per problem).

    Raises ``ValueError`` on a problem without polyhedral terminal rows.
    """
    oracle = getattr(cp, "_oracle", None)
    if oracle is None:
        oracle = ActiveSubsetOracle(cp, size_cap)
        cp._oracle = oracle
    return oracle.solve(x0)
