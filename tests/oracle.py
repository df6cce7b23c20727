"""Test-side references for the solver, independent of the region machinery.

The package keeps one representation of the feasible domain, the constrained
zonotope in the lifted generator space. The brute-force QP oracle here works
on a second one, the half-space form ``A u <= b + E x0`` of the condensed QP,
which it builds from the ``MpcProblem`` itself with the prediction matrices;
only the cost ``0.5 u'Qt u + x0'Ht u`` comes from ``build_condensed_qp``. It
solves the QP by enumerating active subsets of those rows and is the ground
truth for the tests. Alongside it: the facet enumeration of zonotopes that
the rows need, membership and emptiness LPs of constrained zonotopes, and
the first-order KKT residuals of a region's lifted solution.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from czempc.condense import (
    TerminalRecurrence,
    build_condensed_qp,
    build_prediction_matrices,
    lqr_gain,
    resolve_terminal_set,
)
from czempc.linalg import null_space_qr
from czempc.lp import solve_lp
from czempc.sets import DimensionMismatch, Polytope, Zonotope, _as_cz, is_empty


class CapExceeded(RuntimeError):
    """Active-subset enumeration would exceed the configured cap."""


@dataclass
class OracleSolution:
    u_star: np.ndarray
    cost: float
    active_rows: tuple


def zonotope_halfspaces(Z: Zonotope) -> Polytope:
    """Facet (H-rep) enumeration of a full-dimensional zonotope.

    Every facet normal is orthogonal to some ``n - 1`` generators; offsets come
    from the closed-form support function. Intended for low ambient dimension.
    """
    n = Z.dim
    G = Z.G
    if n == 1:
        span = float(np.abs(G).sum())
        A = np.array([[1.0], [-1.0]])
        b = np.array([Z.c[0] + span, -Z.c[0] + span])
        return Polytope(A, b)
    rows = []
    seen = set()
    for comb in itertools.combinations(range(G.shape[1]), n - 1):
        normals = null_space_qr(G[:, comb].T)
        if normals.shape[1] != 1:
            continue  # degenerate combination
        eta = normals[:, 0]
        eta = eta / np.linalg.norm(eta)
        key = tuple(np.round(eta, 10))
        key_neg = tuple(np.round(-eta, 10))
        if key in seen or key_neg in seen:
            continue
        seen.add(key)
        span = float(np.abs(eta @ G).sum())
        rows.append((eta, eta @ Z.c + span))
        rows.append((-eta, -eta @ Z.c + span))
    if not rows:
        raise ValueError("zonotope is not full-dimensional; no facets found")
    A = np.vstack([r[0] for r in rows])
    b = np.array([r[1] for r in rows])
    return Polytope(A, b)


def cz_contains_point(Z, x, tol: float = 1e-9) -> bool:
    """Feasibility LP: exists ``xi`` with ``||xi||_inf <= 1``, ``F xi = theta``, ``c + G xi = x``."""
    Z = _as_cz(Z)
    x = np.asarray(x, dtype=float).ravel()
    if x.size != Z.dim:
        raise DimensionMismatch("point dimension mismatch")
    A_eq = np.vstack([Z.G, Z.F])
    b_eq = np.concatenate([x - Z.c, Z.theta])
    res = solve_lp(np.zeros(Z.num_generators), A_eq=A_eq, b_eq=b_eq, lb=-1.0, ub=1.0, tol=tol)
    return res.status == "optimal"


def cz_is_empty(Z) -> bool:
    Z = _as_cz(Z)
    res = solve_lp(np.zeros(Z.num_generators), A_eq=Z.F, b_eq=Z.theta, lb=-1.0, ub=1.0)
    return res.status != "optimal"


def _terminal_halfspaces(problem, HX: Polytope, HU: Polytope) -> tuple:
    """Rows ``H x_N <= h`` of the terminal set.

    A zonotope gives its facets. The invariant-set recurrence gives the rows
    ``H0 M^j`` with offsets ``h0`` for ``j < gT / (gX + gU)``, where
    ``H0 = [H_X; H_U K]``, ``h0 = [h_X; h_U]`` and ``M = A + B K``: step ``j``
    of the recurrence adds the ``gX + gU`` generators of ``{x : M^j x in
    Omega_0}``. Any other terminal set with equality constraints raises
    ``ValueError`` (facet enumeration of a general CZ is out of scope).
    """
    T = resolve_terminal_set(problem)
    if isinstance(problem.T, TerminalRecurrence):
        K = problem.T.K
        if isinstance(K, str):
            K = lqr_gain(problem.A_d, problem.B_d, problem.Q, problem.R)
        K = np.atleast_2d(np.asarray(K, dtype=float))
        M = problem.A_d + problem.B_d @ K
        rows = [np.vstack([HX.A, HU.A @ K])]
        for _ in range(T.num_generators // (problem.X.num_generators + problem.U.num_generators) - 1):
            rows.append(rows[-1] @ M)
        h0 = np.concatenate([HX.b, HU.b])
        return np.vstack(rows), np.tile(h0, len(rows))
    if T.num_constraints:
        raise ValueError(
            "a terminal set with equality constraints has no facet form here "
            "(only zonotopes and the invariant-set recurrence do)"
        )
    HT = zonotope_halfspaces(Zonotope(T.c, T.G))
    return HT.A, HT.b


def polyhedral_rows(problem) -> tuple:
    """Stacked H-rep ``(A, b, E)`` of the feasible domain, ``A u <= b + E x0``.

    Row order: state constraints for stages 0..N-1, input constraints for
    stages 0..N-1, then the terminal rows of :func:`_terminal_halfspaces`.
    The state and input sets must be full-dimensional.
    """
    n, m, N = problem.n, problem.m, problem.N
    pred = build_prediction_matrices(problem.A_d, problem.B_d, N)
    HX = zonotope_halfspaces(problem.X)
    HU = zonotope_halfspaces(problem.U)

    A_rows, b_rows, E_rows = [], [], []
    for i in range(N):  # x_i = A^i x0 + (block row i of Btilde_0N1) u
        A_rows.append(HX.A @ pred.Btilde_0N1[i * n : (i + 1) * n, :])
        b_rows.append(HX.b)
        E_rows.append(-HX.A @ pred.Atilde_0N1[i * n : (i + 1) * n, :])
    for i in range(N):
        sel = np.zeros((m, N * m))
        sel[:, i * m : (i + 1) * m] = np.eye(m)
        A_rows.append(HU.A @ sel)
        b_rows.append(HU.b)
        E_rows.append(np.zeros((HU.A.shape[0], n)))
    HT_A, HT_b = _terminal_halfspaces(problem, HX, HU)
    A_rows.append(HT_A @ pred.Btilde_N)
    b_rows.append(HT_b)
    E_rows.append(-HT_A @ pred.Atilde_N)
    return np.vstack(A_rows), np.concatenate(b_rows), np.vstack(E_rows)


def polyhedral_feasible(problem, x0, tol: float = 1e-9) -> bool:
    """Whether ``A u <= b + E x0`` has a solution: its Chebyshev radius is at
    least ``-tol``. Raises ``ValueError`` where :func:`polyhedral_rows` does."""
    A, b, E = polyhedral_rows(problem)
    return not is_empty(Polytope(A, b + E @ np.asarray(x0, dtype=float).ravel()), -tol)


class ActiveSubsetOracle:
    """Exhaustive KKT enumeration over polyhedral active subsets.

    For each subset S of rows (|S| <= N m) the equality-KKT system is solved
    once for its affine dependence on x0, so repeated queries cost only
    batched matrix-vector products. Rows that do not involve u are checked as
    feasibility cuts on x0 alone. Raises ``ValueError`` where
    :func:`polyhedral_rows` does.
    """

    def __init__(self, problem, size_cap: int = 2_000_000, tol: float = 1e-7):
        self.A, self.b, self.E = polyhedral_rows(problem)
        cp = build_condensed_qp(problem)
        self.Qtilde, self.Htilde = cp.Qtilde, cp.Htilde
        self.tol = tol
        nu = problem.N * problem.m
        norms = np.linalg.norm(self.A, axis=1)
        rows = np.nonzero(norms > 1e-12)[0]
        self._const_rows = np.nonzero(norms <= 1e-12)[0]
        total = sum(math.comb(rows.size, k) for k in range(min(nu, rows.size) + 1))
        if total > size_cap:
            raise CapExceeded(f"{total} subsets exceed cap {size_cap}")
        Qt, Ht = self.Qtilde, self.Htilde
        self._groups = []  # per subset size: (subsets, Fu, gu, Fmu, gmu)
        for k in range(min(nu, rows.size) + 1):
            subsets, Fu, gu, Fmu, gmu = [], [], [], [], []
            for comb in itertools.combinations(rows.tolist(), k):
                S = list(comb)
                A_S = self.A[S]
                M = np.block([[Qt, A_S.T], [A_S, np.zeros((k, k))]])
                rhs_x = np.vstack([-Ht.T, self.E[S]])
                rhs_c = np.concatenate([np.zeros(nu), self.b[S]])
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
        x0 = np.asarray(x0, dtype=float).ravel()
        rhs = self.b + self.E @ x0
        if np.any(rhs[self._const_rows] < -self.tol):
            return None
        best = None
        for subsets, Fu, gu, Fmu, gmu in self._groups:
            u_all = Fu @ x0 + gu  # (S, nu)
            mu_all = Fmu @ x0 + gmu if Fmu.shape[1] else np.zeros((len(subsets), 0))
            feas = np.all(u_all @ self.A.T <= rhs + self.tol, axis=1)
            if mu_all.shape[1]:
                feas &= np.all(mu_all >= -self.tol, axis=1)
            if not feas.any():
                continue
            idx = np.nonzero(feas)[0]
            costs = 0.5 * np.einsum("si,ij,sj->s", u_all[idx], self.Qtilde, u_all[idx])
            costs += (x0 @ self.Htilde) @ u_all[idx].T
            kbest = idx[int(np.argmin(costs))]
            cand = OracleSolution(u_all[kbest], float(np.min(costs)), subsets[kbest])
            if best is None or cand.cost < best.cost - 1e-12:
                best = cand
        return best


_ORACLES = {}  # id(problem) -> (problem, oracle); holding the problem keeps its id unique


def oracle_for(problem, size_cap: int = 2_000_000) -> ActiveSubsetOracle:
    """The :class:`ActiveSubsetOracle` of ``problem``, built on first use and
    cached for the rest of the test run."""
    if id(problem) not in _ORACLES:
        _ORACLES[id(problem)] = (problem, ActiveSubsetOracle(problem, size_cap))
    return _ORACLES[id(problem)][1]


def oracle_qp(problem, x0, size_cap: int = 2_000_000) -> OracleSolution | None:
    """Ground-truth QP solve by active-subset enumeration; ``None`` when
    ``x0`` is infeasible. Raises ``ValueError`` where :func:`polyhedral_rows`
    does."""
    return oracle_for(problem, size_cap).solve(x0)


def kkt_residuals(cp, active, x0, xi, duals) -> dict:
    """First-order residuals of the lifted QP at ``x0`` for the primal point
    ``xi`` and the multipliers ``duals = [lambda; mu_A]`` of the active facet
    set ``active``: stationarity, primal equality/inequality,
    complementarity."""
    x0 = np.asarray(x0, dtype=float).ravel()
    lam, mu_a = duals[: cp.nbar_c], duals[cp.nbar_c :]
    Y_A = cp.Y[list(active.indices)]
    stationarity = cp.GQG @ xi + cp.GQc + cp.GHt @ x0 + cp.F_D.T @ lam + Y_A.T @ mu_a
    primal_eq = cp.F_D @ xi - cp.theta1_D - cp.theta2_D @ x0
    slack = cp.Y @ xi - 1.0
    mu_full = np.zeros(2 * cp.Dbar)
    mu_full[list(active.indices)] = mu_a
    return {
        "stationarity": float(np.max(np.abs(stationarity), initial=0.0)),
        "primal_eq": float(np.max(np.abs(primal_eq), initial=0.0)),
        "primal_ineq": float(np.max(slack, initial=-np.inf)),
        "complementarity": float(np.max(np.abs(mu_full * slack), initial=0.0)),
    }
