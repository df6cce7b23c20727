"""Condense a linear MPC problem into its multi-parametric QP.

The stacked-input cost ``0.5 u'Qt u + x0'Ht u`` is built by eliminating the
predicted states. The feasible domain is a constrained zonotope in the
lifted generator space: the decision variable ``xi`` ranges over a hypercube
intersected with an affine subspace parameterized by ``x0``, and
``u = c_D + G_D xi``. No half-space form of it is built, so lower-dimensional
state, input and terminal sets need no facets.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from czempc.sets import (
    ConstrainedZonotope,
    DimensionMismatch,
    Zonotope,
    affine_map,
    intersect,
    generalized_intersect,
    support,
)


class NotPositiveDefinite(ValueError):
    """A weight matrix fails its (semi)definiteness requirement."""


class NotStable(ValueError):
    """The closed-loop matrix of the terminal recurrence is not Schur stable."""


class NotInvertible(ValueError):
    """The closed-loop matrix of the terminal recurrence is singular."""


class NotConverged(ValueError):
    """The Riccati iteration or the terminal-set recurrence hit its iteration cap."""


@dataclass(frozen=True)
class TerminalRecurrence:
    """Directive to build the terminal set from the invariant-set recurrence."""

    K: np.ndarray | str = "lqr"  # stabilizing gain or the string "lqr"
    max_iter: int = 50
    tol: float = 1e-8


@dataclass(frozen=True)
class MpcProblem:
    A_d: np.ndarray
    B_d: np.ndarray
    Q: np.ndarray
    R: np.ndarray
    S: np.ndarray
    N: int
    X: Zonotope
    U: Zonotope
    T: ConstrainedZonotope | TerminalRecurrence

    def __post_init__(self):
        for name in ("A_d", "B_d", "Q", "R", "S"):
            object.__setattr__(self, name, np.atleast_2d(np.asarray(getattr(self, name), dtype=float)))
        n = self.A_d.shape[0]
        m = self.B_d.shape[1]
        if self.A_d.shape != (n, n) or self.B_d.shape[0] != n:
            raise DimensionMismatch("A_d must be square and match B_d rows")
        if self.Q.shape != (n, n) or self.S.shape != (n, n) or self.R.shape != (m, m):
            raise DimensionMismatch("weight matrices must match state/input dimensions")
        if self.N < 1:
            raise ValueError("horizon N must be >= 1")
        if self.X.dim != n or self.U.dim != m:
            raise DimensionMismatch("state/input sets must match system dimensions")
        _check_psd(self.Q, "Q", strict=False)
        _check_psd(self.R, "R", strict=True)
        _check_psd(self.S, "S", strict=True)

    @property
    def n(self) -> int:
        return self.A_d.shape[0]

    @property
    def m(self) -> int:
        return self.B_d.shape[1]


@dataclass(frozen=True)
class PredictionMatrices:
    """State predictions: x_[0:N-1] = Atilde_0N1 x0 + Btilde_0N1 u, x_N likewise."""

    Atilde_0N1: np.ndarray  # (N n) x n
    Atilde_N: np.ndarray  # n x n
    Btilde_0N1: np.ndarray  # (N n) x (N m), strictly block lower triangular
    Btilde_N: np.ndarray  # n x (N m)


@dataclass
class CondensedProblem:
    """All data of the condensed mpQP and its lifted CZ formulation."""

    n: int
    m: int
    N: int
    Qtilde: np.ndarray  # (N m) x (N m), PD
    Htilde: np.ndarray  # n x (N m)
    c_D: np.ndarray  # N m
    G_D: np.ndarray  # (N m) x Dbar
    F_D: np.ndarray  # nbar_c x Dbar
    theta1_D: np.ndarray  # nbar_c
    theta2_D: np.ndarray  # nbar_c x n
    Dbar: int
    nbar_c: int
    Y: np.ndarray  # 2 Dbar x Dbar, stacked [I; -I]
    terminal: ConstrainedZonotope
    # cached products used throughout the region solver
    GQG: np.ndarray = field(init=False)  # G_D' Qt G_D
    GQc: np.ndarray = field(init=False)  # G_D' Qt c_D
    GHt: np.ndarray = field(init=False)  # G_D' Ht'

    def __post_init__(self):
        self.GQG = self.G_D.T @ self.Qtilde @ self.G_D
        self.GQc = self.G_D.T @ (self.Qtilde @ self.c_D)
        self.GHt = self.G_D.T @ self.Htilde.T

    def objective(self, u: np.ndarray, x0: np.ndarray) -> float:
        """Condensed cost 0.5 u'Qt u + x0'Ht u (constant-in-x0 terms dropped)."""
        u = np.asarray(u, dtype=float).ravel()
        x0 = np.asarray(x0, dtype=float).ravel()
        return float(0.5 * u @ self.Qtilde @ u + x0 @ self.Htilde @ u)

    def objective_xi(self, xi: np.ndarray, x0: np.ndarray) -> float:
        """Lifted cost; agrees with :meth:`objective` at ``u = c_D + G_D xi``."""
        xi = np.asarray(xi, dtype=float).ravel()
        x0 = np.asarray(x0, dtype=float).ravel()
        return float(
            0.5 * xi @ self.GQG @ xi
            + self.GQc @ xi
            + x0 @ (self.GHt.T @ xi)
            + x0 @ self.Htilde @ self.c_D
            + 0.5 * self.c_D @ self.Qtilde @ self.c_D
        )


def _check_psd(M: np.ndarray, name: str, strict: bool, tol: float = 1e-10) -> None:
    if not np.allclose(M, M.T, atol=1e-12):
        raise NotPositiveDefinite(f"{name} must be symmetric")
    eig = np.linalg.eigvalsh(M)
    if strict and eig.min() <= tol:
        raise NotPositiveDefinite(f"{name} must be positive definite (min eig {eig.min():.3e})")
    if not strict and eig.min() < -tol:
        raise NotPositiveDefinite(f"{name} must be positive semidefinite (min eig {eig.min():.3e})")


def build_prediction_matrices(A_d, B_d, N: int) -> PredictionMatrices:
    A_d = np.atleast_2d(np.asarray(A_d, dtype=float))
    B_d = np.atleast_2d(np.asarray(B_d, dtype=float))
    n, m = B_d.shape
    if N < 1:
        raise ValueError("horizon N must be >= 1")
    powers = [np.eye(n)]
    for _ in range(N):
        powers.append(A_d @ powers[-1])
    Atilde = np.vstack(powers[:N])
    Btilde = np.zeros((N * n, N * m))
    for i in range(1, N):  # block row i depends on inputs 0..i-1
        for j in range(i):
            Btilde[i * n : (i + 1) * n, j * m : (j + 1) * m] = powers[i - j - 1] @ B_d
    Btilde_N = np.hstack([powers[N - 1 - j] @ B_d for j in range(N)])
    return PredictionMatrices(Atilde, powers[N], Btilde, Btilde_N)


def lqr_gain(A_d, B_d, Q, R, tol: float = 1e-10, max_iter: int = 10_000) -> np.ndarray:
    """Infinite-horizon LQR gain ``K`` (u = K x) from the structure-preserving
    doubling algorithm for the discrete Riccati equation.

    From ``A_0 = A_d``, ``G_0 = B_d R^{-1} B_d'`` and ``H_0 = Q``, each step
    sets ``W = I + G H`` and

        A <- A W^{-1} A,   G <- G + A W^{-1} G A',   H <- H + A' H W^{-1} A,

    so that ``H`` after k steps is the Riccati iterate of ``2^k`` steps. It
    stops once ``H`` moves by less than ``tol`` and raises
    :class:`NotConverged` when that has not happened after ``max_iter``
    steps. Background: Anderson, Int. J. Control 1978.
    """
    A_d = np.atleast_2d(np.asarray(A_d, dtype=float))
    B_d = np.atleast_2d(np.asarray(B_d, dtype=float))
    Q = np.atleast_2d(np.asarray(Q, dtype=float))
    R = np.atleast_2d(np.asarray(R, dtype=float))
    A, G, H = A_d, B_d @ np.linalg.solve(R, B_d.T), Q
    I = np.eye(A_d.shape[0])
    for _ in range(max_iter):
        W = I + G @ H
        WA, WG = np.linalg.solve(W, A), np.linalg.solve(W, G)
        H_next = H + A.T @ H @ WA
        A, G = A @ WA, G + A @ WG @ A.T
        if np.max(np.abs(H_next - H)) < tol:
            H = H_next
            break
        H = H_next
    else:
        raise NotConverged(f"Riccati doubling did not converge in {max_iter} steps")
    BtP = B_d.T @ H
    return -np.linalg.solve(R + BtP @ B_d, BtP @ A_d)


def build_terminal_set(A_d, B_d, K, X: Zonotope, U: Zonotope, max_iter: int = 50, tol: float = 1e-8) -> ConstrainedZonotope:
    """Invariant terminal set from ``Omega_{k+1} = (A+BK)^{-1} Omega_k  ∩  Omega_0``.

    ``Omega_0 = {x in X : K x in U}`` couples the state box with the input box
    through the gain. Iteration stops once the support values along the 2n
    axis directions settle within ``tol``; raises :class:`NotConverged` when
    they have not settled after ``max_iter`` steps and
    :class:`DimensionMismatch` unless ``K`` is m x n.
    """
    A_d = np.atleast_2d(np.asarray(A_d, dtype=float))
    B_d = np.atleast_2d(np.asarray(B_d, dtype=float))
    K = np.atleast_2d(np.asarray(K, dtype=float))
    n = A_d.shape[0]
    if K.shape != (B_d.shape[1], n):
        raise DimensionMismatch(f"gain K has shape {K.shape}, expected {(B_d.shape[1], n)}")
    M = A_d + B_d @ K
    if abs(np.linalg.det(M)) < 1e-12:
        raise NotInvertible("A_d + B_d K is singular")
    if np.max(np.abs(np.linalg.eigvals(M))) >= 1.0:
        raise NotStable("A_d + B_d K is not Schur stable")
    Minv = np.linalg.inv(M)
    omega0 = generalized_intersect(X.to_cz(), K, U.to_cz())
    dirs = np.vstack([np.eye(n), -np.eye(n)])
    omega = omega0
    sup = support(omega, dirs)
    for _ in range(max_iter):
        candidate = intersect(affine_map(np.zeros(n), Minv, omega), omega0)
        sup_next = support(candidate, dirs)
        omega = candidate
        if np.max(np.abs(sup_next - sup)) < tol:
            return omega
        sup = sup_next
    raise NotConverged(f"terminal-set recurrence did not converge in {max_iter} steps")


def resolve_terminal_set(p: MpcProblem) -> ConstrainedZonotope:
    if isinstance(p.T, TerminalRecurrence):
        K = p.T.K
        if isinstance(K, str):
            if K != "lqr":
                raise ValueError(f"unknown gain directive {K!r}")
            K = lqr_gain(p.A_d, p.B_d, p.Q, p.R)
        return build_terminal_set(p.A_d, p.B_d, K, p.X, p.U, p.T.max_iter, p.T.tol)
    if isinstance(p.T, Zonotope):
        return p.T.to_cz()
    return p.T


def build_condensed_qp(p: MpcProblem) -> CondensedProblem:
    n, m, N = p.n, p.m, p.N
    T = resolve_terminal_set(p)
    if T.dim != n:
        raise DimensionMismatch("terminal set must live in the state space")
    pred = build_prediction_matrices(p.A_d, p.B_d, N)
    Qbar = np.kron(np.eye(N), p.Q)
    Rbar = np.kron(np.eye(N), p.R)

    Qt = 2.0 * (pred.Btilde_0N1.T @ Qbar @ pred.Btilde_0N1 + Rbar + pred.Btilde_N.T @ p.S @ pred.Btilde_N)
    Ht = 2.0 * (pred.Atilde_0N1.T @ Qbar @ pred.Btilde_0N1 + pred.Atilde_N.T @ p.S @ pred.Btilde_N)
    if np.linalg.eigvalsh(0.5 * (Qt + Qt.T)).min() <= 0:
        raise NotPositiveDefinite("condensed Hessian is not positive definite")

    gX, gU, gT = p.X.num_generators, p.U.num_generators, T.num_generators
    cT = T.num_constraints
    Dbar = N * (gX + gU) + gT
    nbar_c = (N + 1) * n + cT

    IGU = np.kron(np.eye(N), p.U.G)
    c_D = np.kron(np.ones(N), p.U.c)
    G_D = np.hstack([IGU, np.zeros((N * m, N * gX + gT))])

    F_D = np.block(
        [
            [pred.Btilde_0N1 @ IGU, -np.kron(np.eye(N), p.X.G), np.zeros((N * n, gT))],
            [pred.Btilde_N @ IGU, np.zeros((n, N * gX)), -T.G],
            [np.zeros((cT, N * gU)), np.zeros((cT, N * gX)), T.F],
        ]
    )
    Btilde_full = np.vstack([pred.Btilde_0N1, pred.Btilde_N])
    Atilde_full = np.vstack([pred.Atilde_0N1, pred.Atilde_N])
    theta1 = np.concatenate([np.kron(np.ones(N), p.X.c), T.c, T.theta])
    theta1 -= np.vstack([Btilde_full, np.zeros((cT, N * m))]) @ c_D
    theta2 = -np.vstack([Atilde_full, np.zeros((cT, n))])

    Y = np.vstack([np.eye(Dbar), -np.eye(Dbar)])
    return CondensedProblem(
        n=n,
        m=m,
        N=N,
        Qtilde=Qt,
        Htilde=Ht,
        c_D=c_D,
        G_D=G_D,
        F_D=F_D,
        theta1_D=theta1,
        theta2_D=theta2,
        Dbar=Dbar,
        nbar_c=nbar_c,
        Y=Y,
        terminal=T,
    )


NEVER_BINDS_MARGIN = 1e-6  # a coordinate never binds when both its maxima stay below 1 - this


def never_binding(cp: CondensedProblem) -> np.ndarray:
    """The lifted coordinates ``E`` whose facets ``±xi_i <= 1`` are active at
    no feasible point, for no x0, and that the cost does not read.

    ``theta2_D`` has rank n (its first block is -I), so the rows ``P`` of
    its left null space project x0 out: every feasible xi lies in the
    constrained zonotope ``{xi : P F_D xi = P theta1_D, |xi| <= 1}``.
    Coordinate i is in ``E`` when column i of ``G_D`` is zero and both
    supports of that set along ``±e_i``, one :func:`~czempc.sets.support`
    stack, stay below ``1 - NEVER_BINDS_MARGIN``. An empty set (the supports
    are ``-inf``) eliminates nothing. A coordinate that reaches 1 on one
    side only stays out of ``E``.
    """
    P = np.linalg.svd(cp.theta2_D, full_matrices=True)[0][:, cp.n :].T
    free = np.flatnonzero(~cp.G_D.any(axis=0))
    I = np.eye(cp.Dbar)
    lifted = ConstrainedZonotope(np.zeros(cp.Dbar), I, P @ cp.F_D, P @ cp.theta1_D)
    reach = support(lifted, np.vstack([I[free], -I[free]]))  # rows: maximise xi_i, then -xi_i
    if np.isneginf(reach).any():
        return np.arange(0)
    return free[np.maximum(reach[: free.size], reach[free.size :]) < 1.0 - NEVER_BINDS_MARGIN]


def eliminate(cp: CondensedProblem, E: np.ndarray) -> tuple:
    """The problem over the other lifted coordinates ``R``, for the set ``E``
    of :func:`never_binding`; returns it and ``R``.

    With ``W`` an orthonormal basis of ``null(F_E')``, ``F_D xi = theta``
    splits into ``W' F_R xi_R = W' theta`` and one ``xi_E`` for each
    ``xi_R``: ``F_E`` has full column rank, since a null direction would let
    some E coordinate reach ±1. The box bounds of ``xi_E`` never bind and
    ``G_D`` does not read ``xi_E``, so the problem with ``F' = W' F_R``,
    ``theta' = W' theta`` and ``G_D' = G_D[:, R]`` has the same laws,
    multipliers and critical regions for every active set over ``R``. An
    empty ``E`` gives ``W = I`` and ``cp``'s own data.
    """
    R = np.setdiff1d(np.arange(cp.Dbar), E)
    W = np.linalg.svd(cp.F_D[:, E], full_matrices=True)[0][:, E.size :]
    reduced = replace(
        cp, G_D=cp.G_D[:, R], F_D=W.T @ cp.F_D[:, R], theta1_D=W.T @ cp.theta1_D, theta2_D=W.T @ cp.theta2_D,
        Dbar=R.size, nbar_c=W.shape[1], Y=np.vstack([np.eye(R.size), -np.eye(R.size)]),
    )
    return reduced, R
