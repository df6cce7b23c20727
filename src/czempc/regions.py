"""Critical region and affine law for a candidate active set.

Each active set over the lifted hypercube facets yields (when accepted) an
affine control law and a polyhedral critical region, obtained from the
second-order KKT system of the lifted QP. Regions can be computed from
scratch (one SVD for the null basis, a dense inverse) or by the low-rank
updates that track a single constraint insertion; either way all children of
one parent are solved as one stack, and the multipliers are read off the KKT
inverse.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from czempc.condense import CondensedProblem
from czempc.linalg import (  # noqa: F401 (perfbench/spans.py traces null_space_qr and the dense updates by these names)
    greville_append_row_pinv,
    null_space_qr,
    sparse_null_basis,
    woodbury_rank2_inverse_update,
    woodbury_rank2_update,
)

PD_PIVOT_TOL = 1e-10
SVD_RTOL = 1e-11  # rank test of T: smallest singular value against the largest
PIVOT_TOL = 1e-12  # a child's row z = y_i Zp vanishes when no entry exceeds this in size
ARED_TOL = 1e-8


class RegionRejected(Exception):
    """Candidate active set rejected; ``reason`` is one of

    - ``second_order``: reduced Hessian not positive definite,
    - ``singular``: the KKT matrix (or its low-rank update factor) is singular.
    """

    def __init__(self, reason: str):
        super().__init__(reason)
        self.reason = reason


@dataclass(frozen=True)
class ActiveSet:
    """Subset of the ``2 Dbar`` hypercube facet constraints (0-based indices).

    Index ``i < Dbar`` is the facet ``xi_i <= 1``; index ``i + Dbar`` is
    ``-xi_i <= 1``. A pair can never be simultaneously active.
    """

    dbar: int
    indices: tuple = ()

    def __post_init__(self):
        idx = tuple(sorted(int(i) for i in self.indices))
        if idx and (idx[0] < 0 or idx[-1] >= 2 * self.dbar):
            raise IndexError("active index out of range")
        if len(set(idx)) != len(idx):
            raise ValueError("duplicate active index")
        lower = {i for i in idx if i < self.dbar}
        if any(i - self.dbar in lower for i in idx if i >= self.dbar):
            raise ValueError("both facets of a pair cannot be active")
        object.__setattr__(self, "indices", idx)

    @property
    def cardinality(self) -> int:
        return len(self.indices)

    @property
    def bits(self) -> int:
        mask = 0
        for i in self.indices:
            mask |= 1 << i
        return mask

    def contains(self, i: int) -> bool:
        return i in self.indices

    def with_index(self, i: int) -> "ActiveSet":
        return ActiveSet(self.dbar, self.indices + (int(i),))

    def inactive(self) -> np.ndarray:
        mask = np.ones(2 * self.dbar, dtype=bool)
        mask[list(self.indices)] = False
        return np.nonzero(mask)[0]


@dataclass(frozen=True)
class AffineLaw:
    """Stacked-input law ``u*(x0) = Ku x0 + ku``."""

    Ku: np.ndarray
    ku: np.ndarray

    def __call__(self, x0: np.ndarray) -> np.ndarray:
        return self.Ku @ np.asarray(x0, dtype=float).ravel() + self.ku


@dataclass(frozen=True)
class CriticalRegion:
    """Polyhedron ``{x0 : L x0 <= l}``: the ``2 Dbar - k`` inactive facets
    in increasing order, then the ``k`` multipliers of the active set, over
    the ``Dbar`` coordinates the region was solved in."""

    L: np.ndarray
    l: np.ndarray

    def contains(self, x0: np.ndarray, tol: float = 1e-9) -> bool:
        return bool(np.all(self.L @ np.asarray(x0, dtype=float).ravel() <= self.l + tol))

    def margin(self, x0: np.ndarray) -> float:
        """Most violated row value; negative means strictly inside."""
        return float(np.max(self.L @ np.asarray(x0, dtype=float).ravel() - self.l))


@dataclass(frozen=True)
class RegionResult:
    """One solved candidate: its law and region, and the KKT factors that
    ``region_iterative`` updates into its children: ``Z`` (Dbar x k), the
    basis of null([F_D; Y_A]), and ``Kinv`` (Dbar x Dbar)."""

    active: ActiveSet
    law: AffineLaw
    region: CriticalRegion
    Z: np.ndarray
    Kinv: np.ndarray


def _positive_definite(H: np.ndarray) -> np.ndarray:
    """Per matrix of the stack ``H`` (B, k, k): whether the Cholesky
    factorization of its symmetric part exists with every pivot above
    ``PD_PIVOT_TOL``."""
    H = 0.5 * (H + H.swapaxes(1, 2))
    try:
        C = np.linalg.cholesky(H)
    except np.linalg.LinAlgError:  # some matrix fails: find which, one by one
        if len(H) == 1:
            return np.zeros(1, dtype=bool)
        return np.array([_positive_definite(h[None])[0] for h in H], dtype=bool)
    return np.diagonal(C, axis1=1, axis2=2).min(axis=1, initial=np.inf) ** 2 > PD_PIVOT_TOL


@dataclass
class RegionStack:
    """Candidate regions of one parent, solved as one stack.

    Position ``p`` of the candidates is active set ``base + {added[p]}``
    (just ``base`` where ``added[p] < 0``). ``reasons[p]`` is the rejection
    reason of a candidate, or None; ``kept`` lists the positions that passed,
    and every stack below holds those, in the same order. ``Kinv`` is an
    array or a factored update: either takes ``@`` per item from both sides
    and ``[i]`` for a dense item. ``u[i] @ [1; x0]`` is the law and
    ``S[i] @ [1; x0]`` the duals ``[lambda; mu_A]``; ``L``/``l`` are the
    region rows the emptiness test reads.
    """

    cp: CondensedProblem
    base: ActiveSet
    added: np.ndarray
    reasons: list
    kept: np.ndarray
    Z: np.ndarray
    Kinv: object
    kappa: np.ndarray
    u: np.ndarray
    S: np.ndarray
    L: np.ndarray
    l: np.ndarray

    def result(self, position: int) -> RegionResult:
        """The region of candidate ``position``, copied out of the stack;
        raises :class:`RegionRejected` for a rejected candidate."""
        if self.reasons[position] is not None:
            raise RegionRejected(self.reasons[position])
        i = int(np.searchsorted(self.kept, position))
        added = int(self.added[position])
        active = self.base.with_index(added) if added >= 0 else self.base
        law = AffineLaw(self.u[i, :, 1:].copy(), self.u[i, :, 0].copy())
        region = CriticalRegion(self.L[i].copy(), self.l[i].copy())
        return RegionResult(active, law, region, self.Z[i].copy(), np.array(self.Kinv[i]))


def _finish(cp: CondensedProblem, base, added, reasons, kept, Z, Kinv, inactive) -> RegionStack:
    """Laws, duals and region rows of a stack of KKT systems.

    ``Z`` (B, Dbar, k), the inverses ``Kinv`` and the inactive facet indices
    ``inactive`` (B, 2 Dbar - n_A) belong to the kept candidates. Every map
    is affine in ``x0`` and is carried as one matrix with the constant in
    column 0.
    """
    B, k, nc, n = Z.shape[0], Z.shape[2], cp.nbar_c, cp.n
    # right-hand side [-Z'(GQc + GHt x0); theta_D(x0); 1] of the KKT system
    kappa = np.zeros((B, cp.Dbar, n + 1))
    kappa[:, :k, 0] = -(cp.GQc @ Z)
    kappa[:, :k, 1:] = -(Z.swapaxes(1, 2) @ cp.GHt)
    kappa[:, k : k + nc, 0] = cp.theta1_D
    kappa[:, k : k + nc, 1:] = cp.theta2_D
    kappa[:, k + nc :, 0] = 1.0
    Kk = Kinv @ kappa
    u = cp.G_D @ Kk
    u[:, :, 0] += cp.c_D
    # stationarity grad + T [lambda; mu_A] = 0 with T = [F_D' Y_A']: the rows
    # k: of K = [Z'GQG; T'] give T' Kinv[:, k:] = I, and Z'grad = 0 puts grad
    # in range(T), so [lambda; mu_A] = -Kinv[:, k:]' grad exactly
    grad = cp.G_D.T @ (cp.Qtilde @ u)
    grad[:, :, 1:] += cp.GHt
    S = -(grad.swapaxes(1, 2) @ Kinv)[:, :, k:].swapaxes(1, 2)
    # rows: inactive facets Y_I xi*(x0) <= 1, then mu_A(x0) >= 0; row i of Y
    # is e_i for i < Dbar and -e_(i - Dbar) after
    rows = inactive.shape[1]
    YKk = Kk[np.arange(B)[:, None], inactive % cp.Dbar] * np.where(inactive < cp.Dbar, 1.0, -1.0)[:, :, None]
    L = np.empty((B, rows + S.shape[1] - nc, n))
    L[:, :rows] = YKk[:, :, 1:]
    L[:, rows:] = -S[:, nc:, 1:]
    l = np.empty((B, L.shape[1]))
    l[:, :rows] = 1.0 - YKk[:, :, 0]
    l[:, rows:] = S[:, nc:, 0]
    return RegionStack(cp, base, added, reasons, kept, Z, Kinv, kappa, u, S, L, l)


def _reject(reasons: list, live: np.ndarray, bad: np.ndarray, reason: str) -> np.ndarray:
    """Record ``reason`` for the candidates ``live[bad]``; returns the mask of
    the stack items to keep."""
    for position in live[bad]:
        reasons[position] = reason
    return ~bad


def _invert(K: np.ndarray) -> tuple:
    """Inverses of the stack ``K`` (B, k, k) and the mask of its singular
    matrices, whose inverses are left as zeros."""
    try:
        return np.linalg.inv(K), np.zeros(len(K), dtype=bool)
    except np.linalg.LinAlgError:  # some matrix is singular: find which, one by one
        if len(K) == 1:
            return np.zeros_like(K), np.ones(1, dtype=bool)
        parts = [_invert(k[None]) for k in K]
        return np.concatenate([inv for inv, _ in parts]), np.concatenate([bad for _, bad in parts])


def region_from_scratch(cp: CondensedProblem, base: ActiveSet, added) -> RegionStack:
    """Regions ``base + {i}`` for every ``i`` in ``added`` (all inactive in
    ``base``), or ``base`` alone for ``added = [-1]``, each by a full KKT
    solve, computed as one stack. ``added`` holds either inactive indices
    only or the single -1; a single region is ``.result(0)`` of a stack of
    one.

    One SVD ``T = U diag(s) V'`` of each ``T = [F_D' Y_A']`` gives the rank
    test (``singular`` unless ``s_min > SVD_RTOL * s_max``) and the
    orthonormal null basis ``Z = U[:, r:]`` of ``[F_D; Y_A]``. A candidate
    is rejected with ``second_order`` when its reduced Hessian ``Z'GQG Z``
    fails the Cholesky test and with ``singular`` when
    ``K = [Z'GQG; F_D; Y_A]`` cannot be inverted.
    """
    idx = np.asarray(added, dtype=int)
    act = np.broadcast_to(np.array(base.indices, dtype=int), (idx.size, base.cardinality))
    if (idx >= 0).any():
        act = np.sort(np.column_stack([act, idx]), axis=1)
    nc, r = cp.nbar_c, cp.nbar_c + act.shape[1]
    if r > cp.Dbar:  # more constraints than lifted coordinates (at the root too
        D, n = cp.Dbar, cp.n  # when nbar_c > Dbar): an empty stack, every candidate singular
        return RegionStack(
            cp, base, idx, ["singular"] * idx.size, np.arange(0), np.zeros((0, D, 0)), np.zeros((0, D, D)),
            np.zeros((0, D, n + 1)), np.zeros((0, cp.N * cp.m, n + 1)), np.zeros((0, D, n + 1)),
            np.zeros((0, 2 * D, n)), np.zeros((0, 2 * D)),
        )
    reasons = [None] * idx.size
    live = np.arange(idx.size)  # candidate positions still in the stack
    Y_A = cp.Y[act]  # (B, n_A, Dbar)
    T = np.concatenate([np.broadcast_to(cp.F_D.T, (live.size, cp.Dbar, nc)), Y_A.swapaxes(1, 2)], axis=2)
    U, s, _ = np.linalg.svd(T, full_matrices=True)
    ok = _reject(reasons, live, ~(s.min(axis=1, initial=np.inf) > SVD_RTOL * s.max(axis=1, initial=0.0)), "singular")
    live, Y_A, Z = live[ok], Y_A[ok], U[ok, :, r:]
    ZG = Z.swapaxes(1, 2) @ cp.GQG
    ok = _reject(reasons, live, ~_positive_definite(ZG @ Z), "second_order")
    live, Y_A, Z, ZG = live[ok], Y_A[ok], Z[ok], ZG[ok]
    K = np.concatenate([ZG, np.broadcast_to(cp.F_D, (live.size, nc, cp.Dbar)), Y_A], axis=1)
    Kinv, bad = _invert(K)
    if bad.any():
        ok = _reject(reasons, live, bad, "singular")
        live, Z, Kinv = live[ok], Z[ok], Kinv[ok]
    inactive = np.ones((live.size, 2 * cp.Dbar), dtype=bool)
    inactive[np.arange(live.size)[:, None], act[live]] = False
    inactive = np.nonzero(inactive)[1].reshape(live.size, 2 * cp.Dbar - act.shape[1])
    return _finish(cp, base, idx, reasons, live, Z, Kinv, inactive)


def region_iterative(cp: CondensedProblem, parent: RegionResult, new_indices, eps: float = 1e-10) -> RegionStack:
    """Child regions ``parent.active + {i}`` for every ``i`` in ``new_indices``
    (all inactive in the parent; ``ValueError`` otherwise), by low-rank
    updates solved as one stack.

    For each child the null basis shrinks by one column (sparse kernel of
    the row ``z = y_i Zp`` with pivot ``j = argmax |z|``, so
    ``Zc = Zp[:, sigma] + Zp[:, j] v'``) and the KKT inverse absorbs a
    rank-2 correction plus a row move (Woodbury identity). A child is
    rejected with ``second_order`` when its reduced Hessian fails the
    Cholesky test and with ``singular`` when ``z`` vanishes or the 2x2 update
    factor degenerates.
    """
    active = parent.active
    if any(active.contains(int(i)) for i in new_indices):
        raise ValueError("index already active")
    idx = np.asarray(new_indices, dtype=int)
    Zp, kp, nc = parent.Z, parent.Z.shape[1], cp.nbar_c
    if kp == 0:  # K cannot stay square past this depth: every child has more
        return region_from_scratch(cp, active, idx)  # constraints than coordinates
    reasons = [None] * idx.size
    live = np.arange(idx.size)  # candidate positions still in the stack
    z = cp.Y[idx[live]] @ Zp
    j = np.abs(z).argmax(axis=1)
    ok = _reject(reasons, live, np.abs(z[np.arange(live.size), j]) <= PIVOT_TOL, "singular")
    live, z, j = live[ok], z[ok], j[ok]
    Zc = Zp @ sparse_null_basis(z, j)
    ok = _reject(reasons, live, ~_positive_definite(Zc.swapaxes(1, 2) @ cp.GQG @ Zc), "second_order")
    live, z, j, Zc = live[ok], z[ok], j[ok], Zc[ok]

    rows = np.arange(live.size)
    U = np.zeros((live.size, cp.Dbar, 2))
    U[rows, j, 0] = 1.0
    U[:, :kp, 1] = -z / z[rows, j][:, None]
    W = np.stack([cp.Y[idx[live]], Zp[:, j].T @ cp.GQG], axis=1)
    target = (kp - 1) + nc + np.searchsorted(active.indices, idx[live])  # the new row's place among Y_A's
    Kinv, singular = woodbury_rank2_update(parent.Kinv, U, W, j, target, eps)
    ok = _reject(reasons, live, singular, "singular")
    live, Zc = live[ok], Zc[ok]

    # the child's inactive facets: the parent's minus the new index
    inactive = active.inactive()
    r = np.arange(inactive.size - 1)
    drop = np.searchsorted(inactive, idx[live])[:, None]
    return _finish(cp, active, idx, reasons, live, Zc, Kinv, inactive[r + (r >= drop)])


def reduced_active_set(A: np.ndarray, b: np.ndarray, E: np.ndarray, law: AffineLaw, tol: float = ARED_TOL) -> tuple:
    """Rows of ``A u <= b + E x0`` on which the law is pinned identically over
    the region.

    Row ``j`` qualifies when ``A_j Ku = E_j`` and ``A_j ku = b_j`` hold as
    coefficient identities, so ``A_j u(x0) = b_j + E_j x0`` for every ``x0``.
    """
    lhs_K = A @ law.Ku
    lhs_k = A @ law.ku
    scale_K = 1.0 + np.max(np.abs(E), axis=1, initial=0.0)
    scale_k = 1.0 + np.abs(b)
    hit = (np.max(np.abs(lhs_K - E), axis=1) <= tol * scale_K) & (np.abs(lhs_k - b) <= tol * scale_k)
    return tuple(int(j) for j in np.nonzero(hit)[0])
