"""Critical region and affine law for a candidate active set.

Each active set over the lifted hypercube facets yields (when accepted) an
affine control law and a polyhedral critical region, obtained from the
second-order KKT system of the lifted QP. Regions can be computed from
scratch (one SVD for the null basis, a dense inverse) or by the low-rank
updates that track a single constraint insertion; either way all children of
a batch's parents of one cardinality are solved as one stack, and the
multipliers are read off the KKT inverse.
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
    """Candidate regions of one or more parents of equal cardinality,
    solved as one stack.

    Position ``p`` of the candidates has the sorted active indices
    ``act[p]``: its parent's plus the one it adds. ``reasons[p]`` is the
    rejection reason of a candidate, or None; ``kept`` lists the positions
    that passed, and every stack below holds those, in the same order.
    ``Kinv`` is an array or a factored update: either takes ``@`` per item
    from both sides and ``[i]`` for a dense item. ``u[i] @ [1; x0]`` is the
    law and ``S[i] @ [1; x0]`` the duals ``[lambda; mu_A]``; ``L``/``l`` are
    the region rows the emptiness test reads.
    """

    cp: CondensedProblem
    act: np.ndarray
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
        active = ActiveSet(self.cp.Dbar, tuple(self.act[position]))
        law = AffineLaw(self.u[i, :, 1:].copy(), self.u[i, :, 0].copy())
        region = CriticalRegion(self.L[i].copy(), self.l[i].copy())
        return RegionResult(active, law, region, self.Z[i].copy(), np.array(self.Kinv[i]))


def _finish(cp: CondensedProblem, act, reasons, kept, Z, Kinv) -> RegionStack:
    """Laws, duals and region rows of a stack of KKT systems.

    ``Z`` (B, Dbar, k) and the inverses ``Kinv`` belong to the kept
    candidates, whose active indices are ``act[kept]``. Every map is affine
    in ``x0`` and is carried as one matrix with the constant in column 0.
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
    # rows: inactive facets Y_I xi*(x0) <= 1, in increasing order, then
    # mu_A(x0) >= 0; row i of Y is e_i for i < Dbar and -e_(i - Dbar) after
    rows = 2 * cp.Dbar - act.shape[1]
    inactive = np.ones((B, 2 * cp.Dbar), dtype=bool)
    inactive[np.arange(B)[:, None], act[kept]] = False
    inactive = np.nonzero(inactive)[1].reshape(B, rows)
    YKk = Kk[np.arange(B)[:, None], inactive % cp.Dbar] * np.where(inactive < cp.Dbar, 1.0, -1.0)[:, :, None]
    L = np.empty((B, rows + S.shape[1] - nc, n))
    L[:, :rows] = YKk[:, :, 1:]
    L[:, rows:] = -S[:, nc:, 1:]
    l = np.empty((B, L.shape[1]))
    l[:, :rows] = 1.0 - YKk[:, :, 0]
    l[:, rows:] = S[:, nc:, 0]
    return RegionStack(cp, act, reasons, kept, Z, Kinv, kappa, u, S, L, l)


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


def _stack(bases: list, added: list) -> tuple:
    """The candidates ``bases[b] + {i}`` for ``i`` in ``added[b]``, over
    every ``b`` in turn: per position, its parent ``owner`` (the ``b``), its
    added index ``idx``, its parent's active indices ``base`` and its own
    ``act`` (both sorted, one row per position). Every base must have the
    same cardinality (``ValueError`` otherwise). ``added`` holds either
    inactive indices only or the single -1 per base, which stands for the
    base itself."""
    card = {b.cardinality for b in bases}
    if len(card) != 1:
        raise ValueError("the parents of a stack must have one cardinality")
    owner = np.repeat(np.arange(len(bases)), [len(a) for a in added])
    idx = np.array([i for a in added for i in a], dtype=int)
    base = np.array([b.indices for b in bases], dtype=int).reshape(len(bases), card.pop())[owner]
    act = np.sort(np.column_stack([base, idx]), axis=1) if (idx >= 0).any() else base
    return owner, idx, base, act


def region_from_scratch(cp: CondensedProblem, bases: list, added: list) -> RegionStack:
    """Regions ``bases[b] + {i}`` for every ``i`` in ``added[b]`` (all
    inactive in ``bases[b]``), or ``bases[b]`` alone for ``added[b] =
    [-1]``, each by a full KKT solve, computed as one stack over all the
    bases, which must share one cardinality. Position ``p`` of the stack is
    the ``p``-th candidate of ``added`` read in order; a single region is
    ``region_from_scratch(cp, [base], [[-1]]).result(0)``.

    One SVD ``T = U diag(s) V'`` of each ``T = [F_D' Y_A']`` gives the rank
    test (``singular`` unless ``s_min > SVD_RTOL * s_max``) and the
    orthonormal null basis ``Z = U[:, r:]`` of ``[F_D; Y_A]``. A candidate
    is rejected with ``second_order`` when its reduced Hessian ``Z'GQG Z``
    fails the Cholesky test and with ``singular`` when
    ``K = [Z'GQG; F_D; Y_A]`` cannot be inverted.
    """
    _, idx, _, act = _stack(bases, added)
    nc, r = cp.nbar_c, cp.nbar_c + act.shape[1]
    if r > cp.Dbar:  # more constraints than lifted coordinates (at the root too
        D, n = cp.Dbar, cp.n  # when nbar_c > Dbar): an empty stack, every candidate singular
        return RegionStack(
            cp, act, ["singular"] * idx.size, np.arange(0), np.zeros((0, D, 0)), np.zeros((0, D, D)),
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
    return _finish(cp, act, reasons, live, Z, Kinv)


def region_iterative(cp: CondensedProblem, parents: list, added: list, eps: float = 1e-10) -> RegionStack:
    """Child regions ``parents[b].active + {i}`` for every ``i`` in
    ``added[b]`` (all inactive in that parent; ``ValueError`` otherwise), by
    low-rank updates of each child's own parent, solved as one stack over
    all the parents, which must share one cardinality. Positions follow
    ``added`` read in order, as in :func:`region_from_scratch`.

    For each child the null basis shrinks by one column (sparse kernel of
    the row ``z = y_i Zp`` with pivot ``j = argmax |z|``, so
    ``Zc = Zp[:, sigma] + Zp[:, j] v'``) and the KKT inverse absorbs a
    rank-2 correction plus a row move (Woodbury identity). A child is
    rejected with ``second_order`` when its reduced Hessian fails the
    Cholesky test and with ``singular`` when ``z`` vanishes or the 2x2 update
    factor degenerates.
    """
    bases = [p.active for p in parents]
    owner, idx, base, act = _stack(bases, added)
    if (base == idx[:, None]).any():
        raise ValueError("index already active")
    kp, nc = parents[0].Z.shape[1], cp.nbar_c
    if kp == 0:  # K cannot stay square past this depth: every child has more
        return region_from_scratch(cp, bases, added)  # constraints than coordinates
    reasons = [None] * idx.size
    live = np.arange(idx.size)  # candidate positions still in the stack
    Zp = np.stack([p.Z for p in parents])[owner]  # (B, Dbar, kp): each child's parent basis
    z = (cp.Y[idx][:, None] @ Zp)[:, 0]  # each y_i Zp, exact: y_i is a signed unit row
    j = np.abs(z).argmax(axis=1)
    ok = _reject(reasons, live, np.abs(z[np.arange(live.size), j]) <= PIVOT_TOL, "singular")
    live, z, j, Zp = live[ok], z[ok], j[ok], Zp[ok]
    Zc = Zp @ sparse_null_basis(z, j)
    ok = _reject(reasons, live, ~_positive_definite(Zc.swapaxes(1, 2) @ cp.GQG @ Zc), "second_order")
    live, z, j, Zp, Zc = live[ok], z[ok], j[ok], Zp[ok], Zc[ok]

    rows = np.arange(live.size)
    U = np.zeros((live.size, cp.Dbar, 2))
    U[rows, j, 0] = 1.0
    U[:, :kp, 1] = -z / z[rows, j][:, None]
    W = np.stack([cp.Y[idx[live]], Zp[rows, :, j] @ cp.GQG], axis=1)
    target = (kp - 1) + nc + (base[live] < idx[live, None]).sum(axis=1)  # the new row's place among Y_A's
    Kinv = np.stack([p.Kinv for p in parents])[owner[live]]
    Kinv, singular = woodbury_rank2_update(Kinv, U, W, j, target, eps)
    ok = _reject(reasons, live, singular, "singular")
    return _finish(cp, act, reasons, live[ok], Zc[ok], Kinv)


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
