"""Critical region and affine law for a candidate active set.

Each active set over the lifted hypercube facets yields (when accepted) an
affine control law and a polyhedral critical region, obtained from the
second-order KKT system of the lifted QP. Regions can be computed from
scratch (one SVD for the null basis and the pseudoinverse, a dense inverse)
or by the low-rank updates that track a single constraint insertion; either
way all children of one parent are solved as one stack.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from czempc.condense import CondensedProblem
from czempc.linalg import (  # noqa: F401 (perfbench/spans.py traces null_space_qr and the dense updates by these names)
    SingularUpdateError,
    greville_append_row_pinv,
    greville_update,
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
    """Polyhedron ``{x0 : L x0 <= l}`` with exactly ``2 Dbar`` rows."""

    L: np.ndarray
    l: np.ndarray

    def contains(self, x0: np.ndarray, tol: float = 1e-9) -> bool:
        return bool(np.all(self.L @ np.asarray(x0, dtype=float).ravel() <= self.l + tol))

    def margin(self, x0: np.ndarray) -> float:
        """Most violated row value; negative means strictly inside."""
        return float(np.max(self.L @ np.asarray(x0, dtype=float).ravel() - self.l))


@dataclass(frozen=True)
class DualSolution:
    """Affine dual maps: ``[lambda; mu_A](x0) = S x0 + s`` split at ``nbar_c``."""

    S: np.ndarray
    s: np.ndarray
    nbar_c: int

    def lam(self, x0) -> np.ndarray:
        full = self.S @ np.asarray(x0, dtype=float).ravel() + self.s
        return full[: self.nbar_c]

    def mu_active(self, x0) -> np.ndarray:
        full = self.S @ np.asarray(x0, dtype=float).ravel() + self.s
        return full[self.nbar_c :]


@dataclass(frozen=True)
class KktCache:
    """Reusable factors for children of this active set."""

    Z: np.ndarray  # Dbar x (Dbar - nbar_c - n_A), basis of null([F_D; Y_A])
    Kinv: np.ndarray  # Dbar x Dbar
    Tpinv: np.ndarray  # pseudoinverse of T = [F_D' Y_A']
    kappa1: np.ndarray
    kappa2: np.ndarray


@dataclass(frozen=True)
class RegionResult:
    active: ActiveSet
    law: AffineLaw
    region: CriticalRegion
    duals: DualSolution
    cache: KktCache

    def xi_star(self, x0) -> np.ndarray:
        return self.cache.Kinv @ (self.cache.kappa1 + self.cache.kappa2 @ np.asarray(x0, dtype=float).ravel())


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
    and every stack below holds those, in the same order. ``Kinv`` and
    ``Tpinv`` are arrays or factored updates: either takes ``@`` per item
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
    Tpinv: object
    kappa: np.ndarray
    u: np.ndarray
    S: np.ndarray
    L: np.ndarray
    l: np.ndarray

    def result(self, position: int) -> RegionResult:
        """The region of candidate ``position``, copied out of the stack;
        raises :class:`RegionRejected` for a rejected candidate."""
        cp = self.cp
        if self.reasons[position] is not None:
            raise RegionRejected(self.reasons[position])
        i = int(np.searchsorted(self.kept, position))
        added = int(self.added[position])
        active = self.base.with_index(added) if added >= 0 else self.base
        law = AffineLaw(self.u[i, :, 1:].copy(), self.u[i, :, 0].copy())
        duals = DualSolution(self.S[i, :, 1:].copy(), self.S[i, :, 0].copy(), cp.nbar_c)
        region = CriticalRegion(self.L[i].copy(), self.l[i].copy())
        cache = KktCache(
            self.Z[i].copy(), np.array(self.Kinv[i]), np.array(self.Tpinv[i]),
            self.kappa[i, :, 0].copy(), self.kappa[i, :, 1:].copy(),
        )
        return RegionResult(active, law, region, duals, cache)


def _finish(cp: CondensedProblem, base, added, reasons, kept, Z, Kinv, Tpinv, inactive) -> RegionStack:
    """Laws, duals and region rows of a stack of KKT systems.

    ``Z`` (B, Dbar, k), the inverses ``Kinv``, the pseudoinverses ``Tpinv``
    and the inactive facet indices ``inactive`` (B, 2 Dbar - n_A) belong to
    the kept candidates. Every map is affine in ``x0`` and is carried as one
    matrix with the constant in column 0.
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
    # stationarity solved for [lambda; mu_A] through the pseudoinverse of T
    grad = cp.G_D.T @ (cp.Qtilde @ u)
    grad[:, :, 1:] += cp.GHt
    S = -(Tpinv @ grad)
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
    return RegionStack(cp, base, added, reasons, kept, Z, Kinv, Tpinv, kappa, u, S, L, l)


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
    test (``singular`` unless ``s_min > SVD_RTOL * s_max``), the orthonormal
    null basis ``Z = U[:, r:]`` of ``[F_D; Y_A]`` and the pseudoinverse
    ``V diag(1/s) U[:, :r]'``. A candidate is rejected with ``second_order``
    when its reduced Hessian ``Z'GQG Z`` fails the Cholesky test and with
    ``singular`` when ``K = [Z'GQG; F_D; Y_A]`` cannot be inverted.
    """
    idx = np.asarray(added, dtype=int)
    act = np.broadcast_to(np.array(base.indices, dtype=int), (idx.size, base.cardinality))
    if (idx >= 0).any():
        act = np.sort(np.column_stack([act, idx]), axis=1)
    nc, r = cp.nbar_c, cp.nbar_c + act.shape[1]
    reasons = [None] * idx.size
    live = np.arange(idx.size)  # candidate positions still in the stack
    if r > cp.Dbar:  # more constraints than lifted coordinates
        live = live[_reject(reasons, live, np.ones(idx.size, dtype=bool), "singular")]
        # an empty stack with n_A = Dbar - nbar_c, so that every shape below is
        # valid and the region rows still number 2 Dbar
        act, r = act[:0, : cp.Dbar - nc], cp.Dbar
    Y_A = cp.Y[act]  # (B, n_A, Dbar)
    T = np.concatenate([np.broadcast_to(cp.F_D.T, (live.size, cp.Dbar, nc)), Y_A.swapaxes(1, 2)], axis=2)
    U, s, Vt = np.linalg.svd(T, full_matrices=True)
    ok = _reject(reasons, live, ~(s.min(axis=1, initial=np.inf) > SVD_RTOL * s.max(axis=1, initial=0.0)), "singular")
    live, Y_A, U, s, Vt = live[ok], Y_A[ok], U[ok], s[ok], Vt[ok]
    Z = U[:, :, r:]
    Tpinv = (Vt.swapaxes(1, 2) / s[:, None, :]) @ U[:, :, :r].swapaxes(1, 2)
    ZG = Z.swapaxes(1, 2) @ cp.GQG
    ok = _reject(reasons, live, ~_positive_definite(ZG @ Z), "second_order")
    live, Y_A, Z, Tpinv, ZG = live[ok], Y_A[ok], Z[ok], Tpinv[ok], ZG[ok]
    K = np.concatenate([ZG, np.broadcast_to(cp.F_D, (live.size, nc, cp.Dbar)), Y_A], axis=1)
    Kinv, bad = _invert(K)
    if bad.any():
        ok = _reject(reasons, live, bad, "singular")
        live, Z, Tpinv, Kinv = live[ok], Z[ok], Tpinv[ok], Kinv[ok]
    inactive = np.ones((live.size, 2 * cp.Dbar), dtype=bool)
    inactive[np.arange(live.size)[:, None], act[live]] = False
    inactive = np.nonzero(inactive)[1].reshape(live.size, 2 * cp.Dbar - act.shape[1])
    return _finish(cp, base, idx, reasons, live, Z, Kinv, Tpinv, inactive)


def region_iterative(cp: CondensedProblem, parent: RegionResult, new_indices, eps: float = 1e-10) -> RegionStack:
    """Child regions ``parent.active + {i}`` for every ``i`` in ``new_indices``
    (all inactive in the parent; ``ValueError`` otherwise), by low-rank
    updates solved as one stack.

    For each child the null basis shrinks by one column (sparse kernel of
    the row ``z = y_i Zp`` with pivot ``j = argmax |z|``, so
    ``Zc = Zp[:, sigma] + Zp[:, j] v'``), the pseudoinverse gains a column
    (Greville step), and the KKT inverse absorbs a rank-2 correction plus a
    row move (Woodbury identity). A child is rejected with ``second_order``
    when its reduced Hessian fails the Cholesky test and with ``singular``
    when ``z`` vanishes or the 2x2 update factor degenerates.
    """
    active = parent.active
    if any(active.contains(int(i)) for i in new_indices):
        raise ValueError("index already active")
    idx = np.asarray(new_indices, dtype=int)
    Zp, kp, nc = parent.cache.Z, parent.cache.Z.shape[1], cp.nbar_c
    reasons = [None] * idx.size
    live = np.arange(idx.size)  # candidate positions still in the stack
    if kp == 0:  # K cannot stay square past this depth
        live = live[_reject(reasons, live, np.ones(idx.size, dtype=bool), "singular")]
        Zp = np.zeros((cp.Dbar, 1))  # keeps the empty stack's shapes valid
    z = cp.Y[idx[live]] @ Zp
    j = np.abs(z).argmax(axis=1)
    ok = _reject(reasons, live, np.abs(z[np.arange(live.size), j]) <= PIVOT_TOL, "singular")
    live, z, j = live[ok], z[ok], j[ok]
    Zc = Zp @ sparse_null_basis(z, j)
    ok = _reject(reasons, live, ~_positive_definite(Zc.swapaxes(1, 2) @ cp.GQG @ Zc), "second_order")
    live, z, j, Zc = live[ok], z[ok], j[ok], Zc[ok]

    pos = np.searchsorted(active.indices, idx[live])  # sorted rank of the new index
    rows = np.arange(live.size)
    U = np.zeros((live.size, cp.Dbar, 2))
    U[rows, j, 0] = 1.0
    U[:, :kp, 1] = -z / z[rows, j][:, None]
    W = np.stack([cp.Y[idx[live]], Zp[:, j].T @ cp.GQG], axis=1)
    target = (kp - 1) + nc + pos
    try:
        Kinv = woodbury_rank2_update(parent.cache.Kinv, U, W, j, target, eps)
    except SingularUpdateError as exc:
        ok = _reject(reasons, live, exc.mask, "singular")
        live, Zc, U, W, j, target, pos = live[ok], Zc[ok], U[ok], W[ok], j[ok], target[ok], pos[ok]
        Kinv = woodbury_rank2_update(parent.cache.Kinv, U, W, j, target, eps)

    T = np.hstack([cp.F_D.T, cp.Y[list(active.indices)].T])  # the parent's [F_D' Y_A']
    Tpinv = greville_update(parent.cache.Tpinv, T, cp.Y[idx[live]], nc + pos)
    # the child's inactive facets: the parent's minus the new index
    inactive = active.inactive()
    r = np.arange(inactive.size - 1)
    drop = np.searchsorted(inactive, idx[live])[:, None]
    return _finish(cp, active, idx, reasons, live, Zc, Kinv, Tpinv, inactive[r + (r >= drop)])


def reduced_active_set(cp: CondensedProblem, law: AffineLaw, tol: float = ARED_TOL) -> tuple:
    """Polyhedral rows on which the law is pinned identically over the region.

    Row ``j`` qualifies when ``A_j Ku = E_j`` and ``A_j ku = b_j`` hold as
    coefficient identities, so ``A_j u(x0) = b_j + E_j x0`` for every ``x0``.
    """
    lhs_K = cp.A_poly @ law.Ku
    lhs_k = cp.A_poly @ law.ku
    scale_K = 1.0 + np.max(np.abs(cp.E_poly), axis=1, initial=0.0)
    scale_k = 1.0 + np.abs(cp.b_poly)
    hit = (np.max(np.abs(lhs_K - cp.E_poly), axis=1) <= tol * scale_K) & (
        np.abs(lhs_k - cp.b_poly) <= tol * scale_k
    )
    return tuple(int(j) for j in np.nonzero(hit)[0])


def kkt_residuals(cp: CondensedProblem, res: RegionResult, x0: np.ndarray) -> dict:
    """First-order residuals at ``x0``: stationarity, primal equality/inequality,
    complementarity. Used by validation, not by the solver itself."""
    x0 = np.asarray(x0, dtype=float).ravel()
    xi = res.xi_star(x0)
    lam = res.duals.lam(x0)
    mu_a = res.duals.mu_active(x0)
    Y_A = cp.Y[list(res.active.indices)]
    stationarity = cp.GQG @ xi + cp.GQc + cp.GHt @ x0 + cp.F_D.T @ lam + Y_A.T @ mu_a
    primal_eq = cp.F_D @ xi - cp.theta1_D - cp.theta2_D @ x0
    slack = cp.Y @ xi - 1.0
    mu_full = np.zeros(2 * cp.Dbar)
    mu_full[list(res.active.indices)] = mu_a
    return {
        "stationarity": float(np.max(np.abs(stationarity), initial=0.0)),
        "primal_eq": float(np.max(np.abs(primal_eq), initial=0.0)),
        "primal_ineq": float(np.max(slack, initial=-np.inf)),
        "complementarity": float(np.max(np.abs(mu_full * slack), initial=0.0)),
    }
