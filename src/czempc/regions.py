"""Critical region and affine law for a candidate active set.

Each active set over the lifted hypercube facets yields (when accepted) an
affine control law and a polyhedral critical region, obtained from the
second-order KKT system of the lifted QP. Regions can be computed from
scratch (QR null space, dense inverse, SVD pseudoinverse) or by the low-rank
updates that track a single constraint insertion.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from czempc.condense import CondensedProblem
from czempc.linalg import (
    PivotZeroError,
    SingularUpdateError,
    greville_append_row_pinv,
    null_space_qr,
    sparse_null_basis,
    woodbury_rank2_inverse_update,
)

PD_PIVOT_TOL = 1e-10
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
    T: np.ndarray  # Dbar x (nbar_c + n_A), [F_D' Y_A']
    Tpinv: np.ndarray  # pseudoinverse of T
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


def _build_kappas(cp: CondensedProblem, active: ActiveSet, Z: np.ndarray):
    nA = active.cardinality
    if Z.shape[1] > 0:
        k1 = np.concatenate([-Z.T @ cp.GQc, cp.theta1_D, np.ones(nA)])
        k2 = np.vstack([-Z.T @ cp.GHt, cp.theta2_D, np.zeros((nA, cp.n))])
    else:
        # fully constrained case: K has no reduced-Hessian block, so only
        # the equality and active-facet rows remain
        k1 = np.concatenate([cp.theta1_D, np.ones(nA)])
        k2 = np.vstack([cp.theta2_D, np.zeros((nA, cp.n))])
    return k1, k2


def _check_reduced_hessian(cp: CondensedProblem, Z: np.ndarray) -> None:
    if Z.shape[1] == 0:
        return
    H = Z.T @ cp.GQG @ Z
    try:
        chol = np.linalg.cholesky(0.5 * (H + H.T))
    except np.linalg.LinAlgError:
        raise RegionRejected("second_order") from None
    if np.min(np.diag(chol)) ** 2 <= PD_PIVOT_TOL:
        raise RegionRejected("second_order")


def _finish(cp: CondensedProblem, active: ActiveSet, Z, Kinv, T, Tpinv) -> RegionResult:
    k1, k2 = _build_kappas(cp, active, Z)
    Kk1 = Kinv @ k1
    Kk2 = Kinv @ k2
    law = AffineLaw(cp.G_D @ Kk2, cp.c_D + cp.G_D @ Kk1)

    S_full = -Tpinv @ (cp.G_D.T @ (cp.Qtilde @ (cp.G_D @ Kk2)) + cp.GHt)
    s_full = -Tpinv @ (cp.G_D.T @ (cp.Qtilde @ (cp.G_D @ Kk1 + cp.c_D)))
    duals = DualSolution(S_full, s_full, cp.nbar_c)

    inactive = active.inactive()
    Y_I = cp.Y[inactive]
    nA = active.cardinality
    L = np.vstack([Y_I @ Kk2, -S_full[cp.nbar_c :]])
    l = np.concatenate([np.ones(2 * cp.Dbar - nA) - Y_I @ Kk1, s_full[cp.nbar_c :]])
    region = CriticalRegion(L, l)
    cache = KktCache(Z, Kinv, T, Tpinv, k1, k2)
    return RegionResult(active, law, region, duals, cache)


def region_from_scratch(cp: CondensedProblem, active: ActiveSet) -> RegionResult:
    """Full KKT solve for ``active``: QR null basis, dense inverse, SVD pinv."""
    nA = active.cardinality
    if nA > cp.Dbar - cp.nbar_c:
        raise RegionRejected("singular")
    Y_A = cp.Y[list(active.indices)]
    T = np.hstack([cp.F_D.T, Y_A.T])
    Z = null_space_qr(T.T)
    if Z.shape[1] != cp.Dbar - cp.nbar_c - nA:
        raise RegionRejected("singular")  # rank-deficient constraint stack
    _check_reduced_hessian(cp, Z)
    if Z.shape[1] > 0:
        K = np.vstack([Z.T @ cp.GQG, cp.F_D, Y_A])
    else:
        K = np.vstack([cp.F_D, Y_A])
    try:
        Kinv = np.linalg.inv(K)
    except np.linalg.LinAlgError:
        raise RegionRejected("singular") from None
    Tpinv = np.linalg.pinv(T)
    return _finish(cp, active, Z, Kinv, T, Tpinv)


def region_iterative(
    cp: CondensedProblem,
    parent: RegionResult,
    new_index: int,
    eps: float = 1e-10,
) -> RegionResult:
    """Child region for ``parent.active + {new_index}`` via low-rank updates.

    The null basis shrinks by one column (sparse kernel of a row vector), the
    pseudoinverse gains a column (Greville step), and the KKT inverse absorbs
    a rank-2 correction plus a row move (Woodbury identity). Rejects with
    ``second_order`` when the reduced Hessian fails its Cholesky test and with
    ``singular`` when the 2x2 update factor degenerates.
    """
    active = parent.active
    if active.contains(new_index):
        raise ValueError("index already active")
    child = active.with_index(new_index)
    Zp = parent.cache.Z
    if Zp.shape[1] == 0:
        raise RegionRejected("singular")  # K cannot stay square past this depth
    y_i = cp.Y[new_index]

    z = y_i @ Zp
    j = int(np.argmax(np.abs(z)))
    try:
        V = sparse_null_basis(z, j)
    except PivotZeroError:
        raise RegionRejected("singular") from None
    Zc = Zp @ V
    _check_reduced_hessian(cp, Zc)

    pos = child.indices.index(new_index)  # sorted rank of the new index
    T_child = np.insert(parent.cache.T, cp.nbar_c + pos, y_i, axis=1)
    Tpinv_child = greville_append_row_pinv(parent.cache.Tpinv, parent.cache.T, y_i, cp.nbar_c + pos)

    kp = Zp.shape[1]
    U = np.zeros((cp.Dbar, 2))
    U[j, 0] = 1.0
    col = np.empty(kp)
    col[:j] = V[j, :j]
    col[j] = -1.0
    col[j + 1 :] = V[j, j:]
    U[:kp, 1] = col
    W = np.vstack([y_i, Zp[:, j] @ cp.GQG])
    target = (kp - 1) + cp.nbar_c + pos
    try:
        Kinv_child = woodbury_rank2_inverse_update(parent.cache.Kinv, U, W, j, target, eps)
    except SingularUpdateError:
        raise RegionRejected("singular") from None
    return _finish(cp, child, Zc, Kinv_child, T_child, Tpinv_child)


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
