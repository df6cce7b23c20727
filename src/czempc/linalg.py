"""Dense matrix kernels used by the region solver.

Provides orthonormal and sparse null-space bases and the rank-2 Woodbury
inverse update that tracks a single active-set insertion. The update works
on stacks (a leading axis of candidates, each with its own inverse), so the
parents of a batch are updated into all of their children at once, and
keeps each result as factors that multiply a matrix from either side
without forming the updated inverse. The dense single-column Greville
pseudoinverse step is not used by the region solver, which reads its
multipliers off the KKT inverse.

All functions are pure; inputs are never modified in place.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg


class SingularUpdateError(np.linalg.LinAlgError):
    """Raised when the 2x2 capacitance factor of a dense inverse update is singular."""


def null_space_qr(M: np.ndarray, rtol: float = 1e-11) -> np.ndarray:
    """Orthonormal basis of the (right) null space of ``M``.

    Uses a column-pivoted QR factorization of ``M.T``; the numerical rank is
    decided by the diagonal threshold ``rtol * |R[0, 0]|``. Returns an
    ``n x (n - rank)`` matrix with orthonormal columns (possibly 0 columns).
    """
    M = np.atleast_2d(np.asarray(M, dtype=float))
    k, n = M.shape
    if n == 0:
        return np.zeros((0, 0))
    if k == 0 or not np.any(M):
        return np.eye(n)
    Q, R, _ = scipy.linalg.qr(M.T, mode="full", pivoting=True)
    diag = np.abs(np.diag(R))
    rank = int(np.count_nonzero(diag > rtol * diag[0])) if diag.size else 0
    return Q[:, rank:]


def sparse_null_basis(z: np.ndarray, j) -> np.ndarray:
    """Sparse basis of ``null(z)`` for a row vector ``z`` with pivot ``z[j]``.

    Column ``k`` has a unit entry at row ``sigma(k)`` and ``-z[sigma(k)] / z[j]``
    at row ``j``, where ``sigma(k) = k`` for ``k < j`` and ``k + 1`` otherwise.
    The product ``z @ V`` vanishes exactly in exact arithmetic. The pivot must
    be nonzero; this is not checked, and callers should pick
    ``j = argmax |z|`` for stability. A stack of rows ``z`` (B, n) with
    pivots ``j`` (B,) gives a stack of bases (B, n, n - 1).
    """
    z = np.asarray(z, dtype=float)
    Z = np.atleast_2d(z)
    B, n = Z.shape
    J = np.broadcast_to(np.asarray(j, dtype=int), (B,))
    if np.any((J < 0) | (J >= n)):
        raise IndexError(f"pivot index out of range for vectors of size {n}")
    rows = np.arange(B)
    pivot = Z[rows, J]
    cols = np.arange(n - 1)
    sigma = cols + (cols >= J[:, None])  # (B, n - 1)
    V = np.zeros((B, n, n - 1))
    V[rows[:, None], sigma, cols] = 1.0
    V[rows, J, :] = -np.take_along_axis(Z, sigma, axis=1) / pivot[:, None]
    return V[0] if z.ndim == 1 else V


@dataclass(frozen=True)
class Rank2InverseUpdate:
    """A stack of updated inverses kept as factors: item ``b`` is
    ``inv(P_b (K_b + U_b W_b)) = (Kinv[b] - KU[b] @ X[b])[:, order[b]]``,
    ``Kinv[b]`` being the inverse of the item's own ``K_b`` (its parent's).

    ``update @ V`` multiplies each inverse by its ``V[b]`` (B, n, r) and
    ``V @ update`` multiplies ``V[b]`` (B, r, n) by it, without forming it;
    ``update[b]`` is inverse ``b`` as a dense matrix.
    """

    __array_ufunc__ = None  # ``ndarray @ update`` defers to ``__rmatmul__``

    Kinv: np.ndarray  # B x n x n, one per item
    KU: np.ndarray  # B x n x 2
    X: np.ndarray  # B x 2 x n
    order: np.ndarray  # B x n

    def __matmul__(self, V: np.ndarray) -> np.ndarray:
        Vs = np.empty_like(V)  # P^T V: row q of V goes to row order[q]
        np.put_along_axis(Vs, self.order[:, :, None], V, axis=1)
        return self.Kinv @ Vs - self.KU @ (self.X @ Vs)

    def __rmatmul__(self, V: np.ndarray) -> np.ndarray:
        M = V @ self.Kinv - (V @ self.KU) @ self.X
        return np.take_along_axis(M, self.order[:, None, :], axis=2)  # column q is column order[q]

    def __getitem__(self, b: int) -> np.ndarray:
        return (self.Kinv[b] - self.KU[b] @ self.X[b])[:, self.order[b]]


def woodbury_rank2_update(Kinv: np.ndarray, U: np.ndarray, W: np.ndarray, src, dst, eps: float = 1e-10):
    """Inverses of ``P_b @ (K_b + U_b @ W_b)`` for a stack ``b`` given
    ``Kinv[b] = inv(K_b)``.

    ``Kinv`` is (B, n, n), one inverse per item, or one (n, n) inverse that
    every item shares. ``P_b`` moves row ``src[b]`` to position ``dst[b]``;
    the other rows keep their order. ``U`` is (B, n, 2) and ``W`` is
    (B, 2, n), so only the 2x2 capacitance matrices
    ``I + W_b @ Kinv[b] @ U_b`` must be inverted. Item ``b`` is singular
    when the smallest eigenvalue magnitude of its capacitance matrix is at
    most ``eps`` scaled by its Frobenius norm. Returns ``(update,
    singular)``: the mask ``singular`` (B,) and a
    :class:`Rank2InverseUpdate` of the other items, in order.
    """
    U = np.asarray(U, dtype=float)
    W = np.asarray(W, dtype=float)
    Kinv = np.broadcast_to(np.asarray(Kinv, dtype=float), (U.shape[0],) + U.shape[1:2] * 2)
    KU = Kinv @ U
    F2 = np.eye(2) + W @ KU
    scale = np.maximum(1.0, np.linalg.norm(F2, "fro", axis=(1, 2)))
    singular = np.abs(np.linalg.eigvals(F2)).min(axis=1, initial=np.inf) <= eps * scale
    ok = ~singular
    Kinv, KU, F2, W = Kinv[ok], KU[ok], F2[ok], W[ok]
    # right-multiplying by P^T moves column src to dst
    p = np.arange(U.shape[1])
    src = np.broadcast_to(np.asarray(src), ok.shape)[ok][:, None]
    dst = np.broadcast_to(np.asarray(dst), ok.shape)[ok][:, None]
    rest = p - (p > dst)
    order = np.where(p == dst, src, rest + (rest >= src))
    return Rank2InverseUpdate(Kinv, KU, np.linalg.solve(F2, W @ Kinv), order), singular


def woodbury_rank2_inverse_update(
    Kinv: np.ndarray,
    U: np.ndarray,
    W: np.ndarray,
    src: int,
    dst: int,
    eps: float = 1e-10,
) -> np.ndarray:
    """Inverse of ``P @ (K + U @ W)`` given ``Kinv = inv(K)``, as a dense
    matrix: :func:`woodbury_rank2_update` on a stack of one (``U`` n x 2,
    ``W`` 2 x n). Raises :class:`SingularUpdateError` when it is singular."""
    update, singular = woodbury_rank2_update(Kinv, np.asarray(U)[None], np.asarray(W)[None], src, dst, eps)
    if singular[0]:
        raise SingularUpdateError("2x2 update factor is singular")
    return update[0]


def greville_append_row_pinv(
    P: np.ndarray,
    T: np.ndarray,
    new_row: np.ndarray,
    k: int,
    eps: float = 1e-10,
) -> np.ndarray:
    """Pseudoinverse of ``T`` augmented with the column ``new_row.T`` at
    position ``k``, given ``P = pinv(T)``, by one Greville step: a column
    inserted at ``k`` of ``T`` is a row inserted at ``k`` of the
    pseudoinverse, and the update costs only matrix-vector products."""
    y = np.asarray(new_row, dtype=float).ravel()
    d = P @ y
    c = y - T @ d
    cc = c @ c
    b = c / cc if np.sqrt(cc) > eps else (d @ P) / (1.0 + d @ d)
    return np.insert(P - np.outer(d, b), k, b, axis=0)
