"""Dense matrix kernels used by the region solver.

Provides orthonormal and sparse null-space bases, the rank-2 Woodbury
inverse update that tracks a single active-set insertion, the Greville-style
pseudoinverse update for a matrix gaining one column. The updates work on
stacks (a leading axis of candidates), so one parent is updated into all of
its children at once, and keep each result as factors that multiply a
right-hand side without forming the updated matrix.

All functions are pure; inputs are never modified in place.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg


class SingularUpdateError(np.linalg.LinAlgError):
    """Raised when the 2x2 capacitance factor of the inverse update is singular.

    ``mask`` marks the failing items when the call was on a stack.
    """

    def __init__(self, message: str, mask: np.ndarray):
        super().__init__(message)
        self.mask = mask


def _insert_rows(M: np.ndarray, new: np.ndarray, k: np.ndarray) -> np.ndarray:
    """Stack ``M`` (B, p, n) with row ``new[b]`` inserted at index ``k[b]`` of ``M[b]``."""
    B, p, n = M.shape
    out = np.empty((B, p + 1, n))
    item = np.arange(B)
    rows = np.arange(p)
    out[item[:, None], rows + (rows >= k[:, None])] = M
    out[item, k] = new
    return out


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
    ``inv(P_b (K + U_b W_b)) = (Kinv - KU[b] @ X[b])[:, order[b]]``.

    ``update @ V`` multiplies each inverse by its ``V[b]`` (B, n, r) without
    forming it; ``update[b]`` is inverse ``b`` as a dense matrix.
    """

    Kinv: np.ndarray  # n x n, shared
    KU: np.ndarray  # B x n x 2
    X: np.ndarray  # B x 2 x n
    order: np.ndarray  # B x n

    def __matmul__(self, V: np.ndarray) -> np.ndarray:
        Vs = np.empty_like(V)  # P^T V: row q of V goes to row order[q]
        np.put_along_axis(Vs, self.order[:, :, None], V, axis=1)
        return self.Kinv @ Vs - self.KU @ (self.X @ Vs)

    def __getitem__(self, b: int) -> np.ndarray:
        return (self.Kinv - self.KU[b] @ self.X[b])[:, self.order[b]]


def woodbury_rank2_update(Kinv: np.ndarray, U: np.ndarray, W: np.ndarray, src, dst, eps: float = 1e-10):
    """Inverses of ``P_b @ (K + U_b @ W_b)`` for a stack ``b`` given ``Kinv = inv(K)``.

    ``P_b`` moves row ``src[b]`` to position ``dst[b]``; the other rows keep
    their order. ``U`` is (B, n, 2) and ``W`` is (B, 2, n), so only the 2x2
    capacitance matrices ``I + W_b @ Kinv @ U_b`` must be inverted. Raises
    :class:`SingularUpdateError`, whose ``mask`` marks the singular items,
    when the smallest eigenvalue magnitude of one falls below ``eps`` scaled
    by its Frobenius norm. Returns a :class:`Rank2InverseUpdate`.
    """
    Kinv = np.asarray(Kinv, dtype=float)
    U = np.asarray(U, dtype=float)
    W = np.asarray(W, dtype=float)
    KU = Kinv @ U
    F2 = np.eye(2) + W @ KU
    scale = np.maximum(1.0, np.linalg.norm(F2, "fro", axis=(1, 2)))
    singular = np.abs(np.linalg.eigvals(F2)).min(axis=1, initial=np.inf) <= eps * scale
    if singular.any():
        raise SingularUpdateError("2x2 update factor is singular", singular)
    # right-multiplying by P^T moves column src to dst
    B, n = U.shape[0], U.shape[1]
    p = np.arange(n)
    src = np.broadcast_to(np.asarray(src), (B,))[:, None]
    dst = np.broadcast_to(np.asarray(dst), (B,))[:, None]
    rest = p - (p > dst)
    order = np.where(p == dst, src, rest + (rest >= src))
    return Rank2InverseUpdate(Kinv, KU, np.linalg.solve(F2, W @ Kinv), order)


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
    ``W`` 2 x n)."""
    return woodbury_rank2_update(Kinv, np.asarray(U)[None], np.asarray(W)[None], src, dst, eps)[0]


@dataclass(frozen=True)
class PinvColumnInsert:
    """A stack of pseudoinverses of ``T`` with one column inserted, kept as
    factors: item ``b`` is ``Tpinv - d[b] b[b]'`` with the row ``b[b]``
    inserted at ``k[b]``.

    ``update @ G`` multiplies each pseudoinverse by its ``G[b]`` (B, n, r)
    without forming it; ``update[b]`` is pseudoinverse ``b`` as a dense
    matrix.
    """

    Tpinv: np.ndarray  # p x n, shared
    d: np.ndarray  # B x p
    b: np.ndarray  # B x n
    k: np.ndarray  # B

    def __matmul__(self, G: np.ndarray) -> np.ndarray:
        bG = self.b[:, None, :] @ G
        return _insert_rows(self.Tpinv @ G - self.d[:, :, None] * bG, bG[:, 0], self.k)

    def __getitem__(self, i: int) -> np.ndarray:
        return np.insert(self.Tpinv - np.outer(self.d[i], self.b[i]), self.k[i], self.b[i], axis=0)


def greville_update(Tpinv: np.ndarray, T: np.ndarray, new_rows: np.ndarray, k, eps: float = 1e-10):
    """Pseudoinverses of ``T`` augmented with the column ``new_rows[b]`` at
    position ``k[b]``, for a stack ``b``, given ``Tpinv = pinv(T)``.

    The update costs only matrix-vector products. A column inserted at ``k``
    (0-based) of ``T`` is a row inserted at ``k`` of the pseudoinverse.
    Returns a :class:`PinvColumnInsert`.
    """
    Tpinv = np.asarray(Tpinv, dtype=float)
    T = np.asarray(T, dtype=float)
    Y = np.asarray(new_rows, dtype=float)
    d = Y @ Tpinv.T
    c = Y - d @ T.T
    cc = np.einsum("bi,bi->b", c, c)
    independent = np.sqrt(cc) > eps
    b = np.where(
        independent[:, None],
        c / np.where(independent, cc, 1.0)[:, None],
        (d @ Tpinv) / (1.0 + np.einsum("bi,bi->b", d, d))[:, None],
    )
    return PinvColumnInsert(Tpinv, d, b, np.broadcast_to(np.asarray(k), (Y.shape[0],)))


def greville_append_row_pinv(
    Tpinv: np.ndarray,
    T: np.ndarray,
    new_row: np.ndarray,
    k: int,
    eps: float = 1e-10,
) -> np.ndarray:
    """Pseudoinverse of ``T`` augmented with the column ``new_row.T`` at
    position ``k``, as a dense matrix: :func:`greville_update` on a stack of
    one."""
    return greville_update(Tpinv, T, np.asarray(new_row)[None], k, eps)[0]


def principal_angles(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """Principal angles (radians) between the column spans of ``A`` and ``B``."""
    A = np.atleast_2d(np.asarray(A, dtype=float))
    B = np.atleast_2d(np.asarray(B, dtype=float))
    if A.shape[1] == 0 or B.shape[1] == 0:
        return np.zeros(0)
    Qa, _ = np.linalg.qr(A)
    Qb, _ = np.linalg.qr(B)
    # sine-based formulation keeps full accuracy for near-zero angles
    sv = np.linalg.svd(Qa - Qb @ (Qb.T @ Qa), compute_uv=False)
    return np.arcsin(np.clip(sv, -1.0, 1.0))
