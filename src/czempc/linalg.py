"""Dense matrix kernels used by the region solver.

Provides orthonormal and sparse null-space bases, the rank-2 Woodbury
inverse update that tracks a single active-set insertion, the Greville-style
pseudoinverse update for a matrix gaining one column.

All functions are pure; inputs are never modified in place.
"""

from __future__ import annotations

import numpy as np
import scipy.linalg


class PivotZeroError(ValueError):
    """Raised when the requested pivot entry of a row vector is (near) zero."""


class SingularUpdateError(np.linalg.LinAlgError):
    """Raised when the 2x2 capacitance factor of the inverse update is singular."""


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


def sparse_null_basis(z: np.ndarray, j: int, tol: float = 1e-12) -> np.ndarray:
    """Sparse basis of ``null(z)`` for a nonzero row vector ``z`` with pivot ``z[j]``.

    Column ``k`` has a unit entry at row ``sigma(k)`` and ``-z[sigma(k)] / z[j]``
    at row ``j``, where ``sigma(k) = k`` for ``k < j`` and ``k + 1`` otherwise.
    The product ``z @ V`` vanishes exactly in exact arithmetic. Callers should
    pick ``j = argmax |z|`` for stability.
    """
    z = np.asarray(z, dtype=float).ravel()
    n = z.size
    if not 0 <= j < n:
        raise IndexError(f"pivot index {j} out of range for vector of size {n}")
    if abs(z[j]) <= tol * max(1.0, np.max(np.abs(z))):
        raise PivotZeroError(f"pivot |z[{j}]| = {abs(z[j]):.3e} below tolerance")
    sigma = np.array([k if k < j else k + 1 for k in range(n - 1)], dtype=int)
    V = np.zeros((n, n - 1))
    V[sigma, np.arange(n - 1)] = 1.0
    V[j, :] = -z[sigma] / z[j]
    return V


def woodbury_rank2_inverse_update(
    Kinv: np.ndarray,
    U: np.ndarray,
    W: np.ndarray,
    src: int,
    dst: int,
    eps: float = 1e-10,
) -> np.ndarray:
    """Inverse of ``P @ (K + U @ W)`` given ``Kinv = inv(K)``.

    ``P`` moves row ``src`` to position ``dst``; the other rows keep their
    order. ``U`` is n x 2 and ``W`` is 2 x n, so only the 2x2 capacitance matrix
    ``I + W @ Kinv @ U`` must be inverted. Raises :class:`SingularUpdateError`
    when its smallest eigenvalue magnitude falls below ``eps`` scaled by the
    Frobenius norm of the factor.
    """
    Kinv = np.asarray(Kinv, dtype=float)
    U = np.asarray(U, dtype=float)
    W = np.asarray(W, dtype=float)
    KU = Kinv @ U
    F2 = np.eye(2) + W @ KU
    scale = max(1.0, float(np.linalg.norm(F2, "fro")))
    if np.min(np.abs(np.linalg.eigvals(F2))) <= eps * scale:
        raise SingularUpdateError("2x2 update factor is singular")
    M = Kinv - KU @ np.linalg.solve(F2, W @ Kinv)
    # right-multiplying by P^T moves column src to dst
    order = list(range(M.shape[1]))
    order.insert(dst, order.pop(src))
    return M[:, np.asarray(order)]


def greville_append_row_pinv(
    Tpinv: np.ndarray,
    T: np.ndarray,
    new_row: np.ndarray,
    k: int,
    eps: float = 1e-10,
) -> np.ndarray:
    """Pseudoinverse of ``T`` augmented with the column ``new_row.T`` at position ``k``.

    Given ``Tpinv = pinv(T)`` the update costs only matrix-vector products.
    A column inserted at ``k`` (0-based) of ``T`` is a row inserted at ``k``
    of the pseudoinverse.
    """
    Tpinv = np.asarray(Tpinv, dtype=float)
    T = np.asarray(T, dtype=float)
    y = np.asarray(new_row, dtype=float).ravel()
    d = Tpinv @ y
    c = y - T @ d
    cc = float(c @ c)
    if np.sqrt(cc) > eps:
        b = c / cc
    else:
        b = (Tpinv.T @ d) / (1.0 + float(d @ d))
    M = Tpinv - np.outer(d, b)
    return np.vstack([M[:k], b, M[k:]])


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
