import numpy as np
import pytest

from czempc.linalg import (
    SingularUpdateError,
    greville_append_row_pinv,
    null_space_qr,
    principal_angles,
    sparse_null_basis,
    woodbury_rank2_inverse_update,
)


def test_null_space_qr_basic(rng):
    M = rng.normal(size=(3, 7))
    Z = null_space_qr(M)
    assert Z.shape == (7, 4)
    np.testing.assert_allclose(M @ Z, 0, atol=1e-12)
    np.testing.assert_allclose(Z.T @ Z, np.eye(4), atol=1e-12)


def test_null_space_qr_rank_deficient(rng):
    base = rng.normal(size=(2, 6))
    M = np.vstack([base, base[0] + base[1]])  # dependent third row
    Z = null_space_qr(M)
    assert Z.shape == (6, 4)
    np.testing.assert_allclose(M @ Z, 0, atol=1e-12)


def test_null_space_qr_zero_matrix():
    Z = null_space_qr(np.zeros((2, 4)))
    np.testing.assert_array_equal(Z, np.eye(4))


def test_sparse_null_basis(rng):
    z = rng.normal(size=8)
    j = int(np.argmax(np.abs(z)))
    V = sparse_null_basis(z, j)
    assert V.shape == (8, 7)
    np.testing.assert_allclose(z @ V, 0, atol=1e-14)
    # unit entries away from the pivot row
    mask = np.ones(8, dtype=bool)
    mask[j] = False
    np.testing.assert_array_equal(V[mask], np.eye(7))


def test_woodbury_rank2_update_matches_direct(rng):
    n = 9
    K = rng.normal(size=(n, n)) + 3 * np.eye(n)
    U = rng.normal(size=(n, 2))
    W = rng.normal(size=(2, n))
    got = woodbury_rank2_inverse_update(np.linalg.inv(K), U, W, 2, 6)
    P = np.eye(n)[[0, 1, 3, 4, 5, 6, 2, 7, 8]]  # row 2 moves to position 6
    want = np.linalg.inv(P @ (K + U @ W))
    np.testing.assert_allclose(got, want, atol=1e-10)


def test_woodbury_rank2_update_singular():
    n = 4
    K = np.eye(n)
    U = np.zeros((n, 2))
    U[0, 0] = 1.0
    W = np.zeros((2, n))
    W[0, 0] = -1.0  # K + U W drops a pivot
    with pytest.raises(SingularUpdateError):
        woodbury_rank2_inverse_update(np.linalg.inv(K), U, W, 0, 0)


def test_greville_append_row_pinv_independent(rng):
    T = rng.normal(size=(10, 4))
    y = rng.normal(size=10)
    for k in range(5):
        got = greville_append_row_pinv(np.linalg.pinv(T), T, y, k)
        want = np.linalg.pinv(np.insert(T, k, y, axis=1))
        np.testing.assert_allclose(got, want, atol=1e-10)


def test_greville_append_row_pinv_dependent_column(rng):
    T = rng.normal(size=(8, 3))
    y = T @ np.array([1.0, -2.0, 0.5])  # in the column span: c == 0 branch
    got = greville_append_row_pinv(np.linalg.pinv(T), T, y, 1)
    want = np.linalg.pinv(np.insert(T, 1, y, axis=1))
    np.testing.assert_allclose(got, want, atol=1e-10)


def test_principal_angles_identical_span(rng):
    A = rng.normal(size=(6, 3))
    B = A @ rng.normal(size=(3, 3))  # same span, different basis
    assert np.max(principal_angles(A, B)) < 1e-12


def test_principal_angles_orthogonal():
    A = np.eye(4)[:, :2]
    B = np.eye(4)[:, 2:]
    np.testing.assert_allclose(principal_angles(A, B), np.pi / 2, atol=1e-12)


def test_principal_angles_known_rotation():
    t = 1e-7
    A = np.array([[1.0], [0.0]])
    B = np.array([[np.cos(t)], [np.sin(t)]])
    # small angles must be resolved well below the arccos noise floor
    np.testing.assert_allclose(principal_angles(A, B), [t], rtol=1e-6)
