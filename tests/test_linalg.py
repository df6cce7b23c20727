import numpy as np
import pytest

from czempc.linalg import (
    SingularUpdateError,
    greville_append_row_pinv,
    null_space_qr,
    sparse_null_basis,
    woodbury_rank2_inverse_update,
    woodbury_rank2_update,
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


def test_rank2_update_products_match_dense(rng):
    # a stack of updates multiplies from either side like its dense inverses
    n, B = 7, 3
    K = rng.normal(size=(n, n)) + 3 * np.eye(n)
    update, singular = woodbury_rank2_update(np.linalg.inv(K), rng.normal(size=(B, n, 2)), rng.normal(size=(B, 2, n)),
                                             [0, 3, 6], [5, 3, 1])
    assert not singular.any()
    dense = np.stack([update[b] for b in range(B)])
    V = rng.normal(size=(B, n, 4))
    np.testing.assert_allclose(update @ V, dense @ V, atol=1e-12)
    Vt = V.swapaxes(1, 2)
    np.testing.assert_allclose(Vt @ update, Vt @ dense, atol=1e-12)


def test_woodbury_rank2_update_masks_singular_items(rng):
    # a singular item is marked, and the update holds the other items in order
    n = 6
    K = rng.normal(size=(n, n)) + 3 * np.eye(n)
    U, W = rng.normal(size=(3, n, 2)), rng.normal(size=(3, 2, n))
    U[1], W[1] = 0.0, 0.0
    U[1, 0, 0], W[1, 0] = 1.0, -K[0]  # K + U W loses row 0
    update, singular = woodbury_rank2_update(np.linalg.inv(K), U, W, [0, 2, 4], [3, 3, 1])
    assert singular.tolist() == [False, True, False]
    for b, (item, src, dst) in enumerate([(0, 0, 3), (2, 4, 1)]):
        rows = [i for i in range(n) if i != src]
        P = np.eye(n)[rows[:dst] + [src] + rows[dst:]]  # row src moves to position dst
        np.testing.assert_allclose(update[b], np.linalg.inv(P @ (K + U[item] @ W[item])), atol=1e-10)


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
