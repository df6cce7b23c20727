import numpy as np
import pytest
import scipy.optimize

from czempc.sets import (
    DEFAULT_RADIUS_THRESHOLD,
    ChebyshevResult,
    ConstrainedZonotope,
    DimensionMismatch,
    Polytope,
    Zonotope,
    affine_map,
    chebyshev,
    cz_contains_point,
    cz_is_empty,
    intersect,
    generalized_intersect,
    is_empty,
    is_empty_stack,
    support,
    zonotope_halfspaces,
)

# hexagonal zonotope reused across several tests
HEX = Zonotope(np.array([0.5, -0.25]), np.array([[1.0, 0.5, 0.0], [0.0, 1.0, 1.5]]))


def test_zonotope_support_matches_lp(rng):
    for _ in range(10):
        d = rng.normal(size=2)
        assert HEX.support(d) == pytest.approx(support(HEX, d), abs=1e-8)


def test_zonotope_validation():
    with pytest.raises(DimensionMismatch):
        Zonotope(np.zeros(2), np.zeros((3, 2)))
    with pytest.raises(DimensionMismatch):
        ConstrainedZonotope(np.zeros(2), np.zeros((2, 3)), np.zeros((1, 2)), np.zeros(1))


def test_affine_map_support(rng):
    R = np.array([[2.0, 0.0], [1.0, -1.0]])
    r = np.array([1.0, 2.0])
    img = affine_map(r, R, HEX)
    for _ in range(5):
        d = rng.normal(size=2)
        # support of the image equals the mapped support
        assert support(img, d) == pytest.approx(float(d @ r) + HEX.support(R.T @ d), abs=1e-8)


def test_intersect_membership(rng):
    shifted = Zonotope(HEX.c + np.array([0.8, 0.0]), HEX.G)
    both = intersect(HEX, shifted)
    assert not cz_is_empty(both)
    for _ in range(20):
        x = rng.uniform(-2.5, 3.5, size=2)
        in_both = cz_contains_point(HEX, x) and cz_contains_point(shifted, x)
        assert cz_contains_point(both, x) == in_both


def test_generalized_intersect(rng):
    # {x in HEX : R x in segment}
    R = np.array([[1.0, 1.0]])
    seg = Zonotope(np.array([0.0]), np.array([[0.3]]))
    cut = generalized_intersect(HEX, R, seg)
    for _ in range(20):
        x = rng.uniform(-2.0, 3.0, size=2)
        expected = cz_contains_point(HEX, x) and abs(x.sum()) <= 0.3 + 1e-9
        assert cz_contains_point(cut, x) == expected


def test_intersect_empty():
    far = Zonotope(HEX.c + np.array([100.0, 0.0]), HEX.G)
    assert cz_is_empty(intersect(HEX, far))


def test_support_of_empty_set():
    empty = ConstrainedZonotope(np.zeros(1), np.ones((1, 1)), np.ones((1, 1)), np.array([5.0]))
    assert support(empty, np.ones(1)) == -np.inf
    assert cz_is_empty(empty)


def test_chebyshev_unit_box():
    P = Polytope(np.vstack([np.eye(2), -np.eye(2)]), np.ones(4))
    res = chebyshev(P)
    assert isinstance(res, ChebyshevResult)
    assert res.radius == pytest.approx(1.0, abs=1e-9)
    np.testing.assert_allclose(res.center, 0.0, atol=1e-9)


def test_chebyshev_infeasible():
    P = Polytope(np.array([[1.0], [-1.0]]), np.array([0.0, -1.0]))  # x <= 0 and x >= 1
    # the empty slab yields a negative inflation radius
    assert chebyshev(P).radius == pytest.approx(-0.5, abs=1e-9)
    assert is_empty(P)


def test_chebyshev_unbounded():
    P = Polytope(np.array([[1.0, 0.0]]), np.array([1.0]))  # half-plane
    res = chebyshev(P)
    assert res.unbounded


def test_chebyshev_slab():
    # unbounded along x1 but the radius is finite: a dual row drops out as redundant
    P = Polytope(np.array([[2.0, 0.0], [-1.0, 0.0]]), np.array([2.0, 1.0]))
    res = chebyshev(P)
    assert res.radius == pytest.approx(1.0, abs=1e-12)
    assert res.center[0] == pytest.approx(0.0, abs=1e-12)


def test_chebyshev_zero_rows():
    # constant rows: feasible one is dropped, infeasible one empties the set
    P = Polytope(np.array([[0.0, 0.0], [1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]]),
                 np.array([3.0, 1.0, 1.0, 1.0, 1.0]))
    assert chebyshev(P).radius == pytest.approx(1.0, abs=1e-9)
    bad = Polytope(np.zeros((1, 2)), np.array([-1.0]))
    assert chebyshev(bad).radius == -np.inf
    # a stack in which every polytope has one leaves no LP to solve
    assert is_empty_stack(np.zeros((3, 1, 2)), -np.ones((3, 1))).tolist() == [True] * 3


def test_is_empty_threshold():
    # slab of half-width 1e-4: empty under a larger threshold, not under a smaller one
    P = Polytope(np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]]),
                 np.array([1e-4, 1e-4, 1.0, 1.0]))
    assert is_empty(P, radius_threshold=1e-3)
    assert not is_empty(P, radius_threshold=1e-6)


def _random_polytope(rng, kind):
    """Seeded random H-polytope of a given kind, with zero-normal rows mixed in."""
    n = int(rng.integers(2, 5))
    m = int(rng.integers(2 * n, 6 * n))
    A = rng.normal(size=(m, n)) * rng.uniform(0.1, 10.0, size=(m, 1))
    center = rng.uniform(-2.0, 2.0, size=n)
    if kind == "bounded":
        b = A @ center + rng.uniform(0.0, 1.0, size=m) * np.linalg.norm(A, axis=1)
    elif kind == "empty":  # pushed past the centre: mostly infeasible
        b = A @ center + rng.uniform(-1.0, 0.2, size=m) * np.linalg.norm(A, axis=1)
    else:  # every normal has a positive first entry, so balls grow along -e1
        A[:, 0] = np.abs(A[:, 0]) + 0.1
        b = A @ center + rng.uniform(-0.5, 1.0, size=m)
    zero_rhs = {"none": [], "positive": [0.5, 0.0], "negative": [1.0, -0.3]}[rng.choice(["none", "positive", "negative"])]
    for rhs in zero_rhs:
        k = int(rng.integers(0, A.shape[0] + 1))
        A = np.insert(A, k, 0.0, axis=0)
        b = np.insert(b, k, rhs)
    return Polytope(A, b), any(r < 0 for r in zero_rhs)


def _highs_radius(P):
    norms = np.linalg.norm(P.A, axis=1)
    keep = norms > 1e-14
    n = P.dim
    c = np.zeros(n + 1)
    c[-1] = -1.0
    ref = scipy.optimize.linprog(c, A_ub=np.hstack([P.A[keep], norms[keep][:, None]]), b_ub=P.b[keep],
                                 bounds=[(None, None)] * (n + 1), method="highs")
    assert ref.status in (0, 3)
    return np.inf if ref.status == 3 else -ref.fun


@pytest.mark.parametrize("seed", range(4))
def test_chebyshev_against_highs(seed):
    rng = np.random.default_rng(seed)
    seen = {"positive": 0, "negative": 0, "unbounded": 0}
    for kind in ["bounded", "empty", "unbounded"] * 20:
        P, bad_zero_row = _random_polytope(rng, kind)
        res = chebyshev(P)
        # -inf is reserved for a constant row with a negative right-hand side
        assert (res.radius == -np.inf) == bad_zero_row
        if bad_zero_row:
            continue
        ref = _highs_radius(P)
        if np.isinf(ref):
            assert res.unbounded
            seen["unbounded"] += 1
            continue
        assert res.radius == pytest.approx(ref, abs=1e-8 * (1.0 + abs(ref)))
        seen["positive" if ref > 0 else "negative"] += 1
        # the recovered centre has margin equal to the radius
        norms = np.linalg.norm(P.A, axis=1)
        keep = norms > 1e-14
        margin = np.min((P.b[keep] - P.A[keep] @ res.center) / norms[keep])
        assert margin == pytest.approx(res.radius, abs=1e-9 * (1.0 + abs(ref)))
        # the early-stopping emptiness test agrees with the full solve
        for t in (ref - 0.1, ref + 0.1, 0.0, DEFAULT_RADIUS_THRESHOLD):
            assert is_empty(P, t) == (res.radius < t)
    assert min(seen.values()) > 0


def _polytope_stack(rng, n=3, m=9):
    """Equal-shape polytopes of every kind, in a seeded order: bounded, empty,
    unbounded, with a zero-normal row (feasible or not), and a slab (rank-
    deficient normals, whose dual has a redundant row)."""
    kinds = ["bounded", "empty", "unbounded", "zero-row", "bad-zero-row", "slab"] * 3
    rng.shuffle(kinds)
    A = np.empty((len(kinds), m, n))
    b = np.empty((len(kinds), m))
    for k, kind in enumerate(kinds):
        Ak = rng.normal(size=(m, n)) * rng.uniform(0.1, 10.0, size=(m, 1))
        center = rng.uniform(-2.0, 2.0, size=n)
        width = rng.uniform(0.0, 1.0, size=m) * np.linalg.norm(Ak, axis=1)
        if kind == "unbounded":  # normals with a positive first entry: balls grow along -e1
            Ak[:, 0] = np.abs(Ak[:, 0]) + 0.1
        elif kind == "slab":  # every normal along +-e1
            Ak[:, 1:] = 0.0
            Ak[: m // 2, 0] = np.abs(Ak[: m // 2, 0]) + 0.1
            Ak[m // 2 :, 0] = -np.abs(Ak[m // 2 :, 0]) - 0.1
            width = rng.uniform(0.1, 1.0, size=m) * np.abs(Ak[:, 0])
        if kind == "empty":
            width = rng.uniform(-1.0, 0.2, size=m) * np.linalg.norm(Ak, axis=1)
        A[k], b[k] = Ak, Ak @ center + width
        if kind in ("zero-row", "bad-zero-row"):
            A[k, 0] = 0.0
            b[k, 0] = 0.5 if kind == "zero-row" else -0.3
    return kinds, A, b


@pytest.mark.parametrize("seed", range(3))
def test_is_empty_stack_against_chebyshev_and_highs(seed):
    kinds, A, b = _polytope_stack(np.random.default_rng(300 + seed))
    radii = []
    for k, kind in enumerate(kinds):
        P = Polytope(A[k], b[k])
        res = chebyshev(P)
        if kind == "bad-zero-row":
            assert res.radius == -np.inf
        else:
            ref = _highs_radius(P)
            assert (res.radius == np.inf) == (ref == np.inf)
            if np.isfinite(ref):
                assert res.radius == pytest.approx(ref, abs=1e-8 * (1.0 + abs(ref)))
            if kind in ("bounded", "slab", "zero-row"):
                assert ref > 0
        radii.append(res.radius)
    radii = np.array(radii)
    assert np.isinf(radii[[kind == "unbounded" for kind in kinds]]).all()
    finite = np.sort(radii[np.isfinite(radii)])
    middle = float(finite[finite.size // 2 - 1 : finite.size // 2 + 1].mean())  # between two radii
    for t in (0.0, DEFAULT_RADIUS_THRESHOLD, 0.3, middle):
        got = is_empty_stack(A, b, t)
        assert got.dtype == bool and got.shape == (len(kinds),)
        np.testing.assert_array_equal(got, radii < t)
        np.testing.assert_array_equal(got, [is_empty(Polytope(A[k], b[k]), t) for k in range(len(kinds))])


def test_support_stack_matches_single_directions(rng):
    Z = intersect(HEX, Zonotope(HEX.c + np.array([0.8, 0.0]), HEX.G))
    D = rng.normal(size=(8, 2))
    values = support(Z, D)
    assert values.shape == (8,)
    for d, value in zip(D, values):
        assert value == pytest.approx(support(Z, d), rel=1e-12, abs=1e-12)
    empty = ConstrainedZonotope(np.zeros(1), np.ones((1, 1)), np.ones((1, 1)), np.array([5.0]))
    assert np.all(support(empty, np.ones((3, 1))) == -np.inf)


def test_zonotope_halfspaces_box():
    box = Zonotope(np.array([1.0, -1.0]), np.diag([2.0, 3.0]))
    P = zonotope_halfspaces(box)
    assert P.A.shape[0] == 4
    # H-rep and support agree along every facet normal
    for row, rhs in zip(P.A, P.b):
        assert box.support(row) == pytest.approx(rhs, abs=1e-9)


def test_zonotope_halfspaces_hexagon(rng):
    P = zonotope_halfspaces(HEX)
    assert P.A.shape[0] == 6
    for _ in range(50):
        x = rng.uniform(-2.5, 3.5, size=2)
        assert bool(np.all(P.A @ x <= P.b + 1e-9)) == cz_contains_point(HEX, x)


def test_zonotope_halfspaces_interval():
    # 1-D zonotope [2 - 1.5, 2 + 1.5]
    seg = Zonotope(np.array([2.0]), np.array([[1.0, 0.5]]))
    P = zonotope_halfspaces(seg)
    assert P.A.shape == (2, 1)
    np.testing.assert_allclose(P.A, [[1.0], [-1.0]])
    np.testing.assert_allclose(P.b, [3.5, -0.5])


def test_zonotope_halfspaces_degenerate():
    point = Zonotope(np.zeros(2), np.zeros((2, 1)))
    with pytest.raises(ValueError):
        zonotope_halfspaces(point)


def test_cz_contains_point_dim_check():
    with pytest.raises(DimensionMismatch):
        cz_contains_point(HEX, np.zeros(3))
