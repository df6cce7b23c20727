import numpy as np
import pytest
import scipy.optimize

from czempc import lp
from czempc.lp import LpResult, SimplexStalled, solve_lp, solve_standard_form


def test_simple_bounded():
    # min -x - y on the unit square
    res = solve_lp(np.array([-1.0, -1.0]), lb=0.0, ub=1.0)
    assert res.status == "optimal"
    np.testing.assert_allclose(res.x, [1.0, 1.0], atol=1e-9)
    assert res.fun == pytest.approx(-2.0, abs=1e-9)


def test_inequality_rows():
    # min -x s.t. x + y <= 1, x, y >= 0
    res = solve_lp(
        np.array([-1.0, 0.0]),
        A_ub=np.array([[1.0, 1.0]]),
        b_ub=np.array([1.0]),
        lb=0.0,
        ub=10.0,
    )
    assert res.status == "optimal"
    assert res.x[0] == pytest.approx(1.0, abs=1e-9)


def test_equality_rows():
    res = solve_lp(
        np.array([1.0, 2.0, 0.0]),
        A_eq=np.array([[1.0, 1.0, 1.0]]),
        b_eq=np.array([1.0]),
        lb=-1.0,
        ub=1.0,
    )
    assert res.status == "optimal"
    assert res.x.sum() == pytest.approx(1.0, abs=1e-9)
    # x1 hits its lower bound, forcing x0 = x2 = 1 through the equality
    assert res.fun == pytest.approx(-1.0, abs=1e-9)
    np.testing.assert_allclose(res.x, [1.0, -1.0, 1.0], atol=1e-9)


def test_infeasible():
    res = solve_lp(
        np.zeros(2),
        A_eq=np.array([[1.0, 0.0]]),
        b_eq=np.array([5.0]),
        lb=-1.0,
        ub=1.0,
    )
    assert res.status == "infeasible"


def test_unbounded():
    res = solve_lp(np.array([-1.0]), A_ub=np.array([[-1.0]]), b_ub=np.array([0.0]))
    assert res.status == "unbounded"


def test_redundant_equalities():
    A_eq = np.array([[1.0, 1.0], [2.0, 2.0]])  # second row redundant
    res = solve_lp(np.array([1.0, 0.0]), A_eq=A_eq, b_eq=np.array([1.0, 2.0]), lb=0.0, ub=2.0)
    assert res.status == "optimal"
    assert res.x.sum() == pytest.approx(1.0, abs=1e-9)
    assert res.x[0] == pytest.approx(0.0, abs=1e-9)


def test_degenerate_does_not_cycle():
    # classic degeneracy: many redundant constraints through the optimum
    A_ub = np.array([[1.0, 0.0], [1.0, 1.0], [1.0, 2.0], [1.0, 3.0]])
    b_ub = np.ones(4)
    res = solve_lp(np.array([-1.0, 0.0]), A_ub=A_ub, b_ub=b_ub, lb=0.0, ub=5.0)
    assert res.status == "optimal"
    assert res.x[0] == pytest.approx(1.0, abs=1e-9)


@pytest.mark.parametrize("seed", range(8))
def test_random_against_scipy(seed):
    rng = np.random.default_rng(seed)
    n, k = 5, 8
    c = rng.normal(size=n)
    A_ub = rng.normal(size=(k, n))
    interior = rng.uniform(-0.5, 0.5, size=n)
    b_ub = A_ub @ interior + rng.uniform(0.1, 1.0, size=k)  # keeps the LP feasible
    res = solve_lp(c, A_ub=A_ub, b_ub=b_ub, lb=-1.0, ub=1.0)
    ref = scipy.optimize.linprog(c, A_ub=A_ub, b_ub=b_ub, bounds=[(-1, 1)] * n, method="highs")
    assert res.status == "optimal" and ref.status == 0
    assert res.fun == pytest.approx(ref.fun, abs=1e-8)
    assert np.all(A_ub @ res.x <= b_ub + 1e-8)


def test_result_type():
    res = solve_lp(np.zeros(1), lb=0.0, ub=1.0)
    assert isinstance(res, LpResult)
    assert res.status == "optimal"


def _beale_tableau():
    # Beale's example with its slack basis: Dantzig's rule with lowest-index
    # leaving ties cycles
    c = np.array([-0.75, 20.0, -0.5, 6.0, 0.0, 0.0, 0.0])
    A = np.array([[0.25, -8.0, -1.0, 9.0, 1.0, 0.0, 0.0],
                  [0.5, -12.0, -0.5, 3.0, 0.0, 1.0, 0.0],
                  [0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 1.0]])
    b = np.array([0.0, 0.0, 1.0])
    T = np.zeros((4, 8))
    T[:3, :7] = A
    T[:3, -1] = b
    T[-1, :7] = c
    return T, np.array([4, 5, 6]), A, b, c


def test_bland_fallback_breaks_cycle(monkeypatch):
    T, basis, A, b, c = _beale_tableau()
    assert lp._run_simplex(T, basis, 1e-9) == "optimal"
    ref = scipy.optimize.linprog(c, A_eq=A, b_eq=b, bounds=[(0, None)] * 7, method="highs")
    assert -T[-1, -1] == pytest.approx(ref.fun, abs=1e-9)
    # without the fallback the same tableau cycles until the iteration cap
    monkeypatch.setattr(lp, "_DEGENERATE_RUN", 10**9)
    monkeypatch.setattr(lp, "_MAX_ITER", 200)
    T, basis, *_ = _beale_tableau()
    with pytest.raises(SimplexStalled):
        lp._run_simplex(T, basis, 1e-9)


def test_cutoff_stops_at_a_feasible_point():
    # min x0 + 2 x1 + 3 x2 s.t. x0 + x1 + x2 = 1, x >= 0; optimum 1
    A, b, c = np.ones((1, 3)), np.ones(1), np.array([1.0, 2.0, 3.0])
    assert solve_standard_form(A, b, c).fun == pytest.approx(1.0)
    res = solve_standard_form(A, b, c, cutoff=2.5)
    assert res.status == "cutoff"
    assert 1.0 <= res.fun < 2.5  # an upper bound on the optimum, below the cutoff
    assert solve_standard_form(A, b, c, cutoff=0.5).status == "optimal"
