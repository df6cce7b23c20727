import numpy as np
import pytest
import scipy.optimize

from czempc import lp
from czempc.lp import LpResult, SimplexStalled, solve_lp, solve_lp_stack, solve_stack


def test_simple_bounded():
    # min -x - y on the unit square
    res = solve_lp(np.array([-1.0, -1.0]), lb=0.0, ub=1.0)
    assert res.status == "optimal"
    np.testing.assert_allclose(res.x, [1.0, 1.0], atol=1e-9)
    assert res.fun == pytest.approx(-2.0, abs=1e-9)


def _slack_form(c, A_ub, b_ub):
    """``min c@x s.t. A_ub x <= b_ub, x >= 0`` with one slack column per row."""
    k = A_ub.shape[0]
    return np.hstack([A_ub, np.eye(k)]), b_ub, np.concatenate([c, np.zeros(k)])


def test_inequality_rows():
    # min -x s.t. x + y <= 1, 0 <= x, y <= 10
    A_ub = np.vstack([[1.0, 1.0], np.eye(2)])
    res = solve_stack(*_slack_form(np.array([-1.0, 0.0]), A_ub, np.array([1.0, 10.0, 10.0])))[0]
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
    # min -x s.t. -x <= 0, x >= 0
    res = solve_stack(*_slack_form(np.array([-1.0]), np.array([[-1.0]]), np.array([0.0])))[0]
    assert res.status == "unbounded"


def test_redundant_equalities():
    A_eq = np.array([[1.0, 1.0], [2.0, 2.0]])  # second row redundant
    res = solve_lp(np.array([1.0, 0.0]), A_eq=A_eq, b_eq=np.array([1.0, 2.0]), lb=0.0, ub=2.0)
    assert res.status == "optimal"
    assert res.x.sum() == pytest.approx(1.0, abs=1e-9)
    assert res.x[0] == pytest.approx(0.0, abs=1e-9)


def test_degenerate_does_not_cycle():
    # classic degeneracy: many redundant constraints through the optimum; 0 <= x <= 5
    A_ub = np.vstack([[[1.0, 0.0], [1.0, 1.0], [1.0, 2.0], [1.0, 3.0]], np.eye(2)])
    b_ub = np.array([1.0, 1.0, 1.0, 1.0, 5.0, 5.0])
    res = solve_stack(*_slack_form(np.array([-1.0, 0.0]), A_ub, b_ub))[0]
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
    # -1 <= x <= 1 as y = x + 1 in [0, 2]
    A_y = np.vstack([A_ub, np.eye(n)])
    b_y = np.concatenate([b_ub + A_ub.sum(axis=1), np.full(n, 2.0)])
    res = solve_stack(*_slack_form(c, A_y, b_y))[0]
    ref = scipy.optimize.linprog(c, A_ub=A_ub, b_ub=b_ub, bounds=[(-1, 1)] * n, method="highs")
    assert res.status == "optimal" and ref.status == 0
    x = res.x[:n] - 1.0
    assert res.fun - c.sum() == pytest.approx(ref.fun, abs=1e-8)
    assert np.all(A_ub @ x <= b_ub + 1e-8)


@pytest.mark.parametrize("seed", range(8))
def test_box_equality_against_scipy(seed):
    # min c@x s.t. A_eq x = b_eq, lb <= x <= ub; infeasible for odd seeds
    rng = np.random.default_rng(100 + seed)
    n, k = 7, 3
    c = rng.normal(size=n)
    A_eq = rng.normal(size=(k, n))
    lb = -rng.uniform(0.5, 2.0, size=n)
    ub = rng.uniform(0.5, 2.0, size=n)
    b_eq = A_eq @ rng.uniform(lb, ub)
    if seed % 2:  # an equality no box point can meet
        b_eq[0] = np.abs(A_eq[0]) @ np.maximum(np.abs(lb), ub) + 1.0
    res = solve_lp(c, A_eq=A_eq, b_eq=b_eq, lb=lb, ub=ub)
    ref = scipy.optimize.linprog(c, A_eq=A_eq, b_eq=b_eq, bounds=list(zip(lb, ub)), method="highs")
    if seed % 2:
        assert ref.status == 2 and res.status == "infeasible"
        return
    assert ref.status == 0 and res.status == "optimal"
    assert res.fun == pytest.approx(ref.fun, abs=1e-8)
    np.testing.assert_allclose(A_eq @ res.x, b_eq, atol=1e-8)
    assert np.all(res.x >= lb - 1e-9) and np.all(res.x <= ub + 1e-9)


@pytest.mark.parametrize(
    "bound", [{"lb": -np.inf, "ub": 1.0}, {"lb": 0.0, "ub": np.inf}, {"lb": [0.0, np.nan], "ub": 1.0}]
)
def test_non_finite_bound_rejected(bound):
    with pytest.raises(ValueError):
        solve_lp(np.ones(2), **bound)


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
    T, basis = T[None], basis[None]  # a stack of one
    assert lp._run_simplex(T, basis, 1e-9)[0] == "optimal"
    ref = scipy.optimize.linprog(c, A_eq=A, b_eq=b, bounds=[(0, None)] * 7, method="highs")
    assert -T[0, -1, -1] == pytest.approx(ref.fun, abs=1e-9)
    # without the fallback the same tableau cycles until the iteration cap
    monkeypatch.setattr(lp, "_DEGENERATE_RUN", 10**9)
    monkeypatch.setattr(lp, "_MAX_ITER", 200)
    T, basis, *_ = _beale_tableau()
    with pytest.raises(SimplexStalled):
        lp._run_simplex(T[None], basis[None], 1e-9)


def test_bland_fallback_is_per_lp():
    # Beale's cycling LP between two that never pivot degenerately: each LP of
    # the stack counts its own degenerate run, and every one matches its solve
    # as a stack of one, pivot for pivot
    T, basis, A, b, c = _beale_tableau()
    others = [np.array([1.0, 2.0, 3.0, 4.0, 0.0, 0.0, 0.0]), np.array([0.0, 0.0, -1.0, 0.0, 0.0, 0.0, 0.0])]
    stack = np.repeat(T[None], 3, axis=0)
    stack[0, -1, :7] = others[0]
    stack[2, -1, :7] = others[1]
    bases = np.repeat(basis[None], 3, axis=0)
    alone = [(stack[k : k + 1].copy(), bases[k : k + 1].copy()) for k in range(3)]
    status = lp._run_simplex(stack, bases, 1e-9)
    assert list(status) == ["optimal"] * 3
    for k, (T1, basis1) in enumerate(alone):
        assert lp._run_simplex(T1, basis1, 1e-9)[0] == "optimal"
        np.testing.assert_array_equal(stack[k], T1[0])
        np.testing.assert_array_equal(bases[k], basis1[0])
        cost = c if k == 1 else others[k // 2]
        ref = scipy.optimize.linprog(cost, A_eq=A, b_eq=b, bounds=[(0, None)] * 7, method="highs")
        assert -stack[k, -1, -1] == pytest.approx(ref.fun, abs=1e-9)


def _random_standard_form(rng, kind, m=4, n=9):
    """``A x = b, x >= 0`` with a known status: optimal, infeasible, unbounded
    or degenerate (many zero right-hand sides), plus a redundant row."""
    A = rng.normal(size=(m, n))
    x = rng.uniform(0.0, 1.0, size=n)
    if kind == "degenerate":
        x[: n - m + 1] = 0.0
    b = A @ x
    c = rng.normal(size=n)
    if kind == "optimal" or kind == "degenerate":
        c += np.abs(c).max() + 0.1  # positive costs: bounded below by 0
    elif kind == "infeasible":
        A[0] = np.abs(A[0])
        b[0] = -1.0  # a nonnegative row cannot sum to a negative value
    else:  # unbounded: a recession direction d >= 0 with A d = 0 and c'd < 0
        A[:, -1] = -A[:, : n - 1] @ np.ones(n - 1)
        b = A @ x
        c = np.abs(c)
        c[-1] = -(n - 1) * c.max() - 1.0
    A[-1] = A[0] + A[1]
    b[-1] = b[0] + b[1]
    return A, b, c


@pytest.mark.parametrize("seed", range(4))
def test_stack_matches_one_by_one(seed):
    rng = np.random.default_rng(40 + seed)
    kinds = ["optimal", "infeasible", "unbounded", "degenerate"] * 3
    rng.shuffle(kinds)
    problems = [_random_standard_form(rng, kind) for kind in kinds]
    A = np.array([p[0] for p in problems])
    b = np.array([p[1] for p in problems])
    C = np.array([p[2] for p in problems])
    # per-LP cutoffs: the first LP of each kind stops at its first feasible point
    cutoff = np.array([1e3 if kinds.index(kind) == k else -np.inf for k, kind in enumerate(kinds)])
    stacked = solve_stack(A, b, C, cutoff=cutoff)
    seen = set()
    for k, kind in enumerate(kinds):
        alone = solve_stack(A[k], b[k], C[k], cutoff=cutoff[k])[0]
        res = stacked[k]
        assert res.status == alone.status
        seen.add(res.status)
        expected = {"optimal": "optimal", "degenerate": "optimal", "infeasible": "infeasible", "unbounded": "unbounded"}[kind]
        if cutoff[k] > 0 and expected != "infeasible":
            expected = "cutoff"  # every feasible point beats a cutoff of 1e3
        assert res.status == expected
        if res.status == "optimal":
            # the same pivots; phase 2's starting costs may round differently
            np.testing.assert_allclose(res.x, alone.x, rtol=1e-12, atol=1e-14)
            np.testing.assert_array_equal(res.basis, alone.basis)
            ref = scipy.optimize.linprog(C[k], A_eq=A[k], b_eq=b[k], bounds=[(0, None)] * A.shape[2], method="highs")
            assert res.fun == pytest.approx(ref.fun, abs=1e-8 * (1.0 + abs(ref.fun)))
            np.testing.assert_allclose(A[k] @ res.x, b[k], atol=1e-8)
        if res.status == "cutoff":
            assert res.fun == pytest.approx(alone.fun, rel=1e-12) and res.fun < cutoff[k]
    assert seen == {"optimal", "infeasible", "unbounded", "cutoff"}


def _assert_pivots_as_alone(monkeypatch, T, basis, tol, cutoff) -> list:
    """Run the stack ``T``, ``basis`` and each of its LPs alone; every
    tableau, basis and status must agree, and the stack must pivot each LP
    exactly as often as its solve alone does. Returns those pivot counts."""
    pivot, per_lp = lp._pivot, [0]

    def counting(T, r, j):
        per_lp[0] += T.shape[0]
        pivot(T, r, j)

    monkeypatch.setattr(lp, "_pivot", counting)
    cutoff = np.broadcast_to(cutoff, T.shape[:1])
    alone = [(T[k : k + 1].copy(), basis[k : k + 1].copy()) for k in range(len(T))]
    status = lp._run_simplex(T, basis, tol, cutoff)
    stacked, counts = per_lp[0], []
    for k, (T1, basis1) in enumerate(alone):
        per_lp[0] = 0
        assert lp._run_simplex(T1, basis1, tol, cutoff[k])[0] == status[k]
        counts.append(per_lp[0])
        np.testing.assert_array_equal(T[k], T1[0])
        np.testing.assert_array_equal(basis[k], basis1[0])
    monkeypatch.setattr(lp, "_pivot", pivot)
    assert stacked == sum(counts)
    return counts


def test_finished_lps_leave_the_stack(monkeypatch):
    # LPs that stop at different iterations, with every status: each one that
    # stops is written back and dropped from the stack, and the others go on
    # pivoting exactly as they would alone, in both phases
    rng = np.random.default_rng(11)
    kinds = ["optimal", "infeasible", "unbounded", "degenerate"] * 3
    problems = [_random_standard_form(rng, kind) for kind in kinds]
    A, b, C = (np.array([p[i] for p in problems]) for i in range(3))
    cutoff = np.where(np.arange(len(kinds)) % 5 == 0, 1e3, -np.inf)  # these stop at their first feasible point
    run, calls = lp._run_simplex, []

    def recording(T, basis, tol, cutoff=-np.inf):
        calls.append((T.copy(), basis.copy(), tol, cutoff))
        return run(T, basis, tol, cutoff)

    monkeypatch.setattr(lp, "_run_simplex", recording)
    results = solve_stack(A, b, C, cutoff=cutoff)
    monkeypatch.setattr(lp, "_run_simplex", run)
    assert {res.status for res in results} == {"optimal", "cutoff", "unbounded", "infeasible"}
    assert len(calls) == 2  # phase 1 of every LP, then phase 2 of the feasible ones
    counts = [_assert_pivots_as_alone(monkeypatch, *call) for call in calls]
    assert len(set(counts[0])) >= 3 and len(set(counts[1])) >= 3
    # Beale's cycling LP between two that finish first, one after 0 pivots and
    # one after 3, amid Beale's degenerate run: Beale keeps its own count, so it
    # turns to Bland's rule as it would alone
    T, basis, *_ = _beale_tableau()
    stack = np.repeat(T[None], 3, axis=0)
    stack[0, -1, :7] = [1.0, 2.0, 3.0, 4.0, 0.0, 0.0, 0.0]
    stack[2, -1, :7] = [-0.1, 2.7, 1.0, -0.8, 0.0, 0.0, 0.0]
    counts = _assert_pivots_as_alone(monkeypatch, stack, np.repeat(basis[None], 3, axis=0), 1e-9, -np.inf)
    assert counts[0] == 0 and counts[2] == 3 and counts[1] > lp._DEGENERATE_RUN


def test_shared_phase_one_matches_separate_solves():
    rng = np.random.default_rng(7)
    n, k = 6, 2
    A_eq = rng.normal(size=(k, n))
    b_eq = A_eq @ rng.uniform(-0.5, 0.5, size=n)
    C = rng.normal(size=(8, n))
    results = solve_lp_stack(C, A_eq, b_eq, lb=-1.0, ub=1.0)
    for c, res in zip(C, results):
        alone = solve_lp(c, A_eq, b_eq, lb=-1.0, ub=1.0)
        assert res.status == alone.status == "optimal"
        assert res.fun == alone.fun
        ref = scipy.optimize.linprog(c, A_eq=A_eq, b_eq=b_eq, bounds=[(-1, 1)] * n, method="highs")
        assert res.fun == pytest.approx(ref.fun, abs=1e-8)
    # an infeasible shared system leaves every objective infeasible
    bad = solve_lp_stack(C, A_eq, b_eq + 100.0, lb=-1.0, ub=1.0)
    assert [res.status for res in bad] == ["infeasible"] * len(C)


def test_cutoff_stops_at_a_feasible_point():
    # min x0 + 2 x1 + 3 x2 s.t. x0 + x1 + x2 = 1, x >= 0; optimum 1
    A, b, c = np.ones((1, 3)), np.ones(1), np.array([1.0, 2.0, 3.0])
    assert solve_stack(A, b, c)[0].fun == pytest.approx(1.0)
    res = solve_stack(A, b, c, cutoff=2.5)[0]
    assert res.status == "cutoff"
    assert 1.0 <= res.fun < 2.5  # an upper bound on the optimum, below the cutoff
    assert solve_stack(A, b, c, cutoff=0.5)[0].status == "optimal"


def test_empty_stack_returns_at_once(monkeypatch):
    # with no LP to stop, the iteration used to run to its cap and raise
    monkeypatch.setattr(lp, "_MAX_ITER", 10)
    assert solve_stack(np.zeros((0, 2, 3)), np.zeros((0, 2)), np.zeros((0, 3))) == []
    assert solve_stack(np.ones((1, 3)), np.ones(1), np.zeros((0, 3))) == []  # shared A, no objective
