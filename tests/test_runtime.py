import numpy as np
import pytest
import scipy.optimize

from czempc.runtime import (
    ActiveSubsetOracle,
    CapExceeded,
    InfeasibleError,
    evaluate,
    locate,
    oracle_qp,
    polyhedral_feasible,
    simulate,
)
from czempc.sets import Polytope, chebyshev


def test_locate_origin_is_root(dint_tree):
    assert locate(dint_tree, np.zeros(2)) == 0


def test_locate_outside(dint_tree):
    assert locate(dint_tree, np.array([50.0, 50.0])) is None
    with pytest.raises(InfeasibleError):
        evaluate(dint_tree, np.array([50.0, 50.0]))


def test_locate_every_chebyshev_center(dint_tree):
    for nd in dint_tree.nodes:
        center = chebyshev(Polytope(nd.region.L, nd.region.l)).center
        node_id = locate(dint_tree, center)
        assert node_id is not None
        assert dint_tree.nodes[node_id].region.contains(center)


def test_evaluate_matches_law(dint_tree):
    x0 = np.array([1.0, 0.5])
    node_id = locate(dint_tree, x0)
    u0 = evaluate(dint_tree, x0)
    assert u0.shape == (dint_tree.m,)
    np.testing.assert_allclose(u0, dint_tree.nodes[node_id].law(x0)[: dint_tree.m])


def test_simulate_regulates_to_origin(dint_cp, dint_tree):
    x0 = np.array([2.0, -1.0])
    traj = simulate(dint_tree, dint_cp.A_d, dint_cp.B_d, dint_cp.Q, dint_cp.R, x0, steps=25)
    assert traj.states.shape == (26, 2)
    assert traj.inputs.shape == (25, 1)
    # dynamics hold exactly along the trajectory
    for k in range(25):
        np.testing.assert_allclose(
            traj.states[k + 1], dint_cp.A_d @ traj.states[k] + dint_cp.B_d @ traj.inputs[k]
        )
        assert np.max(np.abs(traj.inputs[k])) <= 1 + 1e-9
    assert np.linalg.norm(traj.states[-1]) < 1e-3
    assert traj.costs[0] == pytest.approx(
        float(x0 @ dint_cp.Q @ x0 + traj.inputs[0] @ dint_cp.R @ traj.inputs[0])
    )


def test_simulate_infeasible_start(dint_cp, dint_tree):
    with pytest.raises(InfeasibleError):
        simulate(dint_tree, dint_cp.A_d, dint_cp.B_d, dint_cp.Q, dint_cp.R, np.array([30.0, 0.0]), 3)


def test_polyhedral_feasible(dint_cp):
    assert polyhedral_feasible(dint_cp, np.zeros(2))
    assert not polyhedral_feasible(dint_cp, np.array([30.0, 0.0]))


@pytest.mark.parametrize("problem", ["doubleint", "paper4state"])
def test_polyhedral_feasible_against_highs(problem, dint_cp, paper_cp):
    cp, half = (dint_cp, 8.0) if problem == "doubleint" else (paper_cp(2), 12.0)
    rng = np.random.default_rng(7)
    verdicts = []
    for _ in range(60):
        x0 = rng.uniform(-half, half, size=cp.n)
        ref = scipy.optimize.linprog(
            np.zeros(cp.A_poly.shape[1]), A_ub=cp.A_poly, b_ub=cp.b_poly + cp.E_poly @ x0,
            bounds=(None, None), method="highs",
        )
        assert ref.status in (0, 2)  # feasible or infeasible
        assert polyhedral_feasible(cp, x0) == (ref.status == 0)
        verdicts.append(ref.status == 0)
    assert any(verdicts) and not all(verdicts)


def test_oracle_unconstrained_region(dint_cp):
    # near the origin no constraint is active: KKT solution is -Qt^{-1} Ht' x0
    x0 = np.array([0.2, -0.1])
    sol = oracle_qp(dint_cp, x0)
    assert sol is not None
    assert sol.active_rows == ()
    u_ref = -np.linalg.solve(dint_cp.Qtilde, dint_cp.Htilde.T @ x0)
    np.testing.assert_allclose(sol.u_star, u_ref, atol=1e-9)
    assert sol.cost == pytest.approx(dint_cp.objective(u_ref, x0), abs=1e-10)


def test_oracle_infeasible(dint_cp):
    assert oracle_qp(dint_cp, np.array([30.0, 0.0])) is None


def test_oracle_feasibility_matches_lp(dint_cp, rng):
    for _ in range(30):
        x0 = rng.uniform(-8, 8, size=2)
        assert (oracle_qp(dint_cp, x0) is not None) == polyhedral_feasible(dint_cp, x0)


def test_oracle_never_beaten_by_feasible_points(dint_cp, rng):
    """No feasible input may cost less than the oracle optimum."""
    x0 = np.array([1.5, 0.3])
    sol = oracle_qp(dint_cp, x0)
    rhs = dint_cp.b_poly + dint_cp.E_poly @ x0
    for _ in range(300):
        u = rng.uniform(-1, 1, size=dint_cp.N * dint_cp.m)
        if np.all(dint_cp.A_poly @ u <= rhs):
            assert dint_cp.objective(u, x0) >= sol.cost - 1e-9


def test_oracle_cached_on_problem(dint_cp):
    oracle_qp(dint_cp, np.zeros(2))
    first = dint_cp._oracle
    oracle_qp(dint_cp, np.ones(2))
    assert dint_cp._oracle is first


def test_oracle_size_cap(dint_cp):
    with pytest.raises(CapExceeded):
        ActiveSubsetOracle(dint_cp, size_cap=5)
