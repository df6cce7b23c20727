import numpy as np
import pytest
import scipy.optimize
from oracle import ActiveSubsetOracle, CapExceeded, oracle_for, oracle_qp, polyhedral_feasible, polyhedral_rows

from czempc.explorer import export_json, import_json
from czempc.runtime import LOCATE_TOL, InfeasibleError, evaluate, locate, simulate
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


def scan_locate(tree, x0, tol=LOCATE_TOL):
    """The per-region scan that the blocked search in ``locate`` replaced."""
    x0 = np.asarray(x0, dtype=float).ravel()
    for nd in tree.nodes:
        if nd.region.contains(x0, tol):
            return nd.node_id
    return None


def _centers(tree):
    return np.array([chebyshev(Polytope(nd.region.L, nd.region.l)).center for nd in tree.nodes])


def _facet_points(tree, centers):
    """Where the segment from a parent's centre to its child's leaves the
    parent: on a facet the two regions share, so both contain it."""
    out = []
    for parent, child, _ in tree.edges():
        L, l = tree.nodes[parent].region.L, tree.nodes[parent].region.l
        c, d = centers[parent], centers[child] - centers[parent]
        rate = L @ d
        t = np.min((l - L @ c)[rate > 0] / rate[rate > 0])
        out.append(c + t * d)
    return np.array(out)


def _probe_points(tree, doc, rng):
    """Seeded uniform points over X doubled (some outside every region), every
    Chebyshev centre, and points on facets shared by a parent and its child."""
    c, G = np.asarray(doc["X"]["c"], dtype=float), np.asarray(doc["X"]["G"], dtype=float)
    uniform = c + rng.uniform(-2.0, 2.0, (400, G.shape[1])) @ G.T
    centers = _centers(tree)
    return uniform, centers, _facet_points(tree, centers)


@pytest.fixture(params=["doubleint", "paper4state-N1", "paper4state-N2"])
def located(request, dint_tree, dint_doc, paper_tree, paper_doc):
    if request.param == "doubleint":
        return dint_tree, dint_doc
    return paper_tree(int(request.param[-1]), "iter"), paper_doc


@pytest.mark.parametrize("tol", [LOCATE_TOL, 1e-3])
def test_locate_matches_scan(located, tol):
    tree, doc = located
    uniform, centers, facets = _probe_points(tree, doc, np.random.default_rng(11))
    found = {}
    for name, points in [("uniform", uniform), ("centers", centers), ("facets", facets)]:
        found[name] = [locate(tree, x, tol) for x in points]
        assert found[name] == [scan_locate(tree, x, tol) for x in points], name
    assert None in found["uniform"] and any(k is not None for k in found["uniform"])
    # 9 = 1 + 4 + 4 and 31 = 1 + 4 + 16 + 10 regions: both end in a partial block
    assert tree.num_regions in (9, 31)
    if tol == LOCATE_TOL:
        # each centre lies in its own region only, so every block edge is hit
        assert found["centers"] == list(range(tree.num_regions))
    # a point on a facet shared by a parent and its child goes to the parent
    ties = [
        (parent, k)
        for (parent, child, _), x, k in zip(tree.edges(), facets, found["facets"])
        if tree.nodes[child].region.contains(x, tol)
    ]
    assert ties and all(k <= parent for parent, k in ties)


def test_locate_rebuilds_after_new_node(paper_tree):
    full = paper_tree(2, "iter")
    tree = import_json(export_json(full))
    centers = _centers(full)
    del tree.nodes[6:]
    assert [locate(tree, x) for x in centers] == [scan_locate(tree, x) for x in centers]
    assert locate(tree, centers[6]) is None
    tree.nodes.append(full.nodes[6])
    assert locate(tree, centers[6]) == 6
    assert [locate(tree, x) for x in centers] == [scan_locate(tree, x) for x in centers]


def test_evaluate_matches_law(dint_tree):
    x0 = np.array([1.0, 0.5])
    node_id = locate(dint_tree, x0)
    u0 = evaluate(dint_tree, x0)
    assert u0.shape == (dint_tree.m,)
    np.testing.assert_allclose(u0, dint_tree.nodes[node_id].law(x0)[: dint_tree.m])


def _dynamics(problem):
    return problem.A_d, problem.B_d, problem.Q, problem.R


def test_simulate_regulates_to_origin(dint_problem, dint_tree):
    x0 = np.array([2.0, -1.0])
    traj = simulate(dint_tree, *_dynamics(dint_problem), x0, steps=25)
    assert traj.states.shape == (26, 2)
    assert traj.inputs.shape == (25, 1)
    # dynamics hold exactly along the trajectory
    for k in range(25):
        np.testing.assert_allclose(
            traj.states[k + 1], dint_problem.A_d @ traj.states[k] + dint_problem.B_d @ traj.inputs[k]
        )
        assert np.max(np.abs(traj.inputs[k])) <= 1 + 1e-9
    assert np.linalg.norm(traj.states[-1]) < 1e-3
    assert traj.costs[0] == pytest.approx(
        float(x0 @ dint_problem.Q @ x0 + traj.inputs[0] @ dint_problem.R @ traj.inputs[0])
    )


def test_simulate_infeasible_start(dint_problem, dint_tree):
    with pytest.raises(InfeasibleError):
        simulate(dint_tree, *_dynamics(dint_problem), np.array([30.0, 0.0]), 3)


def test_polyhedral_feasible(dint_problem):
    assert polyhedral_feasible(dint_problem, np.zeros(2))
    assert not polyhedral_feasible(dint_problem, np.array([30.0, 0.0]))


@pytest.mark.parametrize("problem", ["doubleint", "paper4state"])
def test_polyhedral_feasible_against_highs(problem, dint_problem, paper_problem):
    p, half = (dint_problem, 8.0) if problem == "doubleint" else (paper_problem(2), 12.0)
    A, b, E = polyhedral_rows(p)
    rng = np.random.default_rng(7)
    verdicts = []
    for _ in range(60):
        x0 = rng.uniform(-half, half, size=p.n)
        ref = scipy.optimize.linprog(
            np.zeros(A.shape[1]), A_ub=A, b_ub=b + E @ x0,
            bounds=(None, None), method="highs",
        )
        assert ref.status in (0, 2)  # feasible or infeasible
        assert polyhedral_feasible(p, x0) == (ref.status == 0)
        verdicts.append(ref.status == 0)
    assert any(verdicts) and not all(verdicts)


def test_oracle_unconstrained_region(dint_problem, dint_cp):
    # near the origin no constraint is active: KKT solution is -Qt^{-1} Ht' x0
    x0 = np.array([0.2, -0.1])
    sol = oracle_qp(dint_problem, x0)
    assert sol is not None
    assert sol.active_rows == ()
    u_ref = -np.linalg.solve(dint_cp.Qtilde, dint_cp.Htilde.T @ x0)
    np.testing.assert_allclose(sol.u_star, u_ref, atol=1e-9)
    assert sol.cost == pytest.approx(dint_cp.objective(u_ref, x0), abs=1e-10)


def test_oracle_infeasible(dint_problem):
    assert oracle_qp(dint_problem, np.array([30.0, 0.0])) is None


def test_oracle_feasibility_matches_lp(dint_problem, rng):
    for _ in range(30):
        x0 = rng.uniform(-8, 8, size=2)
        assert (oracle_qp(dint_problem, x0) is not None) == polyhedral_feasible(dint_problem, x0)


def test_oracle_never_beaten_by_feasible_points(dint_problem, dint_cp, rng):
    """No feasible input may cost less than the oracle optimum."""
    x0 = np.array([1.5, 0.3])
    sol = oracle_qp(dint_problem, x0)
    A, b, E = polyhedral_rows(dint_problem)
    rhs = b + E @ x0
    for _ in range(300):
        u = rng.uniform(-1, 1, size=dint_cp.N * dint_cp.m)
        if np.all(A @ u <= rhs):
            assert dint_cp.objective(u, x0) >= sol.cost - 1e-9


def test_oracle_cached_on_problem(dint_problem):
    oracle_qp(dint_problem, np.zeros(2))
    first = oracle_for(dint_problem)
    oracle_qp(dint_problem, np.ones(2))
    assert oracle_for(dint_problem) is first


def test_oracle_size_cap(dint_problem):
    with pytest.raises(CapExceeded):
        ActiveSubsetOracle(dint_problem, size_cap=5)


def test_simulate_rejects_negative_steps(dint_tree, dint_problem):
    with pytest.raises(ValueError):
        simulate(dint_tree, *_dynamics(dint_problem), np.zeros(2), steps=-1)
    traj = simulate(dint_tree, *_dynamics(dint_problem), np.zeros(2), steps=0)
    assert traj.states.shape == (1, 2) and traj.inputs.shape[0] == 0


def test_simulate_zero_steps_keeps_input_columns(dint_tree, dint_problem):
    # a trajectory of no steps still has inputs of shape steps x m
    traj = simulate(dint_tree, *_dynamics(dint_problem), np.array([2.0, -1.0]), steps=0)
    assert traj.states.shape == (1, 2)
    assert traj.inputs.shape == (0, 1)
    assert traj.costs.shape == (0,)
