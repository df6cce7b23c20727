import dataclasses

import numpy as np
import pytest
import scipy.linalg
from oracle import cz_contains_point, polyhedral_rows

from czempc.cli import parse_problem
from czempc.condense import (
    MpcProblem,
    NotConverged,
    NotInvertible,
    NotPositiveDefinite,
    NotStable,
    TerminalRecurrence,
    build_condensed_qp,
    build_prediction_matrices,
    build_terminal_set,
    eliminate,
    lqr_gain,
    never_binding,
    resolve_terminal_set,
)
from czempc import condense
from czempc.sets import ConstrainedZonotope, Zonotope

A_DINT = np.array([[1.0, 1.0], [0.0, 1.0]])
B_DINT = np.array([[0.0], [1.0]])


def _dint_problem(N=2):
    box5 = Zonotope(np.zeros(2), 5.0 * np.eye(2))
    return MpcProblem(
        A_DINT, B_DINT, np.eye(2), np.array([[0.1]]), np.eye(2), N,
        box5, Zonotope(np.zeros(1), np.eye(1)), box5,
    )


def _rollout(A, B, x0, u_seq):
    xs = [np.asarray(x0, dtype=float)]
    for u in u_seq:
        xs.append(A @ xs[-1] + B @ u)
    return xs


def test_prediction_matrices_match_rollout(rng):
    A = rng.normal(size=(3, 3)) * 0.4
    B = rng.normal(size=(3, 2))
    N = 4
    pred = build_prediction_matrices(A, B, N)
    x0 = rng.normal(size=3)
    u = rng.normal(size=(N, 2))
    xs = _rollout(A, B, x0, u)
    stacked = pred.Atilde_0N1 @ x0 + pred.Btilde_0N1 @ u.ravel()
    np.testing.assert_allclose(stacked, np.concatenate(xs[:N]), atol=1e-12)
    np.testing.assert_allclose(pred.Atilde_N @ x0 + pred.Btilde_N @ u.ravel(), xs[N], atol=1e-12)


def test_prediction_matrices_strict_lower_triangular():
    pred = build_prediction_matrices(A_DINT, B_DINT, 3)
    n, m = 2, 1
    for i in range(3):
        # stage i must not depend on inputs i..N-1
        assert not np.any(pred.Btilde_0N1[i * n : (i + 1) * n, i * m :])


def test_condensed_objective_matches_rollout_cost(rng):
    p = _dint_problem(N=3)
    cp = build_condensed_qp(p)
    Q, R, S = p.Q, p.R, p.S

    def full_cost(x0, u_seq):
        xs = _rollout(p.A_d, p.B_d, x0, u_seq)
        stage = sum(float(x @ Q @ x + u @ R @ u) for x, u in zip(xs[:-1], u_seq))
        return stage + float(xs[-1] @ S @ xs[-1])

    x0 = rng.normal(size=2)
    u1 = rng.normal(size=(3, 1))
    u2 = rng.normal(size=(3, 1))
    # parameter-only terms cancel in the difference
    diff_full = full_cost(x0, u1) - full_cost(x0, u2)
    diff_cond = cp.objective(u1.ravel(), x0) - cp.objective(u2.ravel(), x0)
    assert diff_full == pytest.approx(diff_cond, abs=1e-9)


def test_lifted_objective_matches_condensed(rng):
    cp = build_condensed_qp(_dint_problem(N=2))
    for _ in range(5):
        xi = rng.uniform(-1, 1, size=cp.Dbar)
        x0 = rng.normal(size=2)
        u = cp.c_D + cp.G_D @ xi
        assert cp.objective_xi(xi, x0) == pytest.approx(cp.objective(u, x0), abs=1e-9)


def test_lifted_equalities_encode_dynamics(rng):
    """The affine subspace must reproduce the rollout states for any input seq."""
    p = _dint_problem(N=3)
    cp = build_condensed_qp(p)
    GX_inv = np.linalg.inv(p.X.G)
    GT_inv = np.linalg.inv(cp.terminal.G)
    for _ in range(10):
        xi_u = rng.uniform(-1, 1, size=p.N * p.U.num_generators)
        x0 = rng.normal(size=2)
        u = (cp.c_D + np.kron(np.eye(p.N), p.U.G) @ xi_u).reshape(p.N, p.m)
        xs = _rollout(p.A_d, p.B_d, x0, u)
        xi_x = np.concatenate([GX_inv @ (x - p.X.c) for x in xs[: p.N]])
        xi_t = GT_inv @ (xs[p.N] - cp.terminal.c)
        xi = np.concatenate([xi_u, xi_x, xi_t])
        residual = cp.F_D @ xi - cp.theta1_D - cp.theta2_D @ x0
        np.testing.assert_allclose(residual, 0, atol=1e-10)


def test_scalar_horizon_one_by_hand():
    unit = Zonotope(np.zeros(1), np.eye(1))
    p = MpcProblem(np.eye(1), np.eye(1), np.eye(1), np.eye(1), np.eye(1), 1, unit, unit, unit)
    cp = build_condensed_qp(p)
    assert cp.Dbar == 3 and cp.nbar_c == 2
    np.testing.assert_allclose(cp.Qtilde, [[4.0]])
    np.testing.assert_allclose(cp.Htilde, [[2.0]])
    np.testing.assert_allclose(cp.F_D, [[0.0, -1.0, 0.0], [1.0, 0.0, -1.0]])
    np.testing.assert_allclose(cp.theta1_D, [0.0, 0.0])
    np.testing.assert_allclose(cp.theta2_D, [[-1.0], [-1.0]])
    np.testing.assert_allclose(cp.Y, np.vstack([np.eye(3), -np.eye(3)]))


def test_polyhedral_form_matches_direct_constraints(rng):
    p = _dint_problem(N=2)
    A, b, E = polyhedral_rows(p)
    for _ in range(60):
        u = rng.uniform(-1.6, 1.6, size=(p.N, 1))
        x0 = rng.uniform(-6, 6, size=2)
        xs = _rollout(p.A_d, p.B_d, x0, u)
        direct = (
            all(np.max(np.abs(x)) <= 5 + 1e-12 for x in xs[: p.N])
            and np.max(np.abs(u)) <= 1 + 1e-12
            and np.max(np.abs(xs[p.N])) <= 5 + 1e-12
        )
        assert bool(np.all(A @ u.ravel() <= b + E @ x0 + 1e-10)) == direct


def test_lqr_gain_matches_riccati_oracle():
    Q, R = np.eye(2), np.array([[0.1]])
    K = lqr_gain(A_DINT, B_DINT, Q, R)
    P = scipy.linalg.solve_discrete_are(A_DINT, B_DINT, Q, R)
    K_ref = -np.linalg.solve(R + B_DINT.T @ P @ B_DINT, B_DINT.T @ P @ A_DINT)
    np.testing.assert_allclose(K, K_ref, atol=1e-8)


def test_terminal_set_is_invariant(rng):
    p = _dint_problem()
    K = lqr_gain(p.A_d, p.B_d, p.Q, p.R)
    omega = build_terminal_set(p.A_d, p.B_d, K, p.X, p.U)
    M = p.A_d + p.B_d @ K
    hits = 0
    for _ in range(200):
        x = rng.uniform(-4, 4, size=2)
        if not cz_contains_point(omega, x):
            continue
        hits += 1
        assert np.max(np.abs(x)) <= 5 + 1e-9
        assert np.max(np.abs(K @ x)) <= 1 + 1e-9  # admissible feedback
        assert cz_contains_point(omega, M @ x, tol=1e-7)  # one-step invariance
    assert hits > 10


def test_terminal_recurrence_resolution():
    p = _dint_problem()
    rec = MpcProblem(p.A_d, p.B_d, p.Q, p.R, p.S, p.N, p.X, p.U, TerminalRecurrence("lqr"))
    T = resolve_terminal_set(rec)
    assert isinstance(T, ConstrainedZonotope)
    assert T.dim == 2


def test_terminal_recurrence_errors():
    p = _dint_problem()
    with pytest.raises(NotStable):
        build_terminal_set(p.A_d, p.B_d, np.zeros((1, 2)), p.X, p.U)  # open loop not stable
    with pytest.raises(NotInvertible):
        build_terminal_set(np.zeros((2, 2)), p.B_d, np.zeros((1, 2)), p.X, p.U)
    with pytest.raises(ValueError):
        resolve_terminal_set(
            MpcProblem(p.A_d, p.B_d, p.Q, p.R, p.S, p.N, p.X, p.U, TerminalRecurrence("dlqr"))
        )


def test_iteration_caps_raise(paper_doc):
    p = _dint_problem()
    with pytest.raises(NotConverged):
        lqr_gain(p.A_d, p.B_d, p.Q, p.R, max_iter=10)  # needs 14 steps
    paper, _ = parse_problem(paper_doc, n_override=1)
    K = lqr_gain(paper.A_d, paper.B_d, paper.Q, paper.R)
    with pytest.raises(NotConverged):
        build_terminal_set(paper.A_d, paper.B_d, K, paper.X, paper.U, max_iter=3)  # needs 4


def test_problem_validation():
    p = _dint_problem()
    with pytest.raises(NotPositiveDefinite):
        MpcProblem(p.A_d, p.B_d, p.Q, np.zeros((1, 1)), p.S, p.N, p.X, p.U, p.T)  # R not PD
    with pytest.raises(NotPositiveDefinite):
        MpcProblem(p.A_d, p.B_d, np.array([[1.0, 0.5], [0.0, 1.0]]), p.R, p.S, p.N, p.X, p.U, p.T)
    with pytest.raises(ValueError):
        MpcProblem(p.A_d, p.B_d, p.Q, p.R, p.S, 0, p.X, p.U, p.T)


def test_never_binding_on_an_infeasible_problem(paper_doc, monkeypatch):
    # a terminal set far outside X leaves no feasible xi: every dual LP of
    # the finder is unbounded and no coordinate is eliminated, where the same
    # problem with its own terminal set loses 8 of 22
    problem, _ = parse_problem(paper_doc, n_override=3)
    assert never_binding(build_condensed_qp(problem)).size == 8
    far = Zonotope(np.full(4, 100.0), np.eye(4))
    cp = build_condensed_qp(dataclasses.replace(problem, T=far))
    solve, statuses = condense.solve_stack, []

    def recording(*args, **kwargs):
        results = solve(*args, **kwargs)
        statuses.extend(res.status for res in results)
        return results

    monkeypatch.setattr(condense, "solve_stack", recording)
    assert never_binding(cp).size == 0
    assert statuses and set(statuses) == {"unbounded"}


def test_eliminate_keeps_the_feasible_set(paper_doc, rng):
    # a feasible xi of the full problem restricted to R satisfies the reduced
    # equalities, and F_E^+ gives back its eliminated coordinates
    problem, _ = parse_problem(paper_doc, n_override=3)
    cp = build_condensed_qp(problem)
    E = never_binding(cp)
    reduced, R = eliminate(cp, E)
    FE_pinv = np.linalg.pinv(cp.F_D[:, E])
    assert np.array_equal(np.sort(np.concatenate([E, R])), np.arange(cp.Dbar))
    assert (reduced.Dbar, reduced.nbar_c) == (14, 8)
    assert reduced.Dbar - reduced.nbar_c == cp.Dbar - cp.nbar_c
    assert np.array_equal(reduced.G_D, cp.G_D[:, R]) and not cp.G_D[:, E].any()
    for _ in range(5):
        x0 = rng.uniform(-1.0, 1.0, cp.n)
        xi = np.linalg.lstsq(cp.F_D, cp.theta1_D + cp.theta2_D @ x0, rcond=None)[0]
        np.testing.assert_allclose(reduced.F_D @ xi[R], reduced.theta1_D + reduced.theta2_D @ x0, atol=1e-10)
        np.testing.assert_allclose(
            FE_pinv @ (cp.theta1_D + cp.theta2_D @ x0 - cp.F_D[:, R] @ xi[R]), xi[E], atol=1e-10)


def test_never_binding_on_inconsistent_equalities(paper_doc, monkeypatch):
    # a terminal CZ whose two equality rows contradict each other: no xi
    # solves the lifted equalities, so no LP is solved and nothing is
    # eliminated (a least-squares xi0 would make 7 coordinates look idle)
    problem, _ = parse_problem(paper_doc, n_override=2)
    T = ConstrainedZonotope(np.zeros(4), 10.0 * np.eye(4), np.array([[1.0, 0, 0, 0], [1.0, 0, 0, 0]]),
                            np.array([0.0, 0.5]))
    cp = build_condensed_qp(dataclasses.replace(problem, T=T))
    solved = []
    monkeypatch.setattr(condense, "solve_stack", lambda *args, **kwargs: solved.append(args))
    assert never_binding(cp).size == 0
    assert not solved
