"""Acceptance suite: end-to-end checks of the solver against independent oracles.

Each test prints a single pass/fail line so the suite doubles as a report.
"""

import time

import numpy as np
import pytest
import scipy.linalg
from conftest import node_results
from oracle import cz_contains_point, kkt_residuals, oracle_qp

from czempc.cli import parse_problem
from czempc.condense import build_condensed_qp
from czempc.explorer import explore
from czempc.lp import solve_lp
from czempc.regions import region_from_scratch
from czempc.runtime import evaluate, locate
from czempc.sets import ConstrainedZonotope, Polytope, Zonotope, chebyshev, intersect

HORIZONS = (1, 2, 3, 4)
VARIANT_NAMES = ("baseline", "iter")


def _report(num: int, name: str, ok: bool, detail: str = ""):
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"[acceptance] criterion {num} {name}: {status}{suffix}")
    assert ok, f"criterion {num} ({name}) failed{suffix}"


@pytest.fixture(scope="module")
def oracle_samples(paper_problem):
    """100 oracle-feasible parameters (plus the rejected draws) for the N=2 system."""
    problem = paper_problem(2)
    rng = np.random.default_rng(1234)
    feasible, infeasible = [], []
    while len(feasible) < 100:
        x0 = rng.uniform(-10, 10, size=4)
        sol = oracle_qp(problem, x0)
        if sol is None:
            infeasible.append(x0)
        else:
            feasible.append((x0, sol))
    return feasible, infeasible


def test_criterion_1_constrained_zonotope_construction(rng):
    t0 = time.perf_counter()
    c = np.array([0.15, 0.25])
    G = np.array([[-0.75, 0.0, 1.0], [0.0, 0.5, 0.25]])
    F = np.array([[0.5, -2.0, 0.25]])
    theta = np.array([1.0])
    zono = Zonotope(c, G)
    constrained = ConstrainedZonotope(c, G, F, theta)
    built = intersect(zono, constrained)

    ok = True
    detail = ""
    for _ in range(20):
        d = rng.normal(size=2)
        # containment: the constrained set never extends beyond the zonotope
        obj = -(built.G.T @ d)
        res = solve_lp(obj, A_eq=built.F, b_eq=built.theta, lb=-1.0, ub=1.0)
        if res.status != "optimal":
            ok, detail = False, "support LP failed"
            break
        if float(d @ built.c) - res.fun > zono.support(d) + 1e-7:
            ok, detail = False, "containment violated"
            break
        # the maximizer must satisfy the plane constraint and land inside the
        # directly-constructed constrained zonotope
        xi2 = res.x[3:]
        if abs(float((F @ xi2)[0]) - 1.0) > 1e-8:
            ok, detail = False, "equality constraint violated"
            break
        x = built.c + built.G @ res.x
        if not cz_contains_point(constrained, x, tol=1e-7):
            ok, detail = False, "member outside direct construction"
            break
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 1.0
    _report(1, "constrained-zonotope construction", ok, detail or f"{elapsed:.2f}s")


def test_criterion_2_variant_equivalence(paper_tree):
    counts = {}
    worst = 0.0
    ok = True
    detail = ""
    for N in HORIZONS:
        trees = {v: paper_tree(N, v) for v in VARIANT_NAMES}
        counts[N] = {v: t.num_regions for v, t in trees.items()}
        if len(set(counts[N].values())) != 1:
            ok, detail = False, f"region counts differ at N={N}: {counts[N]}"
            break
        base, other = trees["baseline"], trees["iter"]
        if set(other.index) != set(base.index):
            ok, detail = False, f"node sets differ at N={N}"
            break
        for bits, node_id in base.index.items():
            a = base.nodes[node_id]
            b = other.nodes[other.index[bits]]
            worst = max(
                worst,
                float(np.max(np.abs(a.law.Ku - b.law.Ku), initial=0.0)),
                float(np.max(np.abs(a.law.ku - b.law.ku), initial=0.0)),
                float(np.max(np.abs(a.region.L - b.region.L), initial=0.0)),
                float(np.max(np.abs(a.region.l - b.region.l), initial=0.0)),
            )
    total = sum(paper_tree.build_seconds.values())
    ok = ok and worst <= 1e-6 and total <= 300.0
    if ok:
        regions = {N: counts[N]["baseline"] for N in HORIZONS}
        detail = f"regions {regions}, max coeff diff {worst:.2e}, {total:.1f}s"
    _report(2, "variant equivalence", ok, detail)


def test_criterion_3_oracle_optimality(paper_cp, paper_tree, oracle_samples):
    t0 = time.perf_counter()
    cp = paper_cp(2)
    tree = paper_tree(2, "iter")
    feasible, _ = oracle_samples
    worst_u = worst_cost = 0.0
    ok = True
    detail = ""
    for x0, sol in feasible:
        node_id = locate(tree, x0)
        if node_id is None:
            ok, detail = False, "oracle-feasible point not located"
            break
        u_full = tree.nodes[node_id].law(x0)
        worst_u = max(worst_u, float(np.max(np.abs(u_full[: cp.m] - sol.u_star[: cp.m]))))
        cost = cp.objective(u_full, x0)
        worst_cost = max(worst_cost, abs(cost - sol.cost) / max(1.0, abs(sol.cost)))
    elapsed = time.perf_counter() - t0
    ok = ok and worst_u <= 1e-5 and worst_cost <= 1e-7 and elapsed <= 120.0
    if ok:
        detail = f"100 points, max |du0| {worst_u:.2e}, max rel dcost {worst_cost:.2e}, {elapsed:.1f}s"
    _report(3, "oracle optimality", ok, detail)


def test_criterion_4_low_rank_updates(paper_cp, paper_tree):
    cp = paper_cp(3)
    tree = paper_tree(3, "iter")
    worst_kinv = worst_angle = worst_dual = 0.0
    transitions = 0
    for nd, solve in zip(tree.nodes, node_results(cp, tree)):
        if nd.parent is None:
            continue
        transitions += 1
        res = solve.result()
        # reference inverse recomputed from scratch in the chain's own null basis
        Z = res.Z
        Y_A = cp.Y[list(nd.active.indices)]
        rows = [cp.F_D, Y_A] if Z.shape[1] == 0 else [Z.T @ cp.GQG, cp.F_D, Y_A]
        Kinv_ref = np.linalg.inv(np.vstack(rows))
        worst_kinv = max(
            worst_kinv,
            float(np.linalg.norm(res.Kinv - Kinv_ref) / np.linalg.norm(Kinv_ref)),
        )
        # null-space span against an independent from-scratch SVD
        scratch = region_from_scratch(cp, [nd.active], [[-1]]).result(0)
        if Z.shape[1]:
            worst_angle = max(worst_angle, float(np.max(scipy.linalg.subspace_angles(Z, scratch.Z))))
        # duals read off the updated inverse against -pinv(T) grad, with the
        # cost gradient grad of the from-scratch law
        grad = cp.G_D.T @ (cp.Qtilde @ np.column_stack([scratch.law.ku, scratch.law.Ku]))
        grad[:, 1:] += cp.GHt
        S_ref = -np.linalg.pinv(np.hstack([cp.F_D.T, Y_A.T])) @ grad
        S = solve.stack.S[solve.row]
        worst_dual = max(worst_dual, float(np.linalg.norm(S - S_ref) / max(1.0, np.linalg.norm(S_ref))))
    ok = transitions > 0 and worst_kinv <= 1e-8 and worst_angle <= 1e-8 and worst_dual <= 1e-9
    detail = (
        f"{transitions} transitions, Kinv rel {worst_kinv:.2e}, "
        f"Z angle {worst_angle:.2e}, duals rel {worst_dual:.2e}"
    )
    _report(4, "low-rank update correctness", ok, detail)


def test_criterion_5_kkt_residuals(paper_cp, paper_tree, rng):
    worst_res = 0.0
    worst_mu = np.inf
    nodes = 0
    for N in HORIZONS:
        cp = paper_cp(N)
        tree = paper_tree(N, "iter")
        for nd, solve in zip(tree.nodes, node_results(cp, tree)):
            nodes += 1
            cheb = chebyshev(Polytope(nd.region.L, nd.region.l))
            points = [cheb.center]
            for _ in range(4):
                d = rng.normal(size=cp.n)
                points.append(cheb.center + 0.5 * cheb.radius * d / np.linalg.norm(d))
            for x0 in points:
                res = kkt_residuals(cp, nd.active, x0, solve.xi(x0), solve.duals(x0))
                worst_res = max(
                    worst_res, res["stationarity"], res["primal_eq"], res["complementarity"]
                )
            mu = solve.duals(cheb.center)[cp.nbar_c :]
            if mu.size:
                worst_mu = min(worst_mu, float(mu.min()))
    ok = worst_res <= 1e-7 and (worst_mu >= -1e-8 or not np.isfinite(worst_mu))
    detail = f"{nodes} nodes, max residual {worst_res:.2e}, min dual {worst_mu:.2e}"
    _report(5, "KKT residual suite", ok, detail)


def test_criterion_6_coverage(paper_tree, oracle_samples):
    tree = paper_tree(2, "iter")
    feasible, infeasible = oracle_samples
    uncovered = sum(1 for x0, _ in feasible if locate(tree, x0) is None)
    # an infeasible draw must not sit strictly inside any region
    false_hits = 0
    for x0 in infeasible:
        for nd in tree.nodes:
            if nd.region.margin(x0) < -1e-6:
                false_hits += 1
                break
    ok = uncovered == 0 and false_hits == 0
    detail = f"{len(feasible)} feasible covered, {len(infeasible)} infeasible draws, {false_hits} false hits"
    _report(6, "coverage", ok, detail)


def test_criterion_8_double_integrator_against_oracle(dint_problem, dint_cp, dint_tree):
    t0 = time.perf_counter()
    worst = 0.0
    ok = True
    detail = ""
    for nd in dint_tree.nodes:
        center = chebyshev(Polytope(nd.region.L, nd.region.l)).center
        sol = oracle_qp(dint_problem, center)
        if sol is None:
            ok, detail = False, "oracle infeasible at a region center"
            break
        u_tree = evaluate(dint_tree, center)
        u_law = nd.law(center)
        worst = max(
            worst,
            float(np.max(np.abs(u_law - sol.u_star))),
            float(np.max(np.abs(u_tree - sol.u_star[: dint_cp.m]))),
        )
    elapsed = time.perf_counter() - t0
    ok = ok and worst <= 1e-6 and elapsed < 30.0
    if ok:
        detail = f"{dint_tree.num_regions} regions, max law diff {worst:.2e}, {elapsed:.1f}s"
    _report(8, "double-integrator oracle agreement", ok, detail)


def test_criterion_9_cz_terminal_against_oracle(paper_doc):
    # the paper's CZ case: N=1 with the LQR-invariant terminal set, whose
    # oracle rows are H0 M^j of the recurrence
    t0 = time.perf_counter()
    problem, _ = parse_problem(dict(paper_doc, N=1, T={"recurrence": {"K": "lqr"}}))
    cp = build_condensed_qp(problem)
    worst = 0.0
    ok = True
    detail = ""
    regions = {}
    for variant in VARIANT_NAMES:
        tree = explore(cp, variant=variant)
        regions[variant] = tree.num_regions
        for nd in tree.nodes:
            center = chebyshev(Polytope(nd.region.L, nd.region.l)).center
            sol = oracle_qp(problem, center)
            if sol is None:
                ok, detail = False, f"oracle infeasible at a region center ({variant})"
                break
            worst = max(worst, float(np.max(np.abs(nd.law(center) - sol.u_star) / (1.0 + np.abs(sol.u_star)))))
    elapsed = time.perf_counter() - t0
    ok = ok and worst <= 1e-6 and elapsed < 30.0
    if ok:
        detail = f"regions {regions}, max rel law diff {worst:.2e}, {elapsed:.1f}s"
    _report(9, "CZ terminal set oracle agreement", ok, detail)
