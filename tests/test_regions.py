import numpy as np
import pytest
from conftest import explore_unreduced, node_results
from oracle import kkt_residuals, polyhedral_rows

from czempc import explorer, regions
from czempc.cli import parse_problem
from czempc.condense import MpcProblem, build_condensed_qp
from czempc.explorer import candidate_indices, explore
from czempc.linalg import null_space_qr
from czempc.regions import (
    PD_PIVOT_TOL,
    ActiveSet,
    RegionRejected,
    _finish,
    _invert,
    _positive_definite,
    reduced_active_set,
    region_from_scratch,
    region_iterative,
)
from czempc.sets import Polytope, Zonotope, chebyshev


def test_active_set_validation():
    a = ActiveSet(4, (3, 1))
    assert a.indices == (1, 3)
    assert a.cardinality == 2
    assert a.bits == (1 << 1) | (1 << 3)
    with pytest.raises(ValueError):
        ActiveSet(4, (1, 1))
    with pytest.raises(ValueError):
        ActiveSet(4, (1, 5))  # facet pair 1 and 1 + Dbar
    with pytest.raises(IndexError):
        ActiveSet(4, (8,))


def test_active_set_with_index_and_inactive():
    a = ActiveSet(3, (0,))
    b = a.with_index(4)
    assert b.indices == (0, 4)
    assert a.indices == (0,)  # immutable
    assert b.inactive().tolist() == [1, 2, 3, 5]


def test_root_region_is_unconstrained_law(dint_cp):
    cp = dint_cp
    res = region_from_scratch(cp, [ActiveSet(cp.Dbar)], [[-1]]).result(0)
    # with no active facets the law is the unconstrained mpQP minimizer
    Ku_ref = -np.linalg.solve(cp.Qtilde, cp.Htilde.T)
    np.testing.assert_allclose(res.law.Ku, Ku_ref, atol=1e-9)
    np.testing.assert_allclose(res.law.ku, 0, atol=1e-9)
    assert res.region.L.shape == (2 * cp.Dbar, cp.n)


def test_iterative_matches_scratch_one_level(dint_cp):
    cp = dint_cp
    root = region_from_scratch(cp, [ActiveSet(cp.Dbar)], [[-1]]).result(0)
    checked = 0
    for i in range(2 * cp.Dbar):
        try:
            it = region_iterative(cp, [root], [[i]]).result(0)
        except RegionRejected:
            with pytest.raises(RegionRejected):
                region_from_scratch(cp, [ActiveSet(cp.Dbar, (i,))], [[-1]]).result(0)
            continue
        sc = region_from_scratch(cp, [ActiveSet(cp.Dbar, (i,))], [[-1]]).result(0)
        np.testing.assert_allclose(it.law.Ku, sc.law.Ku, atol=1e-9)
        np.testing.assert_allclose(it.law.ku, sc.law.ku, atol=1e-9)
        np.testing.assert_allclose(it.region.L, sc.region.L, atol=1e-9)
        np.testing.assert_allclose(it.region.l, sc.region.l, atol=1e-9)
        # Kinv depends on the null basis; verify it in the chain's own basis
        K = np.vstack([it.Z.T @ cp.GQG, cp.F_D, cp.Y[[i]]])
        np.testing.assert_allclose(it.Kinv, np.linalg.inv(K), atol=1e-8)
        checked += 1
    assert checked > 0


@pytest.mark.parametrize("case", ["paper4state-N2", "cz-n1"])
def test_children_stack_matches_scratch(case, paper_doc):
    # every candidate child of every node, updated as one stack per parent,
    # against its own from-scratch solve, and its duals against the
    # pseudoinverse reference; cz-n1 swaps in the LQR-invariant CZ terminal
    # set (26 equality rows)
    doc = dict(paper_doc, N=2) if case == "paper4state-N2" else dict(paper_doc, N=1, T={"recurrence": {"K": "lqr"}})
    cp = build_condensed_qp(parse_problem(doc)[0])
    tree = explore(cp, variant="iter")
    accepted = rejected = 0
    for nd, solve in zip(tree.nodes, node_results(cp, tree)):
        if nd.active.cardinality >= cp.Dbar - cp.nbar_c:
            continue
        candidates = candidate_indices(nd.active)
        stack = region_iterative(cp, [solve.result()], [candidates])
        assert stack.L.shape == (stack.kept.size, 2 * cp.Dbar, cp.n)
        for position, i in enumerate(candidates):
            child = nd.active.with_index(i)
            try:
                sc = region_from_scratch(cp, [child], [[-1]]).result(0)
            except RegionRejected:
                with pytest.raises(RegionRejected):
                    stack.result(position)
                rejected += 1
                continue
            it = stack.result(position)
            assert it.active == child
            S, S_ref = stack.S[np.searchsorted(stack.kept, position)], scratch_reference(cp, child).S[0]
            for got, want in [(it.law.Ku, sc.law.Ku), (it.law.ku, sc.law.ku), (it.region.L, sc.region.L),
                              (it.region.l, sc.region.l), (S[:, 1:], S_ref[:, 1:]), (S[:, 0], S_ref[:, 0])]:
                np.testing.assert_allclose(got, want, rtol=0, atol=1e-8 * (1.0 + np.abs(want).max()))
            accepted += 1
    assert accepted > 100 and rejected > 100


@pytest.mark.parametrize("variant", explorer.VARIANTS)
@pytest.mark.parametrize("case", ["paper4state-N3", "cz-n1"])
def test_node_results_replay_the_explored_tree(case, variant, paper_doc):
    # the tests that read KKT factors and duals take them from node_results;
    # its laws and regions must be those the unreduced BFS accepted: bitwise
    # when each node is solved from scratch, within 1e-12 through the updates
    # (test_explorer checks explore's reduced BFS against the unreduced one)
    doc = dict(paper_doc, N=3) if case == "paper4state-N3" else dict(paper_doc, N=1, T={"recurrence": {"K": "lqr"}})
    cp = build_condensed_qp(parse_problem(doc)[0])
    tree = explore_unreduced(cp, variant=variant)
    results = [solve.result() for solve in node_results(cp, tree)]
    assert [res.active for res in results] == [nd.active for nd in tree.nodes]
    for nd, res in zip(tree.nodes, results):
        for got, want in [(res.law.Ku, nd.law.Ku), (res.law.ku, nd.law.ku), (res.region.L, nd.region.L),
                          (res.region.l, nd.region.l)]:
            if variant == "baseline":
                assert np.array_equal(got, want)
            else:
                np.testing.assert_allclose(got, want, rtol=0, atol=1e-12 * np.abs(want).max())


def _explored_batches(cp, variant, monkeypatch) -> list:
    """The KKT solver calls ``explore(cp, variant)`` makes past the root,
    one list per batch it decides: ``(reduced cp, parents, added)``."""
    batches, calls, is_empty_stack = [], [], explorer.is_empty_stack

    def recorded(solver):
        def wrapper(cp, parents, added, *args):
            calls.append((cp, parents, added))
            return solver(cp, parents, added, *args)
        return wrapper

    def decide(L, l, radius_threshold):
        batches.append(calls[:])
        calls.clear()
        return is_empty_stack(L, l, radius_threshold)

    for name in ("region_from_scratch", "region_iterative"):
        monkeypatch.setattr(explorer, name, recorded(getattr(explorer, name)))
    monkeypatch.setattr(explorer, "is_empty_stack", decide)
    explore(cp, variant=variant)
    monkeypatch.undo()
    return [[call for call in batch if call[2] != [[-1]]] for batch in batches]


@pytest.mark.parametrize("variant", explorer.VARIANTS)
@pytest.mark.parametrize("case", ["paper4state-N3", "cz-n1"])
def test_cross_parent_stack_matches_parents_alone(case, variant, paper_doc, monkeypatch):
    # the fresh candidates of several parents, solved as one stack, against
    # each parent's solved alone: the parents of the first paper4state N=3
    # batch that spans two cardinalities (one stack each), and every level-1
    # parent of cz-n1; the same reasons and kept positions, and the same
    # laws, duals and rows within 1e-12 (relative)
    doc = dict(paper_doc, N=3) if case == "paper4state-N3" else dict(paper_doc, N=1, T={"recurrence": {"K": "lqr"}})
    batches = _explored_batches(build_condensed_qp(parse_problem(doc)[0]), variant, monkeypatch)
    def cardinality(parent):
        return (parent if variant == "baseline" else parent.active).cardinality

    if case == "paper4state-N3":
        stacks = next(batch for batch in batches if len(batch) == 2)
        low, high = (cardinality(parents[0]) for _, parents, _ in stacks)
        assert high == low + 1
    else:
        level1 = [(cp, p, a) for batch in batches for cp, parents, added in batch for p, a in zip(parents, added)
                  if cardinality(p) == 1]
        stacks = [(level1[0][0], [p for _, p, _ in level1], [a for _, _, a in level1])]
    assert max(len(parents) for _, parents, _ in stacks) > 1
    solve = region_from_scratch if variant == "baseline" else region_iterative
    reasons = []
    for cp, parents, added in stacks:
        together, offset = solve(cp, parents, added), 0
        for parent, fresh in zip(parents, added):
            alone = solve(cp, [parent], [fresh])
            assert together.reasons[offset : offset + len(fresh)] == alone.reasons
            lo, hi = np.searchsorted(together.kept, [offset, offset + len(fresh)])
            assert (together.kept[lo:hi] - offset).tolist() == alone.kept.tolist()
            for got, want in [(together.u[lo:hi], alone.u), (together.S[lo:hi], alone.S),
                              (together.L[lo:hi], alone.L), (together.l[lo:hi], alone.l)]:
                assert got.shape == want.shape
                assert np.abs(got - want).max(initial=0.0) <= 1e-12 * np.abs(want).max(initial=0.0)
            for position in alone.kept:
                assert together.result(offset + position).active == alone.result(position).active
            offset += len(fresh)
        reasons += together.reasons
    assert "singular" in reasons and None in reasons


def scratch_reference(cp, active):
    """Reference from-scratch solve of one candidate, independent of the
    stacked SVD: pivoted-QR null basis, dense inverse, laws and region rows
    as a stack of one, then the duals ``-pinv(T) grad`` through the SVD
    pseudoinverse of ``T = [F_D' Y_A']`` and the region rows they bound.
    Returns the stack of one."""
    nA = active.cardinality
    if nA > cp.Dbar - cp.nbar_c:
        raise RegionRejected("singular")
    Y_A = cp.Y[list(active.indices)]
    T = np.hstack([cp.F_D.T, Y_A.T])
    Z = null_space_qr(T.T)
    if Z.shape[1] != cp.Dbar - cp.nbar_c - nA:
        raise RegionRejected("singular")
    if not _positive_definite((Z.T @ cp.GQG @ Z)[None])[0]:
        raise RegionRejected("second_order")
    try:
        Kinv = np.linalg.inv(np.vstack([Z.T @ cp.GQG, cp.F_D, Y_A]))
    except np.linalg.LinAlgError:
        raise RegionRejected("singular") from None
    stack = _finish(cp, np.array([active.indices], dtype=int), [None], np.array([0]), Z[None], Kinv[None])
    grad = cp.G_D.T @ (cp.Qtilde @ stack.u[0])
    grad[:, 1:] += cp.GHt
    S = -np.linalg.pinv(T) @ grad
    stack.S[0] = S
    rows = 2 * cp.Dbar - nA  # the inactive facets come first, then mu_A >= 0
    stack.L[0, rows:], stack.l[0, rows:] = -S[cp.nbar_c :, 1:], S[cp.nbar_c :, 0]
    return stack


def _check_against_reference(cp, stack, position, active):
    """Candidate ``position`` of ``stack`` has the reference's rejection reason
    or, when accepted, its law, duals and region rows; returns the reason."""
    try:
        ref_stack = scratch_reference(cp, active)
    except RegionRejected as exc:
        assert stack.reasons[position] == exc.reason
        return exc.reason
    got, ref = stack.result(position), ref_stack.result(0)
    assert got.active == active
    S, S_ref = stack.S[np.searchsorted(stack.kept, position)], ref_stack.S[0]
    for g, w in [(got.law.Ku, ref.law.Ku), (got.law.ku, ref.law.ku), (S[:, 1:], S_ref[:, 1:]),
                 (S[:, 0], S_ref[:, 0]), (got.region.L, ref.region.L), (got.region.l, ref.region.l)]:
        np.testing.assert_allclose(g, w, rtol=0, atol=1e-9 * (1.0 + np.abs(w).max()))
    return None


@pytest.mark.parametrize("case", ["paper4state-N2", "cz-n1"])
def test_scratch_stack_matches_reference(case, paper_doc):
    # every node as a stack of one, and every candidate child of every node
    # solved from scratch as one stack per parent, against the per-candidate
    # reference
    doc = dict(paper_doc, N=2) if case == "paper4state-N2" else dict(paper_doc, N=1, T={"recurrence": {"K": "lqr"}})
    cp = build_condensed_qp(parse_problem(doc)[0])
    reasons = []
    mixed = 0
    for nd in explore(cp, variant="baseline").nodes:
        assert _check_against_reference(cp, region_from_scratch(cp, [nd.active], [[-1]]), 0, nd.active) is None
        children = candidate_indices(nd.active)
        stack = region_from_scratch(cp, [nd.active], [children])
        found = [_check_against_reference(cp, stack, p, nd.active.with_index(i)) for p, i in enumerate(children)]
        assert stack.kept.tolist() == [p for p, reason in enumerate(found) if reason is None]
        reasons += found
        mixed += None in found and "singular" in found
    assert reasons.count("singular") > 50 and None in reasons
    assert mixed > 0  # some stack keeps candidates next to singular ones


def test_scratch_past_full_cardinality_is_singular(dint_cp):
    # a base with Dbar - nbar_c active facets leaves no room for another:
    # every candidate has more constraints than lifted coordinates
    cp = dint_cp
    base = ActiveSet(cp.Dbar, tuple(range(cp.Dbar - cp.nbar_c)))
    added = list(range(cp.Dbar - cp.nbar_c, cp.Dbar))
    stack = region_from_scratch(cp, [base], [added])
    assert stack.reasons == ["singular"] * len(added)
    assert stack.kept.size == 0
    assert stack.L.shape == (0, 2 * cp.Dbar, cp.n)
    for position in range(len(added)):
        with pytest.raises(RegionRejected):
            stack.result(position)


def test_iterative_past_full_cardinality_is_singular(dint_cp, dint_tree):
    # a node with Dbar - nbar_c active facets has a null basis Z without
    # columns: every child has more constraints than lifted coordinates
    cp = dint_cp
    results = [solve.result() for solve in node_results(cp, dint_tree)]
    full = [res for res in results if res.active.cardinality == cp.Dbar - cp.nbar_c]
    assert len(full) == 4
    for res in full:
        assert res.Z.shape == (cp.Dbar, 0)
        candidates = candidate_indices(res.active)
        stack = region_iterative(cp, [res], [candidates])
        assert stack.reasons == ["singular"] * len(candidates)
        assert stack.kept.size == 0
        assert stack.L.shape == (0, 2 * cp.Dbar, cp.n)
        for position in range(len(candidates)):
            with pytest.raises(RegionRejected):
                stack.result(position)


def test_iterative_retry_after_singular_update(dint_cp, dint_tree):
    # a large eps makes the Woodbury test reject part of the root's stack;
    # the children kept must be those solved without the rejected ones
    cp, root = dint_cp, node_results(dint_cp, dint_tree)[0].result()
    candidates = candidate_indices(root.active)
    loose = region_iterative(cp, [root], [candidates])
    stack = region_iterative(cp, [root], [candidates], eps=0.3)
    assert 0 < stack.kept.size < loose.kept.size
    assert set(stack.kept) < set(loose.kept)
    again = region_iterative(cp, [root], [[candidates[p] for p in stack.kept]], eps=0.3)
    assert again.reasons == [None] * stack.kept.size
    for got, want in [(stack.u, again.u), (stack.S, again.S), (stack.L, again.L), (stack.l, again.l)]:
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-12 * (1.0 + np.abs(want).max()))


def test_positive_definite_mixed_stack(rng):
    # one failing Cholesky sends the stack to the one-by-one fallback
    M = rng.normal(size=(4, 4))
    H = np.stack([
        M @ M.T + np.eye(4),  # positive definite
        np.diag([1.0, -1.0, 2.0, 3.0]),  # indefinite
        np.outer(M[0], M[0]),  # singular, rank 1
        np.diag([1.0, 1.0, 1.0, 1e-12]),  # factors, but its last pivot is below the tolerance
        np.eye(4) + 0.1 * (M - M.T),  # positive definite, not symmetric
    ])

    def alone(h):
        try:
            C = np.linalg.cholesky(0.5 * (h + h.T))
        except np.linalg.LinAlgError:
            return False
        return bool(np.diag(C).min() ** 2 > PD_PIVOT_TOL)

    mask = _positive_definite(H)
    assert mask.tolist() == [alone(h) for h in H] == [True, False, False, False, True]


def test_one_sparse_null_basis_call_per_stack(monkeypatch, paper_cp):
    # the zero-pivot test runs before the kernel, so no stack calls it twice
    calls = {"stacks": 0, "kernel": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(explorer, "region_iterative", counted("stacks", explorer.region_iterative))
    monkeypatch.setattr(regions, "sparse_null_basis", counted("kernel", regions.sparse_null_basis))
    explore(paper_cp(2), variant="iter")
    assert calls["stacks"] > 0
    assert calls["kernel"] == calls["stacks"]


def test_invert_masks_singular_items(rng):
    K = rng.normal(size=(4, 5, 5))
    K[1, :, 2] = 0.0
    K[3] = 0.0
    Kinv, bad = _invert(K)
    assert bad.tolist() == [False, True, False, True]
    for b in (0, 2):
        np.testing.assert_allclose(Kinv[b] @ K[b], np.eye(5), atol=1e-10)
    assert not Kinv[bad].any()


def test_iterative_rejects_already_active(dint_cp):
    cp = dint_cp
    root = region_from_scratch(cp, [ActiveSet(cp.Dbar)], [[-1]]).result(0)
    child = None
    for i in range(2 * cp.Dbar):
        try:
            child = region_iterative(cp, [root], [[i]]).result(0)
            break
        except RegionRejected:
            continue
    assert child is not None
    with pytest.raises(ValueError):
        region_iterative(cp, [child], [[child.active.indices[0]]]).result(0)


def test_parameter_pinned_facets_are_singular(dint_cp):
    """Facets of stage-0 state coordinates lie in the span of the equalities."""
    cp = dint_cp
    root = region_from_scratch(cp, [ActiveSet(cp.Dbar)], [[-1]]).result(0)
    # lifted layout: N*gU input coords, then N*gX state coords (stage 0 first)
    first_state_coord = cp.N * cp.m
    with pytest.raises(RegionRejected) as exc:
        region_iterative(cp, [root], [[first_state_coord]]).result(0)
    assert exc.value.reason == "singular"
    with pytest.raises(RegionRejected):
        region_from_scratch(cp, [ActiveSet(cp.Dbar, (first_state_coord,))], [[-1]]).result(0)


def test_too_deep_active_set_rejected(dint_cp):
    cp = dint_cp
    free = cp.Dbar - cp.nbar_c
    idx = tuple(range(free + 1))
    with pytest.raises(RegionRejected):
        region_from_scratch(cp, [ActiveSet(cp.Dbar, idx)], [[-1]]).result(0)


def test_second_order_rejection_redundant_generators():
    # a 3-generator planar state set leaves cost-free lifted directions
    hexa = Zonotope(np.zeros(2), np.array([[4.0, 1.0, 0.5], [0.0, 3.0, 1.0]]))
    p = MpcProblem(
        np.array([[1.0, 1.0], [0.0, 1.0]]), np.array([[0.0], [1.0]]),
        np.eye(2), np.array([[0.1]]), np.eye(2), 2,
        hexa, Zonotope(np.zeros(1), np.eye(1)), hexa,
    )
    cp = build_condensed_qp(p)
    with pytest.raises(RegionRejected) as exc:
        region_from_scratch(cp, [ActiveSet(cp.Dbar)], [[-1]]).result(0)
    assert exc.value.reason == "second_order"


def test_xi_star_respects_facets(dint_tree, dint_cp):
    cp = dint_cp
    for nd, solve in zip(dint_tree.nodes, node_results(cp, dint_tree)):
        cheb = chebyshev(Polytope(nd.region.L, nd.region.l))
        xi = solve.xi(cheb.center)
        slack = cp.Y @ xi - 1.0
        if nd.active.indices:
            assert np.max(np.abs(slack[list(nd.active.indices)])) <= 1e-8
        assert np.max(slack) <= 1e-8


def test_kkt_residuals_interior(dint_tree, dint_cp, rng):
    for nd, solve in zip(dint_tree.nodes, node_results(dint_cp, dint_tree)):
        cheb = chebyshev(Polytope(nd.region.L, nd.region.l))
        for _ in range(3):
            d = rng.normal(size=dint_cp.n)
            x0 = cheb.center + 0.4 * cheb.radius * d / np.linalg.norm(d)
            res = kkt_residuals(dint_cp, nd.active, x0, solve.xi(x0), solve.duals(x0))
            assert res["stationarity"] <= 1e-8
            assert res["primal_eq"] <= 1e-8
            assert res["primal_ineq"] <= 1e-8
            assert res["complementarity"] <= 1e-8


def test_reduced_active_set_root_empty(dint_problem, dint_cp):
    root = region_from_scratch(dint_cp, [ActiveSet(dint_cp.Dbar)], [[-1]]).result(0)
    assert reduced_active_set(*polyhedral_rows(dint_problem), root.law) == ()


def test_reduced_active_set_saturated_input(dint_problem, dint_tree):
    A, b, E = polyhedral_rows(dint_problem)
    # node activating the first input coordinate's upper facet pins one input row
    pinned = [nd for nd in dint_tree.nodes if nd.active.indices == (0,)]
    assert pinned
    ared = reduced_active_set(A, b, E, pinned[0].law)
    assert len(ared) == 1
    j = ared[0]
    # the pinned row is an input row: no parameter dependence, unit input coefficient
    np.testing.assert_allclose(E[j], 0, atol=1e-12)
    assert abs(A[j] @ pinned[0].law.ku - b[j]) <= 1e-9

