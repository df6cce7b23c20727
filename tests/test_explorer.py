import copy
import dataclasses
import gc
import hashlib
import json

import numpy as np
import pytest
from conftest import ROOT, explore_unreduced
from oracle import ActiveSubsetOracle, oracle_qp, polyhedral_feasible

from czempc import condense, explorer
from czempc.condense import NEVER_BINDS_MARGIN, MpcProblem, build_condensed_qp, eliminate, never_binding
from czempc.cli import parse_problem
from czempc.explorer import (
    InfeasibleProblem,
    RegionNode,
    ResourceCap,
    VARIANTS,
    candidate_indices,
    explore,
    export_dot,
    export_json,
    import_json,
)
from czempc.regions import ActiveSet, RegionResult, RegionStack
from czempc.runtime import locate
from czempc.sets import ConstrainedZonotope, Polytope, Zonotope, chebyshev, is_empty_stack


def test_swap_indices():
    # pair 1 taken by its upper facet 1, pair 2 by its lower facet 2 + 4: only
    # pairs 0 and 3 are free
    assert candidate_indices(ActiveSet(4, (1, 6))) == [4, 0, 7, 3]


def test_enumerate_children_order():
    a = ActiveSet(3, (2,))
    # free pairs 0 and 1; lower facet (i + Dbar) proposed before the upper one
    assert candidate_indices(a) == [3, 0, 4, 1]
    assert all(a.with_index(i).contains(i) for i in candidate_indices(a))


@pytest.mark.parametrize("variant", VARIANTS)
def test_node_ids_follow_bfs_order(paper_cp, paper_tree, variant):
    # a node's id grows with its parent's id, then with the position of its
    # edge label among the parent's candidates; parents precede children
    tree = paper_tree(2, variant)
    assert tree.num_regions == 31
    keys = []
    for nd in tree.nodes[1:]:
        assert nd.parent < nd.node_id
        parent = tree.nodes[nd.parent]
        assert nd.active == parent.active.with_index(nd.edge_label)
        keys.append((nd.parent, candidate_indices(parent.active).index(nd.edge_label)))
    assert keys == sorted(set(keys))


def test_double_integrator_tree(dint_tree, dint_cp):
    tree = dint_tree
    assert tree.num_regions == 9
    assert tree.nodes[0].active.indices == ()
    assert tree.nodes[0].parent is None
    st = tree.stats
    assert st.discovered + st.numerical + st.empty + st.dedup == st.examined
    assert st.discovered == tree.num_regions - 1
    assert st.dedup > 0
    assert st.numerical > 0  # parameter-pinned facets always reject
    # depth never exceeds the structural cap
    assert max(nd.active.cardinality for nd in tree.nodes) <= dint_cp.Dbar - dint_cp.nbar_c


def test_edges_consistent(dint_tree):
    tree = dint_tree
    for parent, child, label in tree.edges():
        pa = tree.nodes[parent].active
        ca = tree.nodes[child].active
        assert set(ca.indices) == set(pa.indices) | {label}
    # every non-root node appears exactly once as a child
    assert sorted(c for _, c, _ in tree.edges()) == list(range(1, tree.num_regions))


def test_index_lookup(dint_tree):
    for nd in dint_tree.nodes:
        assert dint_tree.index[nd.active.bits] == nd.node_id


def test_variants_agree_double_integrator(dint_cp, dint_tree):
    other = explore(dint_cp, variant="baseline")
    assert other.num_regions == dint_tree.num_regions
    assert set(other.index) == set(dint_tree.index)


def test_variants_agree_cz_terminal(paper_doc):
    # N=1 with the LQR-invariant CZ terminal set: 72-row emptiness LPs on which
    # the primal simplex once called the region of (29, 52) infeasible under
    # `iter` (its region differs from `baseline`'s by about 1e-10)
    doc = dict(paper_doc, N=1, T={"recurrence": {"K": "lqr"}})
    problem, _ = parse_problem(doc)
    cp = build_condensed_qp(problem)
    trees = {v: explore(cp, variant=v) for v in ("baseline", "iter")}
    assert {v: t.num_regions for v, t in trees.items()} == {"baseline": 77, "iter": 77}
    assert set(trees["iter"].index) == set(trees["baseline"].index)
    assert ActiveSet(cp.Dbar, (29, 52)).bits in trees["iter"].index


@pytest.mark.parametrize("variant", VARIANTS)
@pytest.mark.parametrize("problem", ["paper-n2", "cz-n1"])
def test_batch_budget_changes_nothing(monkeypatch, paper_doc, problem, variant):
    # a budget of one candidate decides each parent alone; an unbounded one
    # decides every known node, a whole BFS level, at once; each batch
    # solves its KKT systems in one call per parent cardinality
    doc = dict(paper_doc, N=2) if problem == "paper-n2" else dict(paper_doc, N=1, T={"recurrence": {"K": "lqr"}})
    cp = build_condensed_qp(parse_problem(doc)[0])
    stacks, solves = [], []

    def counting(L, l, radius_threshold):
        stacks.append(len(L))
        return is_empty_stack(L, l, radius_threshold)

    def counted(solver):
        def wrapper(*args):
            solves.append(solver.__name__)
            return solver(*args)
        return wrapper

    monkeypatch.setattr(explorer, "is_empty_stack", counting)
    for name in ("region_from_scratch", "region_iterative"):
        monkeypatch.setattr(explorer, name, counted(getattr(explorer, name)))
    default, texts, calls, kkt = explorer.BATCH_BUDGET, {}, {}, {}
    for budget in (1, default, np.inf):
        monkeypatch.setattr(explorer, "BATCH_BUDGET", budget)
        stacks.clear()
        solves.clear()
        texts[budget] = export_json(explore(cp, variant=variant))
        calls[budget], kkt[budget] = len(stacks), len(solves)
    assert texts[1] == texts[default] == texts[np.inf]
    assert calls[1] >= calls[default] >= calls[np.inf] and calls[1] > calls[np.inf]
    assert kkt[1] >= kkt[default] >= kkt[np.inf] and kkt[1] > kkt[np.inf]


def test_unknown_variant(dint_cp):
    with pytest.raises(ValueError):
        explore(dint_cp, variant="fastest")


def test_node_cap(dint_cp):
    with pytest.raises(ResourceCap):
        explore(dint_cp, node_cap=3)


def test_infeasible_root(dint_problem):
    # a terminal set far outside X: no initial state can reach it
    far = Zonotope(np.array([100.0, 100.0]), np.eye(2))
    cp = build_condensed_qp(dataclasses.replace(dint_problem, T=far))
    for variant in VARIANTS:
        with pytest.raises(InfeasibleProblem, match="root critical region is empty"):
            explore(cp, variant=variant)


@pytest.mark.xfail(strict=True, raises=InfeasibleProblem, reason=(
    "ROADMAP item 4: with a non-parallelotope zonotope the lifted reduced Hessian is singular "
    "along directions that leave u unchanged, so the root is rejected as second_order"))
def test_hexagon_problem_agrees_with_oracle():
    hexa = Zonotope(np.zeros(2), np.array([[4.0, 1.0, 0.5], [0.0, 3.0, 1.0]]))
    p = MpcProblem(
        np.array([[1.0, 1.0], [0.0, 1.0]]), np.array([[0.0], [1.0]]),
        np.eye(2), np.array([[0.1]]), np.eye(2), 2,
        hexa, Zonotope(np.zeros(1), np.eye(1)), hexa,
    )
    _assert_variants_match_oracle(p)


def _cz_terminal_problem():
    box5 = Zonotope(np.zeros(2), 5.0 * np.eye(2))
    # constrained-zonotope terminal set: no terminal H-rep rows available
    T = ConstrainedZonotope(
        np.zeros(2), 5.0 * np.eye(2), np.array([[1.0, 1.0]]), np.array([0.0])
    )
    return MpcProblem(
        np.array([[1.0, 1.0], [0.0, 1.0]]), np.array([[0.0], [1.0]]),
        np.eye(2), np.array([[0.1]]), np.eye(2), 2,
        box5, Zonotope(np.zeros(1), np.eye(1)), T,
    )


def test_explores_cz_terminal_without_polyhedral_rows():
    cp = build_condensed_qp(_cz_terminal_problem())
    assert cp.terminal.num_constraints == 1
    # the CZ machinery handles the equality-constrained terminal on its own
    tree = explore(cp, variant="iter")
    assert tree.num_regions > 0


def test_oracle_requires_polyhedral_terminal():
    # an explicit terminal set with equality rows has no facet form here, so
    # the oracle refuses rather than answer for a larger feasible set
    problem = _cz_terminal_problem()
    with pytest.raises(ValueError):
        ActiveSubsetOracle(problem)
    with pytest.raises(ValueError):
        oracle_qp(problem, np.zeros(2))
    with pytest.raises(ValueError):
        polyhedral_feasible(problem, np.zeros(2))


def _parallelotope_problem(A, B, GX, GU, N):
    n, m = B.shape
    return MpcProblem(
        A, B, np.eye(n), 0.1 * np.eye(m), np.eye(n), N,
        Zonotope(np.zeros(n), GX), Zonotope(np.zeros(m), GU), Zonotope(np.zeros(n), 0.7 * GX),
    )


def _assert_variants_match_oracle(problem):
    cp = build_condensed_qp(problem)
    trees = {v: explore(cp, variant=v) for v in VARIANTS}
    assert set(trees["iter"].index) == set(trees["baseline"].index)
    for tree in trees.values():
        for nd in tree.nodes:
            center = chebyshev(Polytope(nd.region.L, nd.region.l)).center
            sol = oracle_qp(problem, center)
            assert sol is not None
            assert np.all(np.abs(nd.law(center) - sol.u_star) <= 1e-6 * (1.0 + np.abs(sol.u_star)))
    return trees


def _unbounded_dual_problem():
    return _parallelotope_problem(
        np.array([[0.76, -0.23], [-0.48, 1.28]]), np.array([[0.27], [0.49]]),
        np.array([[4.36, 2.01], [1.75, 2.25]]), np.array([[-1.06]]), 3,
    )


def _drift_problem():
    return _parallelotope_problem(
        np.array([[0.939, -0.4732], [0.1119, 0.6569]]), np.array([[-1.7159, -0.2792], [0.2815, 1.2825]]),
        np.array([[0.8474, 2.4181], [-3.6776, -0.0676]]), np.array([[0.1242, 0.8622], [0.1161, 0.8041]]), 2,
    )


def _sweep_problem(seed):
    rng = np.random.default_rng(seed)
    m = int(rng.integers(1, 3))
    A = np.eye(2) + 0.3 * rng.standard_normal((2, 2))
    B = rng.standard_normal((2, m))
    GX = 3.0 * rng.standard_normal((2, 2))
    GU = rng.standard_normal((m, m))
    N = int(rng.integers(1, 3))
    return _parallelotope_problem(A, B, GX, GU, N)


def test_chebyshev_unbounded_dual_is_empty():
    # `iter` regions here carry rows with norms near 1e-13 and offsets up to
    # 3e5; the Chebyshev dual LP then reports unbounded, which means empty
    trees = _assert_variants_match_oracle(_unbounded_dual_problem())
    assert trees["iter"].num_regions == 41


def test_baseline_law_on_drift_repro():
    # the low-rank-drift repro: `iter`'s law drifts about 1e-6 from the oracle
    # here (an open defect of the updates); the from-scratch solve must not
    problem = _drift_problem()
    tree = explore(build_condensed_qp(problem), variant="baseline")
    assert tree.num_regions == 23
    for nd in tree.nodes:
        center = chebyshev(Polytope(nd.region.L, nd.region.l)).center
        sol = oracle_qp(problem, center)
        assert np.all(np.abs(nd.law(center) - sol.u_star) <= 1e-8 * (1.0 + np.abs(sol.u_star)))


@pytest.mark.parametrize("seed", range(24))
def test_random_parallelotopes_agree_with_oracle(seed):
    _assert_variants_match_oracle(_sweep_problem(seed))


@pytest.mark.parametrize(
    "option", [{"radius_threshold": np.nan}, {"radius_threshold": np.inf}, {"radius_threshold": -1e-6},
               {"eps": np.nan}, {"eps": -1.0}],
)
def test_invalid_thresholds_rejected(dint_cp, option):
    with pytest.raises(ValueError):
        explore(dint_cp, **option)


def test_export_dot(dint_tree):
    dot = export_dot(dint_tree)
    assert dot.startswith("digraph")
    assert dot.count("label=") == dint_tree.num_regions + len(dint_tree.edges())
    assert '"0: {}"' in dot  # root shows the empty active set


def test_json_roundtrip_exact(dint_tree):
    text = export_json(dint_tree)
    back = import_json(text)
    assert back.num_regions == dint_tree.num_regions
    assert back.variant == dint_tree.variant
    assert dataclasses.asdict(back.stats) == dataclasses.asdict(dint_tree.stats)
    for a, b in zip(dint_tree.nodes, back.nodes):
        assert a.active.indices == b.active.indices
        assert a.parent == b.parent and a.edge_label == b.edge_label
        # repr-based serialization round-trips every float bit-exactly
        assert np.array_equal(a.law.Ku, b.law.Ku)
        assert np.array_equal(a.law.ku, b.law.ku)
        assert np.array_equal(a.region.L, b.region.L)
        assert np.array_equal(a.region.l, b.region.l)


def test_tree_nodes_hold_only_law_region_and_place(dint_tree):
    # explored and imported nodes are one type, and no KKT factor, dual or
    # stack is reachable from a returned tree
    assert [f.name for f in dataclasses.fields(RegionNode)] == [
        "active", "law", "region", "node_id", "parent", "edge_label"]
    assert not issubclass(RegionNode, RegionResult)
    imported = import_json(export_json(dint_tree))
    assert {type(nd) for nd in dint_tree.nodes + imported.nodes} == {RegionNode}
    seen, todo = set(), [dint_tree]
    while todo:
        obj = todo.pop()
        if isinstance(obj, type) or id(obj) in seen:
            continue
        seen.add(id(obj))
        assert not isinstance(obj, (RegionResult, RegionStack))
        todo.extend(gc.get_referents(obj))
    assert len(seen) > 4 * dint_tree.num_regions


def test_import_rejects_foreign_json(dint_tree):
    with pytest.raises(ValueError):
        import_json('{"format": "something-else"}')
    with pytest.raises(ValueError):
        import_json("[1]")
    good = json.loads(export_json(dint_tree))
    # point location stacks as many rows of L and l per region, and evaluate
    # indexes the node list by the position it returns
    edits = {
        "L": lambda nd: nd["L"].pop(),
        "l": lambda nd: nd["l"].append(0.0),
        "Ku": lambda nd: [row.append(0.0) for row in nd["Ku"]],
        "ku": lambda nd: nd.update(ku=[nd["ku"]]),
        "id": lambda nd: nd.update(id=nd["id"] + 1),
    }
    for key, edit in edits.items():
        data = copy.deepcopy(good)
        edit(data["nodes"][3])
        with pytest.raises(ValueError, match=key):
            import_json(json.dumps(data))
    # a NaN or inf in the root's law or region rows would make every query
    # read as infeasible
    for key, value in [("L", np.nan), ("l", np.inf), ("Ku", np.nan), ("ku", -np.inf)]:
        data = copy.deepcopy(good)
        entries = np.array(data["nodes"][0][key])
        entries.flat[0] = value
        data["nodes"][0][key] = entries.tolist()
        with pytest.raises(ValueError, match="NaN or infinite"):
            import_json(json.dumps(data))
    assert import_json(json.dumps(good)).num_regions == dint_tree.num_regions


def test_import_rejects_unequal_row_counts(dint_tree):
    # point location reshapes each block by one row count, so every node
    # must have the rows of node 0, whichever of them differs
    good = json.loads(export_json(dint_tree))
    for position in (0, 3):
        data = copy.deepcopy(good)
        data["nodes"][position]["L"].pop()
        data["nodes"][position]["l"].pop()
        with pytest.raises(ValueError, match="L"):
            import_json(json.dumps(data))


def test_variant_names():
    assert VARIANTS == ("baseline", "iter")


# the guard explores: each problem with both variants
GUARD = (["paper-n1", "paper-n2", "paper-n3", "paper-n4", "cz-n1", "doubleint", "unbounded-dual", "drift"]
         + [f"sweep-{seed}" for seed in range(24)])


def _named_problem(name, paper_doc, dint_doc):
    if name.startswith("paper-n"):
        return parse_problem(dict(paper_doc, N=int(name[7:])))[0]
    if name == "cz-n1":
        return parse_problem(dict(paper_doc, N=1, T={"recurrence": {"K": "lqr"}}))[0]
    if name == "segment":
        return parse_problem(json.loads((ROOT / "problems" / "segment_terminal.json").read_text()))[0]
    if name == "doubleint":
        return parse_problem(dint_doc)[0]
    if name.startswith("sweep-"):
        return _sweep_problem(int(name[6:]))
    return {"unbounded-dual": _unbounded_dual_problem, "drift": _drift_problem}[name]()


@pytest.mark.parametrize("variant", VARIANTS)
@pytest.mark.parametrize("name", GUARD + ["segment"])
def test_reduced_bfs_matches_unreduced(name, variant, paper_doc, dint_doc):
    # the BFS over the coordinates whose box bounds can bind, mapped back,
    # against the BFS over all 2 Dbar facets: the same nodes in the same
    # places, laws within 1e-9, each region the reference's rows within 1e-9
    # less the rows of the eliminated facets, which are redundant, the same
    # point location, and fewer candidates examined
    problem = _named_problem(name, paper_doc, dint_doc)
    cp = build_condensed_qp(problem)
    tree, reference = explore(cp, variant=variant), explore_unreduced(cp, variant=variant)
    assert [(nd.node_id, nd.parent, nd.active, nd.edge_label) for nd in tree.nodes] == [
        (nd.node_id, nd.parent, nd.active, nd.edge_label) for nd in reference.nodes]
    assert tree.index == reference.index and tree.Dbar == cp.Dbar
    E = never_binding(cp)
    for nd, ref in zip(tree.nodes, reference.nodes):
        # the reference's rows: its inactive facets in increasing order, then
        # its multipliers; the region keeps those of the facets not on E
        facets = np.setdiff1d(np.arange(2 * cp.Dbar), nd.active.indices)
        kept = np.r_[np.flatnonzero(~np.isin(facets % cp.Dbar, E)), facets.size : 2 * cp.Dbar]
        for got, want in [(nd.law.Ku, ref.law.Ku), (nd.law.ku, ref.law.ku), (nd.region.L, ref.region.L[kept]),
                          (nd.region.l, ref.region.l[kept])]:
            assert got.shape == want.shape
            assert np.abs(got - want).max() <= 1e-9 * max(1.0, np.abs(want).max())
        if name in ("paper-n3", "cz-n1", "segment"):
            dropped = np.setdiff1d(np.arange(2 * cp.Dbar), kept)
            assert (_highs_maxima(ref.region.L[dropped], nd.region.L, nd.region.l) < ref.region.l[dropped]).all()
    rng = np.random.default_rng(0)
    points = problem.X.c + 2.0 * rng.uniform(-1.0, 1.0, (200, problem.X.G.shape[1])) @ problem.X.G.T
    centres = [chebyshev(Polytope(nd.region.L, nd.region.l)).center for nd in tree.nodes]
    for x0 in list(points) + centres:
        assert locate(tree, x0) == locate(reference, x0)
    st, ref_st = tree.stats, reference.stats
    assert st.discovered + st.numerical + st.empty + st.dedup == st.examined
    assert (st.discovered, st.dedup) == (ref_st.discovered, ref_st.dedup)
    # every candidate on an eliminated facet is one the unreduced BFS
    # rejected as singular or empty
    eliminated = ref_st.examined - st.examined
    assert ref_st.numerical + ref_st.empty - st.numerical - st.empty == eliminated
    if not E.size:
        assert st == ref_st


# SHA-256 of each tree's structure: node ids, parents, active sets, edge
# labels and stats. These are integers, so the hash does not depend on the
# BLAS; both variants give the same structure. A change that moves a tree on
# purpose must say so where it updates a hash here.
TREE_STRUCTURE_SHA256 = {
    "paper-n1": "e31354f198c4ac77576f69f214dfb00f8d331139443c96391df7bd8a8c6c7c0c",
    "paper-n2": "791e3e3a675597ab7e9f1f107190ac9c0dc29923a31854b9c030e5a9af07a8da",
    "paper-n3": "6650054d0cab0b24db81c9171d1aa01b7d85cd1c04283c5a7f9e71fb4b6d50b0",
    "cz-n1": "c3fe1096dc884cfaf2598a20e57ce5fa197333e1c135b15caf83e231dad6a89a",
    "doubleint": "ee7d2b029d0381df7290690893a276a4efd877cfea40292a502f2911e46abec0",
}


@pytest.mark.parametrize("variant", VARIANTS)
@pytest.mark.parametrize("name", list(TREE_STRUCTURE_SHA256))
def test_tree_structure_is_pinned(name, variant, paper_doc, dint_doc):
    tree = explore(build_condensed_qp(_named_problem(name, paper_doc, dint_doc)), variant=variant)
    nodes = [[nd.node_id, nd.parent, list(nd.active.indices), nd.edge_label] for nd in tree.nodes]
    text = json.dumps([nodes, dataclasses.asdict(tree.stats)])
    assert hashlib.sha256(text.encode()).hexdigest() == TREE_STRUCTURE_SHA256[name]


def test_never_binding_is_computed_once_per_problem(monkeypatch, paper_doc):
    # E depends only on the problem: two explores of one problem make one
    # support call, a rebuilt problem makes its own, and the reduced problem
    # does not inherit the cached set
    calls = []
    support = condense.support

    def counted(*args):
        calls.append(1)
        return support(*args)

    monkeypatch.setattr(condense, "support", counted)
    problem = parse_problem(dict(paper_doc, N=2))[0]
    cp = build_condensed_qp(problem)
    calls.clear()
    trees = [export_json(explore(cp, variant=v)) for v in VARIANTS + VARIANTS]
    assert len(calls) == 1
    rebuilt = build_condensed_qp(problem)
    calls.clear()
    assert export_json(explore(rebuilt, variant="iter")) == trees[1]
    assert len(calls) == 1
    assert np.array_equal(rebuilt.never_binding, never_binding(cp))
    assert "never_binding" not in vars(eliminate(cp, cp.never_binding)[0])


def test_eliminated_coordinates(paper_doc, dint_doc):
    counts = {}
    for name in ["paper-n3", "paper-n4", "cz-n1", "doubleint", "segment"]:
        cp = build_condensed_qp(_named_problem(name, paper_doc, dint_doc))
        counts[name] = (never_binding(cp).size, cp.Dbar)
    assert counts == {"paper-n3": (8, 22), "paper-n4": (12, 28), "cz-n1": (26, 36), "doubleint": (0, 8),
                      "segment": (8, 13)}


def _highs_maxima(C, L, l):
    """``max C[j] @ x`` over ``{L x <= l}`` for every row ``j``, by HiGHS:
    one separable LP with a copy of ``x`` per row, each copy at its own
    maximum."""
    from scipy.optimize import linprog
    from scipy.sparse import identity, kron

    res = linprog(-C.ravel(), A_ub=kron(identity(len(C)), L, format="csr"), b_ub=np.tile(l, len(C)),
                  bounds=(None, None), method="highs")
    assert res.status == 0
    return np.einsum("ij,ij->i", C, res.x.reshape(C.shape))


def _highs_reach(cp, i):
    """Largest |xi_i| over every feasible (xi, x0), by HiGHS with x0 free."""
    from scipy.optimize import linprog

    A_eq = np.hstack([cp.F_D, -cp.theta2_D])
    bounds = [(-1.0, 1.0)] * cp.Dbar + [(None, None)] * cp.n
    reach = []
    for sign in (1.0, -1.0):
        c = np.zeros(cp.Dbar + cp.n)
        c[i] = -sign
        res = linprog(c, A_eq=A_eq, b_eq=cp.theta1_D, bounds=bounds, method="highs")
        assert res.status == 0
        reach.append(-res.fun)
    return max(reach)


@pytest.mark.parametrize("name", ["paper-n3", "cz-n1"])
def test_never_binding_agrees_with_highs(name, paper_doc, dint_doc):
    cp = build_condensed_qp(_named_problem(name, paper_doc, dint_doc))
    eliminated = set(never_binding(cp).tolist())
    assert eliminated
    for i in range(cp.Dbar):
        if i in eliminated:
            assert _highs_reach(cp, i) < 1.0 - NEVER_BINDS_MARGIN
        elif not cp.G_D[:, i].any():
            assert _highs_reach(cp, i) >= 1.0 - 1e-7


def test_coordinates_the_cost_reads_are_kept(dint_doc):
    # with U a hundred times wider the input generators reach only 0.1, but
    # G_D reads them: they stay, and the tree is the unreduced one
    cp = build_condensed_qp(parse_problem(dict(dint_doc, U={"c": [0], "G": [[100]]}))[0])
    inputs = np.flatnonzero(cp.G_D.any(axis=0))
    assert inputs.size == 2
    for i in inputs:
        assert _highs_reach(cp, i) < 0.2
    assert not set(inputs.tolist()) & set(never_binding(cp).tolist())
    for variant in VARIANTS:
        assert export_json(explore(cp, variant=variant)) == export_json(explore_unreduced(cp, variant=variant))
