import numpy as np
import pytest

from czempc.condense import MpcProblem, build_condensed_qp
from czempc.cli import parse_problem
from czempc.explorer import (
    InfeasibleProblem,
    ResourceCap,
    VARIANTS,
    enumerate_children,
    explore,
    export_dot,
    export_json,
    import_json,
    quick_check,
    swap_indices,
)
from czempc.regions import ActiveSet, reduced_active_set
from czempc.runtime import ActiveSubsetOracle, oracle_qp, polyhedral_feasible
from czempc.sets import ConstrainedZonotope, Zonotope


def test_swap_indices():
    a = ActiveSet(4, (1, 6))  # pair 1 taken by lower index, pair 2 by upper facet
    assert swap_indices(a) == [0, 3]


def test_enumerate_children_order():
    a = ActiveSet(3, (2,))
    children = enumerate_children(a)
    # free pairs 0 and 1; lower facet (i + Dbar) proposed before the upper one
    assert [c[1] for c in children] == [3, 0, 4, 1]
    assert all(child.contains(label) for child, label in children)


def test_quick_check():
    assert quick_check((), (3,))
    assert quick_check((3,), (3, 7))
    assert not quick_check((3,), (3,))  # no new pinned row
    assert not quick_check((3,), (7,))  # parent row lost
    assert not quick_check((), (3, 7))  # two new rows at once


def test_double_integrator_tree(dint_tree, dint_cp):
    tree = dint_tree
    assert tree.num_regions == 9
    assert tree.nodes[0].active.indices == ()
    assert tree.nodes[0].parent is None
    st = tree.stats
    assert st.discovered + st.numerical + st.quick + st.empty + st.dedup == st.examined
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
    for variant in ("baseline", "iter-quick"):
        other = explore(dint_cp, variant=variant)
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


def test_stored_ared_matches_law(dint_cp, dint_tree):
    # without the quick check the reduced active set is computed after acceptance
    for tree in (dint_tree, explore(dint_cp, variant="iter-quick")):
        for nd in tree.nodes:
            assert nd.ared == reduced_active_set(dint_cp, nd.law)


def test_unknown_variant(dint_cp):
    with pytest.raises(ValueError):
        explore(dint_cp, variant="fastest")


def test_node_cap(dint_cp):
    with pytest.raises(ResourceCap):
        explore(dint_cp, node_cap=3)


def test_depth_cap_limits_tree(dint_cp):
    shallow = explore(dint_cp, depth_cap=1)
    assert max(nd.active.cardinality for nd in shallow.nodes) <= 1
    assert shallow.num_regions < 9


def test_infeasible_root():
    hexa = Zonotope(np.zeros(2), np.array([[4.0, 1.0, 0.5], [0.0, 3.0, 1.0]]))
    p = MpcProblem(
        np.array([[1.0, 1.0], [0.0, 1.0]]), np.array([[0.0], [1.0]]),
        np.eye(2), np.array([[0.1]]), np.eye(2), 2,
        hexa, Zonotope(np.zeros(1), np.eye(1)), hexa,
    )
    with pytest.raises(InfeasibleProblem):
        explore(build_condensed_qp(p))


def _cz_terminal_problem():
    box5 = Zonotope(np.zeros(2), 5.0 * np.eye(2))
    # constrained-zonotope terminal set: no terminal H-rep rows available
    T = ConstrainedZonotope(
        np.zeros(2), 5.0 * np.eye(2), np.array([[1.0, 1.0]]), np.array([0.0])
    )
    p = MpcProblem(
        np.array([[1.0, 1.0], [0.0, 1.0]]), np.array([[0.0], [1.0]]),
        np.eye(2), np.array([[0.1]]), np.eye(2), 2,
        box5, Zonotope(np.zeros(1), np.eye(1)), T,
    )
    return build_condensed_qp(p)


def test_quick_requires_polyhedral_terminal():
    cp = _cz_terminal_problem()
    assert not cp.poly_has_terminal
    with pytest.raises(ValueError):
        explore(cp, variant="iter-quick")
    # the CZ machinery itself still handles the equality-constrained terminal
    tree = explore(cp, variant="iter")
    assert tree.num_regions > 0


def test_oracle_requires_polyhedral_terminal():
    # the polyhedral rows lack the terminal constraint, so the oracle refuses
    # rather than answer for a larger feasible set
    cp = _cz_terminal_problem()
    with pytest.raises(ValueError):
        ActiveSubsetOracle(cp)
    with pytest.raises(ValueError):
        oracle_qp(cp, np.zeros(2))
    with pytest.raises(ValueError):
        polyhedral_feasible(cp, np.zeros(2))


@pytest.mark.xfail(
    reason="with parallelotope state/input sets every lifted facet pins exactly one "
    "polyhedral row, so the coefficient-identity reduced active set makes the quick "
    "check a tautology for surviving candidates; it never fires on these instances",
    strict=True,
)
def test_quick_counter_fires(paper_tree):
    assert paper_tree(2, "iter-quick").stats.quick > 0


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
    assert back.stats.as_dict() == dint_tree.stats.as_dict()
    for a, b in zip(dint_tree.nodes, back.nodes):
        assert a.active.indices == b.active.indices
        assert a.ared == b.ared
        assert a.parent == b.parent and a.edge_label == b.edge_label
        # repr-based serialization round-trips every float bit-exactly
        assert np.array_equal(a.law.Ku, b.law.Ku)
        assert np.array_equal(a.law.ku, b.law.ku)
        assert np.array_equal(a.region.L, b.region.L)
        assert np.array_equal(a.region.l, b.region.l)


def test_import_rejects_foreign_json():
    with pytest.raises(ValueError):
        import_json('{"format": "something-else"}')


def test_variant_names():
    assert VARIANTS == ("baseline", "iter", "iter-quick")
