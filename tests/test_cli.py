import functools
import json
import pathlib

import numpy as np
import pytest
from conftest import explore_unreduced
from oracle import polyhedral_rows

from czempc import cli, condense, lp
from czempc.cli import EXIT_INFEASIBLE, EXIT_OK, EXIT_PARSE, EXIT_STOPPED, main, parse_problem
from czempc.condense import (
    MpcProblem,
    TerminalRecurrence,
    build_condensed_qp,
    build_prediction_matrices,
    build_terminal_set,
)
from czempc.explorer import explore, export_json, import_json
from czempc.regions import AffineLaw, reduced_active_set
from czempc.runtime import evaluate
from czempc.sets import DimensionMismatch, Polytope, chebyshev

ROOT = pathlib.Path(__file__).resolve().parents[1]
DINT_PROBLEM = ROOT / "problems" / "doubleint.json"
PAPER_PROBLEM = ROOT / "problems" / "paper4state.json"
SEGMENT_PROBLEM = ROOT / "problems" / "segment_terminal.json"


def test_parse_problem(dint_doc):
    problem, options = parse_problem(dint_doc, None)
    assert isinstance(problem, MpcProblem)
    assert problem.N == 2 and problem.n == 2 and problem.m == 1
    assert options["variant"] == "iter"


def test_parse_problem_horizon_override(paper_doc):
    problem, _ = parse_problem(paper_doc, n_override=2)
    assert problem.N == 2


def test_parse_problem_terminal_recurrence(dint_doc):
    doc = dict(dint_doc)
    doc["T"] = {"recurrence": {"K": "lqr", "maxIter": 30}}
    problem, _ = parse_problem(doc, None)
    assert isinstance(problem.T, TerminalRecurrence)
    assert problem.T.max_iter == 30


def test_solve_and_eval(tmp_path, capsys):
    out = tmp_path / "tree.json"
    assert main(["solve", str(DINT_PROBLEM), str(out)]) == EXIT_OK
    captured = capsys.readouterr().out
    assert "9 critical regions" in captured
    tree = import_json(out.read_text())
    assert tree.num_regions == 9

    assert main(["eval", str(out), "1.0,0.5", "50,50"]) == EXIT_OK
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "node,u0"
    node, u0 = lines[1].split(",")
    # CSV floats round-trip bit-exactly against the library evaluation
    assert float(u0) == evaluate(tree, np.array([1.0, 0.5]))[0]
    assert lines[2] == "infeasible"


def test_solve_with_dot_and_overrides(tmp_path):
    out = tmp_path / "tree.json"
    dot = tmp_path / "tree.dot"
    code = main(
        ["solve", str(PAPER_PROBLEM), str(out), "-N", "1", "--variant", "baseline",
         "--radius-threshold", "1e-6", "--eps", "1e-10", "--dot", str(dot)]
    )
    assert code == EXIT_OK
    assert dot.read_text().startswith("digraph")
    data = json.loads(out.read_text())
    assert data["format"] == "czempc-tree" and data["N"] == 1
    assert data["variant"] == "baseline"


def test_simulate_command(tmp_path, capsys):
    out = tmp_path / "tree.json"
    main(["solve", str(DINT_PROBLEM), str(out)])
    capsys.readouterr()
    assert main(["simulate", str(DINT_PROBLEM), str(out), "2.0,-1.0", "--steps", "5"]) == EXIT_OK
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "k,x0,x1,u0,stage_cost"
    assert len(lines) == 6
    for line in lines[1:]:
        fields = line.split(",")
        assert len(fields) == 5
        for field in fields:
            float(field)


@pytest.mark.parametrize(
    "state", ["1,2,3", "1", "1,abc", "", "1,nan", "inf,0"],
    ids=["too-long", "too-short", "not-a-number", "empty", "nan", "inf"],
)
@pytest.mark.parametrize("command", ["eval", "simulate"])
def test_malformed_state_exits_3(tmp_path, capsys, command, state):
    out = tmp_path / "tree.json"
    main(["solve", str(DINT_PROBLEM), str(out)])
    capsys.readouterr()
    argv = ["eval", str(out), "0,0", state] if command == "eval" else ["simulate", str(DINT_PROBLEM), str(out), state]
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == EXIT_PARSE
    captured = capsys.readouterr()
    assert captured.out == ""  # states are checked before any output
    assert len(captured.err.strip().splitlines()) == 1 and "invalid state" in captured.err


@pytest.mark.parametrize("value", ["nan", "inf", "-1", "-1e-9"])
@pytest.mark.parametrize("source", ["flag", "file"])
def test_invalid_radius_threshold_exits_3(tmp_path, capsys, source, value):
    # a negative or NaN threshold would accept empty regions silently
    out = tmp_path / "tree.json"
    if source == "flag":
        argv = ["solve", str(DINT_PROBLEM), str(out), f"--radius-threshold={value}"]
    else:
        doc = json.loads(DINT_PROBLEM.read_text())
        doc["options"]["radiusThreshold"] = float(value)
        problem = tmp_path / "problem.json"
        problem.write_text(json.dumps(doc))
        argv = ["solve", str(problem), str(out)]
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == EXIT_PARSE
    assert "radius threshold" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("value", ["nan", "-1e-10"])
def test_invalid_eps_exits_3(tmp_path, capsys, value):
    out = tmp_path / "tree.json"
    with pytest.raises(SystemExit) as exc:
        main(["bench", str(DINT_PROBLEM), "--nmin", "1", "--nmax", "1", f"--eps={value}", "--out", str(out)])
    assert exc.value.code == EXIT_PARSE
    assert "eps" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "argv",
    [["bench", str(DINT_PROBLEM), "--eps", "-1e-10"], ["solve", str(DINT_PROBLEM), "tree.json", "--bogus"],
     ["solve", str(DINT_PROBLEM)], []],
    ids=["eps-read-as-flag", "unknown-flag", "missing-argument", "missing-subcommand"],
)
def test_usage_error_exits_3(argv, capsys):
    # argparse's own exit code 2 would read as "infeasible"
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == EXIT_PARSE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert len(captured.err.strip().splitlines()) == 1 and "error:" in captured.err


@pytest.mark.parametrize("argv", [["--help"], ["solve", "--help"]])
def test_help_exits_0(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 0
    assert "usage:" in capsys.readouterr().out


def test_negative_steps_exits_3(tmp_path, capsys):
    out = tmp_path / "tree.json"
    main(["solve", str(DINT_PROBLEM), str(out)])
    capsys.readouterr()
    assert main(["simulate", str(DINT_PROBLEM), str(out), "2.0,-1.0", "--steps", "-3"]) == EXIT_PARSE
    captured = capsys.readouterr()
    assert captured.out == "" and "--steps" in captured.err


def test_simulate_tree_of_another_problem(tmp_path, capsys):
    out = tmp_path / "tree.json"
    main(["solve", str(DINT_PROBLEM), str(out)])
    capsys.readouterr()
    assert main(["simulate", str(PAPER_PROBLEM), str(out), "0,0,0,0"]) == EXIT_PARSE
    assert "n=2" in capsys.readouterr().err


def test_simulate_infeasible_exit(tmp_path, capsys):
    out = tmp_path / "tree.json"
    main(["solve", str(DINT_PROBLEM), str(out)])
    capsys.readouterr()
    assert main(["simulate", str(DINT_PROBLEM), str(out), "30,0"]) == EXIT_INFEASIBLE


def test_export_dot_command(tmp_path, capsys):
    out = tmp_path / "tree.json"
    main(["solve", str(DINT_PROBLEM), str(out)])
    capsys.readouterr()
    assert main(["export-dot", str(out)]) == EXIT_OK
    assert capsys.readouterr().out.startswith("digraph")


def test_bench_csv(tmp_path):
    csv_path = tmp_path / "bench.csv"
    code = main(
        ["bench", str(DINT_PROBLEM), "--nmin", "1", "--nmax", "2",
         "--variants", "iter,baseline", "--out", str(csv_path)]
    )
    assert code == EXIT_OK
    lines = csv_path.read_text().strip().splitlines()
    assert lines[0] == "variant,N,regions,seconds,numerical,empty,discovered"
    assert len(lines) == 5  # 2 horizons x 2 variants
    for line in lines[1:]:
        variant, N, regions, seconds, numerical, empty, discovered = line.split(",")
        assert variant in ("iter", "baseline")
        assert int(regions) > 0
        assert float(seconds) >= 0
        assert int(regions) == int(discovered) + 1


def test_bench_variant_counts_agree(tmp_path):
    csv_path = tmp_path / "bench.csv"
    main(["bench", str(DINT_PROBLEM), "--nmin", "2", "--nmax", "2", "--out", str(csv_path)])
    lines = csv_path.read_text().strip().splitlines()[1:]
    counts = {line.split(",")[0]: line.split(",")[2] for line in lines}
    assert len(set(counts.values())) == 1  # all variants find the same region count


def test_bench_lower_dimensional_terminal_set(tmp_path):
    # at N=1 the segment terminal set leaves more lifted equalities than
    # coordinates (nbar_c > Dbar), so even the root is singular: an
    # infeasible row, not a traceback
    csv_path = tmp_path / "bench.csv"
    assert main(["bench", str(SEGMENT_PROBLEM), "--nmax", "3", "--out", str(csv_path)]) == EXIT_OK
    lines = csv_path.read_text().strip().splitlines()[1:]
    assert lines[:2] == ["baseline,1,infeasible,,,,", "iter,1,infeasible,,,,"]
    assert [line.split(",")[2] for line in lines[2:]] == ["1", "1", "9", "9"]


def test_bench_unknown_variant(tmp_path):
    assert main(["bench", str(DINT_PROBLEM), "--variants", "turbo"]) == EXIT_PARSE


def test_bench_node_cap(tmp_path, monkeypatch):
    monkeypatch.setattr(cli, "explore", functools.partial(explore, node_cap=2))
    csv_path = tmp_path / "bench.csv"
    code = main(["bench", str(DINT_PROBLEM), "--nmin", "2", "--nmax", "2",
                 "--variants", "iter", "--out", str(csv_path)])
    assert code == EXIT_OK
    assert csv_path.read_text().strip().splitlines()[1] == "iter,2,cap_exceeded,,,,"


def test_bench_propagates_other_errors(tmp_path, monkeypatch):
    def broken(cp, **opts):
        raise ZeroDivisionError("solver fault")

    monkeypatch.setattr(cli, "explore", broken)
    with pytest.raises(ZeroDivisionError):
        main(["bench", str(DINT_PROBLEM), "--nmin", "1", "--nmax", "1", "--variants", "iter"])


def test_eval_malformed_tree(tmp_path, capsys):
    bad = tmp_path / "tree.json"
    bad.write_text('{"format": "czempc-tree", "nodes": [')
    with pytest.raises(SystemExit) as exc:
        main(["eval", str(bad), "0,0"])
    assert exc.value.code == EXIT_PARSE
    assert "cannot load tree" in capsys.readouterr().err
    with pytest.raises(SystemExit) as exc:
        main(["eval", str(tmp_path / "missing.json"), "0,0"])
    assert exc.value.code == EXIT_PARSE


def _write_tree(tmp_path, edit):
    tree = tmp_path / "tree.json"
    main(["solve", str(DINT_PROBLEM), str(tree)])
    data = json.loads(tree.read_text())
    edit(data)
    tree.write_text(json.dumps(data))
    return tree


@pytest.mark.parametrize(
    "edit",
    [
        lambda d: d["stats"].update(pruned=1),  # a count this format does not have
        lambda d: d["nodes"][1].update(active=[99]),  # beyond the 2 Dbar facets
        lambda d: d["nodes"][0]["L"][0].__setitem__(0, float("nan")),  # every query would read infeasible
    ],
    ids=["unknown-stats-key", "active-index-out-of-range", "root-L-nan"],
)
def test_eval_malformed_tree_content(tmp_path, capsys, edit):
    tree = _write_tree(tmp_path, edit)
    capsys.readouterr()
    with pytest.raises(SystemExit) as exc:
        main(["eval", str(tree), "0,0"])
    assert exc.value.code == EXIT_PARSE
    assert "cannot load tree" in capsys.readouterr().err


def test_eval_reads_tree_with_quick_check_stats(tmp_path, capsys):
    # version-1 files written while the quick check existed may name its
    # variant and count the (empty) candidates it pruned apart
    def older(d):
        d["variant"] = "iter-quick"
        d["stats"]["empty"] -= 2
        d["stats"]["quick"] = 2

    tree = _write_tree(tmp_path, older)
    capsys.readouterr()
    assert main(["eval", str(tree), "1.0,0.5"]) == EXIT_OK
    assert capsys.readouterr().out.splitlines()[1] != "infeasible"
    loaded = import_json(tree.read_text())
    assert loaded.variant == "iter-quick"
    st = loaded.stats
    assert st.discovered + st.numerical + st.empty + st.dedup == st.examined


def _eval_lines(tree, capsys):
    capsys.readouterr()
    assert main(["eval", str(tree), "1.0,0.5", "0.5,-0.2", "50,50"]) == EXIT_OK
    return capsys.readouterr().out.splitlines()


def test_eval_reads_version_1_tree_with_ared(tmp_path, capsys, dint_problem):
    # version-1 files carry each node's reduced active set, which is ignored
    def older(d):
        d["version"] = 1
        for nd in d["nodes"]:
            law = AffineLaw(np.array(nd["Ku"]), np.array(nd["ku"]))
            nd["ared"] = list(reduced_active_set(*polyhedral_rows(dint_problem), law))

    current = _write_tree(tmp_path, lambda d: None)
    data = json.loads(current.read_text())
    assert data["version"] == 3 and not any("ared" in nd for nd in data["nodes"])
    want = _eval_lines(current, capsys)
    tree = _write_tree(tmp_path, older)
    assert any(nd["ared"] for nd in json.loads(tree.read_text())["nodes"])
    assert _eval_lines(tree, capsys) == want
    assert import_json(tree.read_text()).num_regions == 9


def test_eval_reads_version_2_tree_without_ared(tmp_path, capsys):
    def newer(d):
        d["version"] = 2
        for nd in d["nodes"]:
            nd.pop("ared", None)

    tree = _write_tree(tmp_path, newer)
    assert import_json(tree.read_text()).num_regions == 9
    lines = _eval_lines(tree, capsys)
    assert lines[0] == "node,u0" and lines[1] != "infeasible" and lines[3] == "infeasible"


def test_eval_reads_version_2_tree_with_all_rows(tmp_path, capsys, paper_doc):
    # version-2 files hold 2 Dbar rows per region, the rows of the
    # eliminated coordinates among them; they give the nodes and inputs of
    # the version-3 tree, which keeps only the rows it explored
    cp = build_condensed_qp(parse_problem(dict(paper_doc, N=1, T={"recurrence": {"K": "lqr"}}))[0])
    current, older = tmp_path / "current.json", tmp_path / "older.json"
    current.write_text(export_json(explore(cp)))
    data = json.loads(export_json(explore_unreduced(cp)))
    older.write_text(json.dumps(dict(data, version=2)))
    assert json.loads(current.read_text())["version"] == 3
    assert {len(nd["l"]) for nd in data["nodes"]} == {2 * cp.Dbar}
    tree = import_json(current.read_text())
    assert {nd.region.l.size for nd in tree.nodes} == {20}
    states = [chebyshev(Polytope(nd.region.L, nd.region.l)).center for nd in tree.nodes]
    states += list(np.random.default_rng(0).uniform(-10.0, 10.0, (50, cp.n)))
    argv = [",".join(repr(float(v)) for v in x0) for x0 in states]
    lines = {}
    for path in (current, older):
        capsys.readouterr()
        assert main(["eval", str(path), "--", *argv]) == EXIT_OK
        lines[path] = [line.split(",") for line in capsys.readouterr().out.splitlines()[1:]]
    assert len(lines[older]) == len(lines[current]) == len(states)
    assert sum(line[0] == "infeasible" for line in lines[current]) > 0
    for got, want in zip(lines[older], lines[current]):
        assert got[0] == want[0]
        np.testing.assert_allclose(np.array(got[1:], dtype=float), np.array(want[1:], dtype=float), rtol=1e-9,
                                   atol=1e-9)


def test_malformed_json(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"A": [[1, 1], [0, 1]],')
    with pytest.raises(SystemExit) as exc:
        main(["solve", str(bad), str(tmp_path / "out.json")])
    assert exc.value.code == EXIT_PARSE
    err = capsys.readouterr().err
    assert "line" in err and "column" in err


def test_missing_key(tmp_path, capsys):
    doc = json.loads(DINT_PROBLEM.read_text())
    del doc["Q"]
    bad = tmp_path / "noq.json"
    bad.write_text(json.dumps(doc))
    with pytest.raises(SystemExit) as exc:
        main(["solve", str(bad), str(tmp_path / "out.json")])
    assert exc.value.code == EXIT_PARSE


def _solve_edited_dint(tmp_path, capsys, edit):
    """Exit code and stderr lines of ``solve`` on the double integrator after ``edit``."""
    doc = json.loads(DINT_PROBLEM.read_text())
    edit(doc)
    path = tmp_path / "problem.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(SystemExit) as exc:
        main(["solve", str(path), str(tmp_path / "out.json")])
    assert not (tmp_path / "out.json").exists()
    return exc.value.code, capsys.readouterr().err.strip().splitlines()


NAN, INF = float("nan"), float("inf")


@pytest.mark.parametrize(
    "edit",
    [
        lambda d: d["A"][0].__setitem__(1, NAN),
        lambda d: d["B"][1].__setitem__(0, INF),
        lambda d: d["S"][0].__setitem__(0, -INF),
        lambda d: d["X"]["G"][0].__setitem__(0, INF),
        lambda d: d["X"]["c"].__setitem__(0, NAN),
        lambda d: d["U"].update(c=[NAN]),
        lambda d: d["T"]["G"][1].__setitem__(1, NAN),
        lambda d: d["T"].update(F=[[1.0, 1.0]], theta=[NAN]),
        lambda d: d.update(T={"recurrence": {"K": [[NAN, 1.0]]}}),
    ],
    ids=["A-nan", "B-inf", "S-minus-inf", "X.G-inf", "X.c-nan", "U.c-nan", "T.G-nan", "T.theta-nan", "K-nan"],
)
def test_non_finite_problem_data_exits_3(tmp_path, capsys, edit):
    # a NaN in a set centre once gave a 39-region tree and exit 0; elsewhere
    # it ended in a LinAlgError or ValueError traceback
    code, err = _solve_edited_dint(tmp_path, capsys, edit)
    assert code == EXIT_PARSE
    assert len(err) == 1 and "NaN or infinite entry" in err[0]


def test_gain_of_wrong_shape_exits_3(tmp_path, capsys, dint_doc):
    # m = 1, n = 2: a 1 x 3 gain once ended in a broadcast traceback
    code, err = _solve_edited_dint(tmp_path, capsys, lambda d: d.update(T={"recurrence": {"K": [[1, 2, 3]]}}))
    assert code == EXIT_PARSE
    assert len(err) == 1 and "gain K has shape (1, 3), expected (1, 2)" in err[0]
    problem, _ = parse_problem(dint_doc)
    with pytest.raises(DimensionMismatch):
        build_terminal_set(problem.A_d, problem.B_d, np.ones((1, 3)), problem.X, problem.U)


@pytest.mark.parametrize("N", [2.7, True, "2", None], ids=["fraction", "boolean", "string", "null"])
def test_non_integral_horizon_exits_3(tmp_path, capsys, dint_doc, N):
    # 2.7 was truncated to 2 and true read as 1
    code, err = _solve_edited_dint(tmp_path, capsys, lambda d: d.update(N=N))
    assert code == EXIT_PARSE
    assert len(err) == 1 and "horizon N must be an integer" in err[0]
    problem, _ = parse_problem(dict(dint_doc, N=2.0))
    assert problem.N == 2 and isinstance(problem.N, int)


@pytest.mark.parametrize(
    "edit, message",
    [
        (lambda d: d.update(A={"x": 1}), "A is not a numeric array"),
        (lambda d: d.update(T={"recurrence": [1]}), "T.recurrence must be an object"),
        (lambda d: d.update(T={"recurrence": {"K": "lqr", "tol": [1]}}), "not 'list'"),
        (lambda d: d.update(T={"recurrence": {"K": "lqr", "maxIter": 2.7}}), "maxIter must be an integer"),
        (lambda d: d.update(T={"recurrence": {"K": "lqr", "maxIter": True}}), "maxIter must be an integer"),
        (lambda d: d.update(options=[1, 2]), "options must be an object"),
        (lambda d: d["options"].update(radiusThreshold=True), "radius threshold must be a finite number, not 'bool'"),
        (lambda d: d["options"].update(radiusThreshold="1e-6"), "radius threshold must be a finite number, not 'str'"),
        (lambda d: d["options"].update(eps="1e-10"), "eps must be a finite number, not 'str'"),
        (lambda d: d["options"].update(eps=False), "eps must be a finite number, not 'bool'"),
        (lambda d: d.update(T={"recurrence": {"K": "lqr", "tol": True}}), "tol must be a finite number, not 'bool'"),
        (lambda d: d.update(T={"recurrence": {"K": "lqr", "tol": "1e-8"}}), "tol must be a finite number, not 'str'"),
        (lambda d: d.update(T={"recurrence": {"K": "lqr", "tol": NAN}}), "tol must be a finite number"),
        (lambda d: d.update(T={"recurrence": {"K": "lqr", "tol": 0}}), "T.recurrence.tol must be > 0"),
    ],
    ids=["A-object", "recurrence-list", "tol-list", "maxIter-fraction", "maxIter-boolean", "options-list",
         "radius-boolean", "radius-string", "eps-string", "eps-boolean", "tol-boolean", "tol-string", "tol-nan",
         "tol-zero"],
)
def test_wrongly_typed_problem_data_exits_3(tmp_path, capsys, edit, message):
    # the first three ended in a TypeError or AttributeError traceback (exit 1);
    # maxIter 2.7 ran 2 steps and true ran 1, both writing a tree with exit 0;
    # options [1, 2] were ignored (exit 0, 9 regions), a radius threshold of
    # true was read as 1.0 (exit 2: the root region is empty), a tol of true
    # ran the recurrence at tol = 1.0 (exit 0, 13 regions), and strings passed
    code, err = _solve_edited_dint(tmp_path, capsys, edit)
    assert code == EXIT_PARSE
    assert len(err) == 1 and message in err[0]


def test_unknown_variant_in_problem_file(tmp_path, capsys):
    doc = json.loads(PAPER_PROBLEM.read_text())
    doc["options"]["variant"] = "iter-quick"  # removed: it never changed a tree
    path = tmp_path / "problem.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(SystemExit) as exc:
        main(["solve", str(path), str(tmp_path / "out.json"), "-N", "1"])
    assert exc.value.code == EXIT_PARSE
    assert "unknown variant 'iter-quick'" in capsys.readouterr().err


def test_unknown_gain_directive(tmp_path, capsys):
    doc = json.loads(DINT_PROBLEM.read_text())
    doc["T"] = {"recurrence": {"K": "dlqr"}}
    path = tmp_path / "problem.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(SystemExit) as exc:
        main(["solve", str(path), str(tmp_path / "out.json")])
    assert exc.value.code == EXIT_PARSE
    err = capsys.readouterr().err.strip()
    assert "unknown gain directive 'dlqr'" in err and len(err.splitlines()) == 1


def test_solve_paper_problem_with_cz_terminal_set(tmp_path, capsys):
    # the problem file's own options with the LQR-invariant CZ terminal set
    doc = json.loads(PAPER_PROBLEM.read_text())
    doc["T"] = {"recurrence": {"K": "lqr"}}
    path = tmp_path / "problem.json"
    path.write_text(json.dumps(doc))
    assert main(["solve", str(path), str(tmp_path / "out.json"), "-N", "1"]) == EXIT_OK
    assert "77 critical regions" in capsys.readouterr().out


def test_solve_lower_dimensional_terminal_set(tmp_path, capsys):
    # the terminal set is the segment {(s, 0, 0) : |s| <= 2}, which has no
    # facets in the state space; condensing needs none
    problem, _ = parse_problem(json.loads(SEGMENT_PROBLEM.read_text()))
    pred = build_prediction_matrices(problem.A_d, problem.B_d, problem.N)
    trees = {}
    for variant in ("iter", "baseline"):
        out = tmp_path / f"{variant}.json"
        assert main(["solve", str(SEGMENT_PROBLEM), str(out), "--variant", variant]) == EXIT_OK
        trees[variant] = import_json(out.read_text())
    assert "9 critical regions" in capsys.readouterr().out
    assert [nd.active for nd in trees["iter"].nodes] == [nd.active for nd in trees["baseline"].nodes]
    for tree in trees.values():
        assert tree.num_regions == 9
        for nd in tree.nodes:
            center = chebyshev(Polytope(nd.region.L, nd.region.l)).center
            x_N = pred.Atilde_N @ center + pred.Btilde_N @ nd.law(center)
            assert np.max(np.abs(x_N[1:])) <= 1e-9 and abs(x_N[0]) <= 2.0 + 1e-9


def test_unknown_variant_option(tmp_path):
    # a validation error like a bad problem file; exit 2 would mean infeasible
    for variant in ("turbo", "iter-quick"):
        with pytest.raises(SystemExit) as exc:
            main(["solve", str(DINT_PROBLEM), str(tmp_path / "out.json"), "--variant", variant])
        assert exc.value.code == EXIT_PARSE


@pytest.mark.parametrize(
    "problem, recurrence, message",
    [
        (PAPER_PROBLEM, {"K": "lqr", "maxIter": 1}, "did not converge"),  # needs 4 steps
        (DINT_PROBLEM, {"K": [[1.0, 1.0]]}, "not Schur stable"),
        (DINT_PROBLEM, {"K": "lqr", "maxIter": 0}, "did not converge in 0 steps"),
        (DINT_PROBLEM, {"K": "lqr", "maxIter": -1.0}, "did not converge in -1 steps"),
    ],
)
@pytest.mark.parametrize("command", ["solve", "bench"])
def test_terminal_set_failure_exits_parse(tmp_path, capsys, problem, recurrence, message, command):
    doc = json.loads(problem.read_text())
    doc["T"] = {"recurrence": recurrence}
    path = tmp_path / "problem.json"
    path.write_text(json.dumps(doc))
    argv = {"solve": ["solve", str(path), str(tmp_path / "out.json"), "-N", "1"],
            "bench": ["bench", str(path), "--nmin", "1", "--nmax", "1", "--variants", "iter"]}[command]
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == EXIT_PARSE
    err = capsys.readouterr().err.strip()
    assert message in err and len(err.splitlines()) == 1


@pytest.mark.parametrize("terminal", ["box", "recurrence"])
@pytest.mark.parametrize("command", ["solve", "bench"])
def test_stalled_simplex_exits_1(tmp_path, capsys, monkeypatch, command, terminal):
    # a simplex that hits its pivot cap, in the emptiness LPs of explore or in
    # the support LPs of the terminal-set recurrence, ends the run with one
    # error line and exit 1, not a traceback
    doc = json.loads(DINT_PROBLEM.read_text())
    if terminal == "recurrence":
        doc["T"] = {"recurrence": {"K": "lqr"}}
    path, out = tmp_path / "problem.json", tmp_path / "out.json"
    path.write_text(json.dumps(doc))
    monkeypatch.setattr(lp, "_MAX_ITER", 3)
    argv = {"solve": ["solve", str(path), str(out)],
            "bench": ["bench", str(path), "--nmin", "2", "--nmax", "2", "--out", str(out)]}[command]
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    assert code == EXIT_STOPPED
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("error: the solver stopped without an answer")
    assert not out.exists()


@pytest.mark.parametrize("command", ["solve", "bench"])
def test_stalled_elimination_lp_exits_1(tmp_path, capsys, monkeypatch, command):
    # a pivot cap hit in the LPs that find the never-binding coordinates, at
    # the start of explore, ends the run like any other stalled simplex
    def stalled(*args, **kwargs):
        raise lp.SimplexStalled("simplex iteration cap exceeded")

    monkeypatch.setattr(condense, "solve_stack", stalled)
    out = tmp_path / "out.json"
    argv = {"solve": ["solve", str(PAPER_PROBLEM), str(out), "-N", "2"],
            "bench": ["bench", str(PAPER_PROBLEM), "--nmin", "2", "--nmax", "2", "--out", str(out)]}[command]
    assert main(argv) == EXIT_STOPPED
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("error: the solver stopped without an answer")
    assert not out.exists()


def test_missing_file(tmp_path):
    with pytest.raises(SystemExit) as exc:
        main(["solve", str(tmp_path / "nope.json"), str(tmp_path / "out.json")])
    assert exc.value.code == EXIT_PARSE
