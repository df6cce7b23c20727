import functools
import json
import pathlib

import numpy as np
import pytest

from czempc import cli
from czempc.cli import EXIT_INFEASIBLE, EXIT_OK, EXIT_PARSE, main, parse_problem
from czempc.condense import MpcProblem, TerminalRecurrence
from czempc.explorer import explore, import_json
from czempc.runtime import evaluate

ROOT = pathlib.Path(__file__).resolve().parents[1]
DINT_PROBLEM = ROOT / "problems" / "doubleint.json"
PAPER_PROBLEM = ROOT / "problems" / "paper4state.json"


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
    assert lines[0] == "variant,N,regions,seconds,numerical,quick,empty,discovered"
    assert len(lines) == 5  # 2 horizons x 2 variants
    for line in lines[1:]:
        variant, N, regions, seconds, numerical, quick, empty, discovered = line.split(",")
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


def test_bench_unknown_variant(tmp_path):
    assert main(["bench", str(DINT_PROBLEM), "--variants", "turbo"]) == EXIT_PARSE


def test_bench_node_cap(tmp_path, monkeypatch):
    monkeypatch.setattr(cli, "explore", functools.partial(explore, node_cap=2))
    csv_path = tmp_path / "bench.csv"
    code = main(["bench", str(DINT_PROBLEM), "--nmin", "2", "--nmax", "2",
                 "--variants", "iter", "--out", str(csv_path)])
    assert code == EXIT_OK
    assert csv_path.read_text().strip().splitlines()[1] == "iter,2,cap_exceeded,,,,,"


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


def test_unknown_variant_option(tmp_path):
    with pytest.raises(SystemExit) as exc:
        main(["solve", str(DINT_PROBLEM), str(tmp_path / "out.json"), "--variant", "turbo"])
    assert exc.value.code == 2  # argparse rejects the choice


@pytest.mark.parametrize(
    "problem, recurrence, message",
    [
        (PAPER_PROBLEM, {"K": "lqr", "maxIter": 1}, "did not converge"),  # needs 4 steps
        (DINT_PROBLEM, {"K": [[1.0, 1.0]]}, "not Schur stable"),
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


def test_missing_file(tmp_path):
    with pytest.raises(SystemExit) as exc:
        main(["solve", str(tmp_path / "nope.json"), str(tmp_path / "out.json")])
    assert exc.value.code == EXIT_PARSE
