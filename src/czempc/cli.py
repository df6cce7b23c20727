"""Command-line front end: problem I/O, solver invocation, tree export, benchmarks.

Problem files are JSON with row-major nested arrays::

    {
      "A": [[..]], "B": [[..]], "Q": [[..]], "R": [[..]], "S": [[..]], "N": 4,
      "X": {"c": [..], "G": [[..]]},
      "U": {"c": [..], "G": [[..]]},
      "T": {"c": [..], "G": [[..]], "F": [[..]], "theta": [..]}
           or {"recurrence": {"K": "lqr" | [[..]], "maxIter": 50, "tol": 1e-8}},
      "options": {"radiusThreshold": 1e-6, "eps": 1e-10, "variant": "iter-quick"}
    }

Exit codes: 0 success, 2 infeasible problem, 3 parse/validation error (also
when condensing fails, e.g. a terminal recurrence that does not converge).
"""

from __future__ import annotations

import argparse
import json
import sys
import time

import numpy as np

from czempc.condense import (
    MpcProblem,
    NotConverged,
    NotInvertible,
    NotPositiveDefinite,
    NotStable,
    TerminalRecurrence,
    build_condensed_qp,
)
from czempc.explorer import (
    VARIANTS,
    InfeasibleProblem,
    ResourceCap,
    explore,
    export_dot,
    export_json,
    import_json,
)
from czempc.runtime import InfeasibleError, evaluate, locate, simulate
from czempc.sets import ConstrainedZonotope, DEFAULT_RADIUS_THRESHOLD, DimensionMismatch, Zonotope

EXIT_OK = 0
EXIT_INFEASIBLE = 2
EXIT_PARSE = 3


class ProblemFileError(ValueError):
    pass


def _matrix(doc, key):
    if key not in doc:
        raise ProblemFileError(f"missing key {key!r}")
    return np.asarray(doc[key], dtype=float)


def _zonotope(doc, key) -> Zonotope:
    sub = doc.get(key)
    if not isinstance(sub, dict):
        raise ProblemFileError(f"missing set {key!r}")
    try:
        return Zonotope(np.asarray(sub["c"], dtype=float), np.asarray(sub["G"], dtype=float))
    except (KeyError, DimensionMismatch) as exc:
        raise ProblemFileError(f"bad zonotope {key!r}: {exc}") from exc


def parse_problem(doc: dict, n_override: int | None = None) -> tuple:
    """Build an MpcProblem plus the option dict from a parsed JSON document."""
    try:
        A = _matrix(doc, "A")
        B = np.atleast_2d(_matrix(doc, "B"))
        Q = _matrix(doc, "Q")
        R = np.atleast_2d(_matrix(doc, "R"))
        S = _matrix(doc, "S")
        N = int(n_override if n_override is not None else doc.get("N", 1))
        X = _zonotope(doc, "X")
        U = _zonotope(doc, "U")
        t_doc = doc.get("T")
        if not isinstance(t_doc, dict):
            raise ProblemFileError("missing terminal set 'T'")
        if "recurrence" in t_doc:
            rec = t_doc["recurrence"]
            gain = rec.get("K", "lqr")
            if not isinstance(gain, str):
                gain = np.asarray(gain, dtype=float)
            T = TerminalRecurrence(gain, int(rec.get("maxIter", 50)), float(rec.get("tol", 1e-8)))
        else:
            F = np.asarray(t_doc.get("F", []), dtype=float)
            theta = np.asarray(t_doc.get("theta", []), dtype=float)
            T = ConstrainedZonotope(
                np.asarray(t_doc["c"], dtype=float), np.asarray(t_doc["G"], dtype=float), F, theta
            )
        problem = MpcProblem(A, B, Q, R, S, N, X, U, T)
    except ProblemFileError:
        raise
    except (KeyError, ValueError, DimensionMismatch) as exc:
        raise ProblemFileError(str(exc)) from exc
    options = doc.get("options", {}) if isinstance(doc.get("options", {}), dict) else {}
    return problem, options


def _load_problem(path: str, n_override: int | None):
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except OSError as exc:
        print(f"error: cannot read {path}: {exc}", file=sys.stderr)
        raise SystemExit(EXIT_PARSE)
    except json.JSONDecodeError as exc:
        print(f"error: malformed JSON in {path} at line {exc.lineno}, column {exc.colno}: {exc.msg}", file=sys.stderr)
        raise SystemExit(EXIT_PARSE)
    try:
        return parse_problem(doc, n_override)
    except ProblemFileError as exc:
        print(f"error: invalid problem file {path}: {exc}", file=sys.stderr)
        raise SystemExit(EXIT_PARSE)


def _condense(problem: MpcProblem):
    try:
        return build_condensed_qp(problem)
    except (NotStable, NotInvertible, NotPositiveDefinite, DimensionMismatch, NotConverged) as exc:
        print(f"error: invalid problem: {exc}", file=sys.stderr)
        raise SystemExit(EXIT_PARSE)


def _load_tree(path: str):
    try:
        with open(path) as fh:
            return import_json(fh.read())
    except (OSError, ValueError, KeyError) as exc:
        print(f"error: cannot load tree {path}: {exc}", file=sys.stderr)
        raise SystemExit(EXIT_PARSE)


def _solve_options(options: dict, args) -> dict:
    variant = args.variant or options.get("variant", "baseline")
    if variant not in VARIANTS:
        print(f"error: unknown variant {variant!r}", file=sys.stderr)
        raise SystemExit(EXIT_PARSE)
    radius = args.radius_threshold
    if radius is None:
        radius = float(options.get("radiusThreshold", DEFAULT_RADIUS_THRESHOLD))
    eps = args.eps if args.eps is not None else float(options.get("eps", 1e-10))
    return {"variant": variant, "radius_threshold": radius, "eps": eps}


def cmd_solve(args) -> int:
    problem, options = _load_problem(args.problem, args.N)
    opts = _solve_options(options, args)
    cp = _condense(problem)
    try:
        tree = explore(cp, **opts)
    except InfeasibleProblem as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE
    with open(args.out, "w") as fh:
        fh.write(export_json(tree))
    if args.dot:
        with open(args.dot, "w") as fh:
            fh.write(export_dot(tree))
    print(f"{tree.num_regions} critical regions written to {args.out}")
    return EXIT_OK


def cmd_eval(args) -> int:
    tree = _load_tree(args.tree)
    points = [np.asarray([float(v) for v in text.split(",")]) for text in args.x0]
    print("node," + ",".join(f"u{j}" for j in range(tree.m)))
    for x0 in points:
        node_id = locate(tree, x0)
        if node_id is None:
            print("infeasible")
            continue
        u0 = tree.nodes[node_id].law(x0)[: tree.m]
        print(f"{node_id}," + ",".join(repr(float(v)) for v in u0))
    return EXIT_OK


def cmd_simulate(args) -> int:
    problem, _ = _load_problem(args.problem, None)
    tree = _load_tree(args.tree)
    x0 = np.asarray([float(v) for v in args.x0.split(",")])
    try:
        traj = simulate(tree, problem.A_d, problem.B_d, problem.Q, problem.R, x0, args.steps)
    except InfeasibleError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE
    n, m = problem.n, problem.m
    print("k," + ",".join(f"x{j}" for j in range(n)) + "," + ",".join(f"u{j}" for j in range(m)) + ",stage_cost")
    for k in range(traj.inputs.shape[0]):
        xs = ",".join(repr(float(v)) for v in traj.states[k])
        us = ",".join(repr(float(v)) for v in traj.inputs[k])
        print(f"{k},{xs},{us},{traj.costs[k]!r}")
    return EXIT_OK


def cmd_bench(args) -> int:
    problem_doc_path = args.problem
    variants = args.variants.split(",") if args.variants else list(VARIANTS)
    for v in variants:
        if v not in VARIANTS:
            print(f"error: unknown variant {v!r}", file=sys.stderr)
            return EXIT_PARSE
    rows = ["variant,N,regions,seconds,numerical,quick,empty,discovered"]
    for N in range(args.nmin, args.nmax + 1):
        problem, options = _load_problem(problem_doc_path, N)
        cp = _condense(problem)
        for variant in variants:
            ns = argparse.Namespace(variant=variant, radius_threshold=args.radius_threshold, eps=args.eps)
            opts = _solve_options(options, ns)
            t0 = time.perf_counter()
            try:
                tree = explore(cp, **opts)
            except InfeasibleProblem:
                rows.append(f"{variant},{N},infeasible,,,,,")
                continue
            except ResourceCap:  # reported in the table, not fatal
                rows.append(f"{variant},{N},cap_exceeded,,,,,")
                continue
            dt = time.perf_counter() - t0
            st = tree.stats
            rows.append(
                f"{variant},{N},{tree.num_regions},{dt:.6f},{st.numerical},{st.quick},{st.empty},{st.discovered}"
            )
    text = "\n".join(rows)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)
    return EXIT_OK


def cmd_export_dot(args) -> int:
    tree = _load_tree(args.tree)
    dot = export_dot(tree)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(dot + "\n")
    else:
        print(dot)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="czempc", description="Explicit MPC over constrained zonotopes")
    sub = parser.add_subparsers(dest="command", required=True)

    p_solve = sub.add_parser("solve", help="compute the explicit solution tree")
    p_solve.add_argument("problem")
    p_solve.add_argument("out")
    p_solve.add_argument("-N", type=int, default=None, help="override the horizon of the problem file")
    p_solve.add_argument("--variant", choices=VARIANTS, default=None)
    p_solve.add_argument("--radius-threshold", type=float, default=None)
    p_solve.add_argument("--eps", type=float, default=None)
    p_solve.add_argument("--dot", default=None, help="also write a DOT rendering here")
    p_solve.set_defaults(func=cmd_solve)

    p_eval = sub.add_parser("eval", help="evaluate u0 at given parameters")
    p_eval.add_argument("tree")
    p_eval.add_argument("x0", nargs="+", help="comma-separated state vectors")
    p_eval.set_defaults(func=cmd_eval)

    p_sim = sub.add_parser("simulate", help="closed-loop simulation from a tree")
    p_sim.add_argument("problem")
    p_sim.add_argument("tree")
    p_sim.add_argument("x0", help="comma-separated initial state")
    p_sim.add_argument("--steps", type=int, default=20)
    p_sim.set_defaults(func=cmd_simulate)

    p_bench = sub.add_parser("bench", help="benchmark variants over a horizon range")
    p_bench.add_argument("problem")
    p_bench.add_argument("--nmin", type=int, default=1)
    p_bench.add_argument("--nmax", type=int, default=4)
    p_bench.add_argument("--variants", default=None, help="comma-separated subset of variants")
    p_bench.add_argument("--radius-threshold", type=float, default=None)
    p_bench.add_argument("--eps", type=float, default=None)
    p_bench.add_argument("--out", default=None)
    p_bench.set_defaults(func=cmd_bench)

    p_dot = sub.add_parser("export-dot", help="render a tree JSON file as DOT")
    p_dot.add_argument("tree")
    p_dot.add_argument("--out", default=None)
    p_dot.set_defaults(func=cmd_export_dot)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
