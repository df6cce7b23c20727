"""Command-line front end: problem I/O, solver invocation, tree export, benchmarks.

Problem files are JSON with row-major nested arrays::

    {
      "A": [[..]], "B": [[..]], "Q": [[..]], "R": [[..]], "S": [[..]], "N": 4,
      "X": {"c": [..], "G": [[..]]},
      "U": {"c": [..], "G": [[..]]},
      "T": {"c": [..], "G": [[..]], "F": [[..]], "theta": [..]}
           or {"recurrence": {"K": "lqr" | [[..]], "maxIter": 50, "tol": 1e-8}},
      "options": {"radiusThreshold": 1e-6, "eps": 1e-10, "variant": "iter"}
    }

Exit codes: 0 success, 1 the solver stopped without an answer (a simplex hit
its pivot cap in ``solve`` or ``bench``), 2 infeasible problem, 3
parse/validation error (also on a command-line usage error, when condensing
fails, e.g. a terminal recurrence that does not converge, on a NaN or infinite
problem entry, a gain ``K`` that is not m x n, a horizon or recurrence
``maxIter`` that is not an integer, ``options`` that is not an object, a
file's radius threshold, eps or recurrence ``tol`` that is not a finite JSON
number (a boolean or a string is not), a ``tol`` that is not > 0, any other
value of the wrong JSON type, and on a NaN, infinite or negative radius
threshold, a NaN or negative eps, or a negative ``--steps``).
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
    check_thresholds,
    explore,
    export_dot,
    export_json,
    import_json,
)
from czempc.lp import SimplexStalled
from czempc.runtime import InfeasibleError, evaluate, locate, simulate
from czempc.sets import ConstrainedZonotope, DEFAULT_RADIUS_THRESHOLD, DimensionMismatch, Zonotope

EXIT_OK = 0
EXIT_STOPPED = 1
EXIT_INFEASIBLE = 2
EXIT_PARSE = 3


class ProblemFileError(ValueError):
    pass


def _finite(value, name) -> np.ndarray:
    """``value`` as a float array; a non-numeric value or a NaN or infinite
    entry is a file error."""
    try:
        arr = np.asarray(value, dtype=float)
    except (TypeError, ValueError) as exc:
        raise ProblemFileError(f"{name} is not a numeric array: {exc}") from exc
    if not np.isfinite(arr).all():
        raise ProblemFileError(f"{name} has a NaN or infinite entry")
    return arr


def _matrix(doc, key):
    if key not in doc:
        raise ProblemFileError(f"missing key {key!r}")
    return _finite(doc[key], key)


def _zonotope(doc, key) -> Zonotope:
    sub = doc.get(key)
    if not isinstance(sub, dict):
        raise ProblemFileError(f"missing set {key!r}")
    try:
        return Zonotope(_finite(sub["c"], f"{key}.c"), _finite(sub["G"], f"{key}.G"))
    except (KeyError, DimensionMismatch) as exc:
        raise ProblemFileError(f"bad zonotope {key!r}: {exc}") from exc


def _integer(value, name) -> int:
    """An integer, or a float with an integral value; a boolean is neither."""
    if isinstance(value, bool) or not (isinstance(value, int) or isinstance(value, float) and value.is_integer()):
        raise ProblemFileError(f"{name} must be an integer, got {value!r}")
    return int(value)


def _number(value, name) -> float:
    """A finite JSON number; a boolean or a string is not one."""
    if isinstance(value, bool) or not isinstance(value, (int, float)) or not abs(value) <= sys.float_info.max:
        raise ProblemFileError(f"{name} must be a finite number, not {type(value).__name__!r} {value!r}")
    return float(value)


def parse_problem(doc: dict, n_override: int | None = None) -> tuple:
    """Build an MpcProblem plus the option dict from a parsed JSON document.
    Every array must be finite and a matrix gain ``K`` must be m x n."""
    try:
        A = _matrix(doc, "A")
        B = np.atleast_2d(_matrix(doc, "B"))
        Q = _matrix(doc, "Q")
        R = np.atleast_2d(_matrix(doc, "R"))
        S = _matrix(doc, "S")
        N = _integer(n_override if n_override is not None else doc.get("N", 1), "horizon N")
        X = _zonotope(doc, "X")
        U = _zonotope(doc, "U")
        t_doc = doc.get("T")
        if not isinstance(t_doc, dict):
            raise ProblemFileError("missing terminal set 'T'")
        gain = "lqr"
        if "recurrence" in t_doc:
            rec = t_doc["recurrence"]
            if not isinstance(rec, dict):
                raise ProblemFileError(f"T.recurrence must be an object, got {rec!r}")
            gain = rec.get("K", "lqr")
            if isinstance(gain, str):
                if gain != "lqr":
                    raise ProblemFileError(f"unknown gain directive {gain!r}; use \"lqr\" or a matrix")
            else:
                gain = np.atleast_2d(_finite(gain, "K"))
            tol = _number(rec.get("tol", 1e-8), "T.recurrence.tol")
            if not tol > 0:
                raise ProblemFileError(f"T.recurrence.tol must be > 0, got {tol!r}")
            T = TerminalRecurrence(gain, _integer(rec.get("maxIter", 50), "T.recurrence.maxIter"), tol)
        else:
            F = _finite(t_doc.get("F", []), "T.F")
            theta = _finite(t_doc.get("theta", []), "T.theta")
            T = ConstrainedZonotope(_finite(t_doc["c"], "T.c"), _finite(t_doc["G"], "T.G"), F, theta)
        problem = MpcProblem(A, B, Q, R, S, N, X, U, T)
        if not isinstance(gain, str) and gain.shape != (problem.m, problem.n):
            raise ProblemFileError(f"gain K has shape {gain.shape}, expected {(problem.m, problem.n)}")
    except ProblemFileError:
        raise
    except (KeyError, TypeError, ValueError, DimensionMismatch) as exc:
        raise ProblemFileError(str(exc)) from exc
    options = doc.get("options", {})
    if not isinstance(options, dict):
        raise ProblemFileError(f"options must be an object, got {options!r}")
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


def _stopped(exc: SimplexStalled) -> int:
    print(f"error: the solver stopped without an answer: {exc}", file=sys.stderr)
    return EXIT_STOPPED


def _condense(problem: MpcProblem):
    try:
        return build_condensed_qp(problem)
    except (NotStable, NotInvertible, NotPositiveDefinite, DimensionMismatch, NotConverged) as exc:
        print(f"error: invalid problem: {exc}", file=sys.stderr)
        raise SystemExit(EXIT_PARSE)
    except SimplexStalled as exc:  # the terminal-set recurrence's support LPs
        raise SystemExit(_stopped(exc))


def _load_tree(path: str):
    try:
        with open(path) as fh:
            return import_json(fh.read())
    except (OSError, ValueError) as exc:
        print(f"error: cannot load tree {path}: {exc}", file=sys.stderr)
        raise SystemExit(EXIT_PARSE)


def _solve_options(options: dict, args) -> dict:
    variant = args.variant or options.get("variant", "baseline")
    if variant not in VARIANTS:
        print(f"error: unknown variant {variant!r}", file=sys.stderr)
        raise SystemExit(EXIT_PARSE)
    try:
        radius = args.radius_threshold
        if radius is None:
            radius = _number(options.get("radiusThreshold", DEFAULT_RADIUS_THRESHOLD), "radius threshold")
        eps = args.eps if args.eps is not None else _number(options.get("eps", 1e-10), "eps")
        check_thresholds(radius, eps)
    except ValueError as exc:
        print(f"error: invalid option: {exc}", file=sys.stderr)
        raise SystemExit(EXIT_PARSE)
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
    except SimplexStalled as exc:
        return _stopped(exc)
    with open(args.out, "w") as fh:
        fh.write(export_json(tree))
    if args.dot:
        with open(args.dot, "w") as fh:
            fh.write(export_dot(tree))
    print(f"{tree.num_regions} critical regions written to {args.out}")
    return EXIT_OK


def _parse_state(text: str, n: int) -> np.ndarray:
    """A comma-separated state of ``n`` finite numbers; exit 3 otherwise."""
    try:
        x0 = np.asarray([float(v) for v in text.split(",")])
    except ValueError:
        x0 = None
    if x0 is None or x0.shape != (n,) or not np.all(np.isfinite(x0)):
        print(f"error: invalid state {text!r}: expected {n} finite comma-separated numbers", file=sys.stderr)
        raise SystemExit(EXIT_PARSE)
    return x0


def cmd_eval(args) -> int:
    tree = _load_tree(args.tree)
    points = [_parse_state(text, tree.n) for text in args.x0]
    print("node," + ",".join(f"u{j}" for j in range(tree.m)))
    for x0 in points:
        try:
            u0 = evaluate(tree, x0)
        except InfeasibleError:
            print("infeasible")
            continue
        print(f"{locate(tree, x0)}," + ",".join(repr(float(v)) for v in u0))
    return EXIT_OK


def cmd_simulate(args) -> int:
    problem, _ = _load_problem(args.problem, None)
    tree = _load_tree(args.tree)
    if (tree.n, tree.m) != (problem.n, problem.m):
        print(
            f"error: tree {args.tree} has n={tree.n}, m={tree.m}; the problem has n={problem.n}, m={problem.m}",
            file=sys.stderr,
        )
        return EXIT_PARSE
    x0 = _parse_state(args.x0, problem.n)
    if args.steps < 0:
        print(f"error: --steps must be >= 0, got {args.steps}", file=sys.stderr)
        return EXIT_PARSE
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
        print(f"{k},{xs},{us},{float(traj.costs[k])!r}")
    return EXIT_OK


def cmd_bench(args) -> int:
    problem_doc_path = args.problem
    variants = args.variants.split(",") if args.variants else list(VARIANTS)
    for v in variants:
        if v not in VARIANTS:
            print(f"error: unknown variant {v!r}", file=sys.stderr)
            return EXIT_PARSE
    rows = ["variant,N,regions,seconds,numerical,empty,discovered"]
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
                rows.append(f"{variant},{N},infeasible,,,,")
                continue
            except ResourceCap:  # reported in the table, not fatal
                rows.append(f"{variant},{N},cap_exceeded,,,,")
                continue
            except SimplexStalled as exc:
                return _stopped(exc)
            dt = time.perf_counter() - t0
            st = tree.stats
            rows.append(f"{variant},{N},{tree.num_regions},{dt:.6f},{st.numerical},{st.empty},{st.discovered}")
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


class _Parser(argparse.ArgumentParser):
    """Reports a usage error (unknown flag, missing argument, unparsable value)
    with one line on stderr and exit 3, since exit 2 means infeasible."""

    def error(self, message):
        self.exit(EXIT_PARSE, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="czempc", description="Explicit MPC over constrained zonotopes")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p_solve = sub.add_parser("solve", help="compute the explicit solution tree")
    p_solve.add_argument("problem")
    p_solve.add_argument("out")
    p_solve.add_argument("-N", type=int, default=None, help="override the horizon of the problem file")
    p_solve.add_argument("--variant", default=None, help=f"one of {', '.join(VARIANTS)} (exit 3 otherwise)")
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
