"""Dense two-phase simplex solver over stacks of LPs.

Dependency-free (numpy only) and deterministic. Every solve runs on a stack
of tableaux of equal shape, one LP per layer, so a batch of small LPs costs
one set of numpy calls per pivot rather than one per LP; a single LP is a
stack of one. Each LP of the stack keeps its own pivoting state: the entering
column is the most negative reduced cost (Dantzig's rule); after a run of
degenerate pivots that LP switches to Bland's rule (lowest-index entering
column) until its objective moves again. Bland's rule cannot cycle, so
neither can the solver. Leaving ties always go to the lowest basic index.
Problem sizes here are small (tens of rows), so dense tableaux are adequate.

``solve_stack`` takes stacked ``A x = b, x >= 0`` problems, or one shared
``A x = b`` with many objectives (phase 1 then runs once); a single LP is
``solve_stack(A, b, c)[0]``. The package's own LPs call it directly, in
the dual forms of ``sets.support`` and of the Chebyshev test. ``solve_lp``
and ``solve_lp_stack`` are thin front ends for the finite-box equality form
``A_eq x = b_eq, lb <= x <= ub``; the package does not call them, and the
tests use them for point membership and emptiness of constrained zonotopes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

_MAX_ITER = 50_000
_DEGENERATE_RUN = 20  # consecutive degenerate pivots before Bland's rule takes over
_NO_ROW = np.iinfo(np.int64).max  # sorts after every basic index in leaving ties


class SimplexStalled(RuntimeError):
    """Raised when the pivot iteration cap is exceeded."""


@dataclass
class LpResult:
    """``status`` is 'optimal', 'infeasible', 'unbounded' or 'cutoff'.

    On 'cutoff', ``fun`` is the objective of the feasible point where the
    solve stopped, and ``x``/``basis`` are unset.
    """

    status: str
    x: np.ndarray | None = None
    fun: float | None = None
    basis: np.ndarray | None = None  # basic columns at the optimum (standard form)


def _pivot(T: np.ndarray, r: np.ndarray, j: np.ndarray) -> None:
    """Pivot every tableau ``T[k]`` of the stack on entry ``(r[k], j[k])``.

    The pivot row scaled to ``prow`` has ``prow[j] = 1`` exactly, so the
    elimination leaves exact zeros in column ``j`` outside row ``r``.
    """
    k = np.arange(T.shape[0])
    prow = T[k, r] / T[k, r, j][:, None]
    T -= T[k, :, j][:, :, None] * prow[:, None, :]
    T[k, r] = prow


def _run_simplex(T: np.ndarray, basis: np.ndarray, tol: float, cutoff=-np.inf) -> np.ndarray:
    """Iterate on the stack of tableaux ``T`` (B, m+1, n+1), objective in the
    last row and rhs in the last column; ``basis`` (B, m) holds each row's
    basic column, and a negative entry marks an inert row. Both are updated
    in place.

    Returns one status per LP: 'optimal', 'unbounded', or 'cutoff' as soon
    as the objective value ``-T[k, -1, -1]`` of the current basic feasible
    point falls below ``cutoff`` (a scalar or one value per LP). An LP that
    stops is written back and dropped from the working stack, so the LPs
    still running never pay for the finished ones; every LP pivots exactly
    as it would in a stack of one.
    """
    status = np.empty(T.shape[0], dtype=object)
    W, wb = T, basis  # the working stack: the LPs still running
    k = run = np.arange(T.shape[0])  # positions in W; the LP of each position
    cutoff = np.broadcast_to(np.asarray(cutoff, dtype=float), run.shape)
    degenerate = np.zeros(run.size, dtype=int)
    if not run.size:  # an empty stack has nothing to stop
        return status
    for _ in range(_MAX_ITER):
        reduced = W[:, -1, :-1]
        improving = reduced < -tol
        j = reduced.argmin(axis=1)  # Dantzig: most negative reduced cost
        bland = degenerate >= _DEGENERATE_RUN
        if bland.any():  # Bland: lowest improving index
            j = np.where(bland, improving.argmax(axis=1), j)
        col = W[k, :-1, j]
        rows = col > tol
        optimal = ~improving.any(axis=1)
        cut = -W[:, -1, -1] < cutoff
        stop = optimal | cut | ~rows.any(axis=1)
        if stop.any():
            done = run[stop]
            status[done] = np.where(cut, "cutoff", np.where(optimal, "optimal", "unbounded"))[stop]
            T[done], basis[done] = W[stop], wb[stop]
            go = ~stop
            if not go.any():
                return status
            run, W, wb, cutoff, degenerate = run[go], W[go], wb[go], cutoff[go], degenerate[go]
            k, j, col, rows = np.arange(run.size), j[go], col[go], rows[go]
        ratios = np.full(col.shape, np.inf)
        np.divide(W[:, :-1, -1], col, out=ratios, where=rows)
        best = ratios.min(axis=1)
        ties = ratios <= (best + tol * (1.0 + np.abs(best)))[:, None]
        r = np.where(ties, wb, _NO_ROW).argmin(axis=1)  # lowest basic index leaves
        degenerate = np.where(best <= tol, degenerate + 1, 0)
        _pivot(W, r, j)
        wb[k, r] = j
    raise SimplexStalled("simplex iteration cap exceeded")


def solve_stack(A, b, C, tol: float = 1e-9, cutoff=-np.inf) -> list:
    """``min C[k]@x s.t. A[k]@x = b[k], x >= 0`` for each LP ``k`` of a stack,
    via two phases with artificial variables; one :class:`LpResult` per row
    of ``C``.

    ``A`` is (B, m, n) with ``b`` (B, m), or a single (m, n) system with
    ``b`` (m,) shared by every objective: phase 1 then runs once and phase 2
    runs the ``len(C)`` objectives as one stack. Phase 2 stops an LP with
    status 'cutoff' once its feasible point's objective drops below
    ``cutoff`` (a scalar or one value per LP); the default never stops early.
    """
    C = np.atleast_2d(np.asarray(C, dtype=float))
    shared = np.ndim(A) == 2
    A = np.asarray(A, dtype=float).reshape((-1,) + np.shape(A)[-2:])
    b = np.asarray(b, dtype=float).reshape(A.shape[:2])
    B, m, n = A.shape

    # phase 1 tableaux: [A | I_m | b] with artificial bases, rows signed so that b >= 0
    T = np.zeros((B, m + 1, n + m + 1))
    T[:, :m, :n] = A
    T[:, :m, -1] = b
    T[:, :m][b < 0] *= -1.0
    T[:, :m, n : n + m] = np.eye(m)
    T[:, -1] = -T[:, :m].sum(axis=1)
    T[:, -1, n : n + m] = 0.0
    basis = np.tile(np.arange(n, n + m), (B, 1))
    status = _run_simplex(T, basis, tol)
    feasible = (status == "optimal") & (T[:, -1, -1] >= -tol * (1.0 + np.abs(b).max(axis=1, initial=0.0)))

    # drive leftover artificials out of the bases; a row with no pivot left
    # is redundant and becomes inert (zero row, basis -1) instead of dropped
    for r in range(m):
        left = feasible & (basis[:, r] >= n)
        if not left.any():
            continue
        nonzero = np.abs(T[:, r, :n]) > tol
        move = left & nonzero.any(axis=1)
        j = nonzero.argmax(axis=1)[move]
        moved = T[move]
        _pivot(moved, np.full(j.size, r), j)
        T[move] = moved
        basis[move, r] = j
        inert = left & ~move
        T[inert, r] = 0.0
        basis[inert, r] = -1
    T = T[:, :, np.r_[:n, n + m]]

    if shared:
        T = np.repeat(T, len(C), axis=0)
        basis = np.repeat(basis, len(C), axis=0)
        feasible = np.repeat(feasible, len(C))
    cutoff = np.broadcast_to(np.asarray(cutoff, dtype=float), feasible.shape)
    results = [LpResult("infeasible") for _ in feasible]
    live = feasible.nonzero()[0]
    if live.size == 0:
        return results

    # phase 2 objectives: reduced costs of C over the current bases; the
    # stack is copied down to the feasible LPs only when some are not
    if live.size < feasible.size:
        T, basis, C = T[live], basis[live], C[live]
    real = basis >= 0
    T[:, -1, :-1] = C
    T[:, -1, -1] = 0.0
    cB = np.where(real, np.take_along_axis(C, np.where(real, basis, 0), axis=1), 0.0)
    T[:, -1] -= (cB[:, None, :] @ T[:, :m])[:, 0]
    status = _run_simplex(T, basis, tol, cutoff[live])
    for k, s in zip(live, status):
        results[k] = LpResult(s)
    for i in (status == "cutoff").nonzero()[0]:
        results[live[i]].fun = -float(T[i, -1, -1])
    for i in (status == "optimal").nonzero()[0]:
        keep = basis[i] >= 0
        x = np.zeros(n)
        x[basis[i, keep]] = T[i, :m, -1][keep]
        results[live[i]] = LpResult("optimal", x=x, fun=float(C[i] @ x), basis=basis[i, keep])
    return results


def solve_lp_stack(C, A_eq=None, b_eq=None, *, lb, ub, tol: float = 1e-9) -> list:
    """Minimize ``C[k] @ x`` subject to ``A_eq x = b_eq`` and ``lb <= x <= ub``
    for every objective row ``C[k]``; one :class:`LpResult` per row.

    Bounds are scalars or arrays and must be finite. The simplex runs on
    ``y = x - lb >= 0`` with one slack per variable: the rows
    ``y + s = ub - lb`` come first, then ``A_eq y = b_eq - A_eq lb``. All
    objectives share one phase 1.
    """
    C = np.atleast_2d(np.asarray(C, dtype=float))
    n = C.shape[1]
    # copies, not stride-0 views, which would round A_eq @ lb differently
    lb = np.broadcast_to(np.asarray(lb, dtype=float), (n,)).copy()
    ub = np.broadcast_to(np.asarray(ub, dtype=float), (n,)).copy()
    if not (np.isfinite(lb).all() and np.isfinite(ub).all()):
        raise ValueError("solve_lp needs finite bounds")
    A_eq = np.zeros((0, n)) if A_eq is None else np.atleast_2d(np.asarray(A_eq, dtype=float))
    b_eq = np.zeros(0) if b_eq is None else np.asarray(b_eq, dtype=float).ravel()

    A_std = np.block([[np.eye(n), np.eye(n)], [A_eq, np.zeros((A_eq.shape[0], n))]])
    b_std = np.concatenate([ub - lb, b_eq - A_eq @ lb])
    results = solve_stack(A_std, b_std, np.hstack([C, np.zeros_like(C)]), tol)
    for c, res in zip(C, results):
        if res.status == "optimal":
            res.x = lb + res.x[:n]
            res.fun = float(c @ res.x)
            res.basis = None
    return results


def solve_lp(c, A_eq=None, b_eq=None, *, lb, ub, tol: float = 1e-9) -> LpResult:
    """Minimize ``c @ x`` subject to ``A_eq x = b_eq`` and ``lb <= x <= ub``:
    :func:`solve_lp_stack` with one objective."""
    return solve_lp_stack(np.asarray(c, dtype=float).ravel()[None], A_eq, b_eq, lb=lb, ub=ub, tol=tol)[0]
