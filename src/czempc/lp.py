"""Dense two-phase simplex solver.

Dependency-free (numpy only) and deterministic. The entering column is the
most negative reduced cost (Dantzig's rule). After a run of degenerate pivots
the solver switches to Bland's rule (lowest-index entering column) until the
objective moves again; Bland's rule cannot cycle, so neither can the solver.
Leaving ties always go to the lowest basic index. Problem sizes here are
small (tens of rows), so a dense tableau is adequate.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

_MAX_ITER = 50_000
_DEGENERATE_RUN = 20  # consecutive degenerate pivots before Bland's rule takes over


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


def _pivot(T: np.ndarray, r: int, j: int) -> None:
    T[r] /= T[r, j]
    col = T[:, j].copy()
    col[r] = 0.0
    T -= col[:, None] * T[r]
    T[:, j] = 0.0
    T[r, j] = 1.0


def _run_simplex(T: np.ndarray, basis: np.ndarray, tol: float, cutoff: float = -np.inf) -> str:
    """Iterate on tableau ``T`` (objective in last row, rhs in last column).

    Returns 'cutoff' as soon as the objective value ``-T[-1, -1]`` of the
    current basic feasible point falls below ``cutoff``.
    """
    degenerate = 0
    for _ in range(_MAX_ITER):
        if -T[-1, -1] < cutoff:
            return "cutoff"
        reduced = T[-1, :-1]
        if degenerate < _DEGENERATE_RUN:
            j = int(reduced.argmin())  # Dantzig: most negative reduced cost
            if reduced[j] >= -tol:
                return "optimal"
        else:
            entering = (reduced < -tol).nonzero()[0]
            if entering.size == 0:
                return "optimal"
            j = int(entering[0])  # Bland: lowest index
        col = T[:-1, j]
        rows = (col > tol).nonzero()[0]
        if rows.size == 0:
            return "unbounded"
        ratios = T[rows, -1] / col[rows]
        best = ratios.min()
        ties = rows[ratios <= best + tol * (1.0 + abs(best))]
        r = int(ties[basis[ties].argmin()])  # lowest basic index leaves
        degenerate = degenerate + 1 if best <= tol else 0
        _pivot(T, r, j)
        basis[r] = j
    raise SimplexStalled("simplex iteration cap exceeded")


def solve_standard_form(
    A: np.ndarray, b: np.ndarray, c: np.ndarray, tol: float = 1e-9, cutoff: float = -np.inf
) -> LpResult:
    """min c@x s.t. A@x = b, x >= 0, via two phases with artificial variables.

    Phase 2 stops with status 'cutoff' once a feasible point's objective drops
    below ``cutoff``; the default never stops early.
    """
    m, n = A.shape
    A = A.copy()
    b = b.copy()
    neg = b < 0
    A[neg] *= -1.0
    b[neg] *= -1.0

    # phase 1 tableau: [A | I_m | b] with artificial basis
    T = np.zeros((m + 1, n + m + 1))
    T[:m, :n] = A
    T[:m, n : n + m] = np.eye(m)
    T[:m, -1] = b
    T[-1, : n + m + 1] = -T[:m].sum(axis=0)
    T[-1, n : n + m] = 0.0
    basis = np.arange(n, n + m)

    status = _run_simplex(T, basis, tol)
    if status != "optimal" or T[-1, -1] < -tol * (1.0 + float(np.abs(b).max(initial=0.0))):
        return LpResult("infeasible")

    # drive leftover artificials out of the basis, dropping redundant rows
    keep = np.ones(m, dtype=bool)
    for r in (basis >= n).nonzero()[0]:
        cand = (np.abs(T[r, :n]) > tol).nonzero()[0]
        if cand.size:
            _pivot(T, r, int(cand[0]))
            basis[r] = int(cand[0])
        else:
            keep[r] = False
    T = T[np.ix_(np.append(keep, True), np.r_[:n, n + m])]
    basis = basis[keep]
    m = basis.size

    # phase 2 objective: reduced costs of c over the current basis
    T[-1, :-1] = c
    T[-1, -1] = 0.0
    T[-1] -= c[basis] @ T[:m]
    status = _run_simplex(T, basis, tol, cutoff)
    if status == "cutoff":
        return LpResult("cutoff", fun=-float(T[-1, -1]))
    if status != "optimal":
        return LpResult(status)
    x = np.zeros(n)
    x[basis] = T[:m, -1]
    return LpResult("optimal", x=x, fun=float(c @ x), basis=basis)


def solve_lp(
    c,
    A_ub=None,
    b_ub=None,
    A_eq=None,
    b_eq=None,
    lb=None,
    ub=None,
    tol: float = 1e-9,
) -> LpResult:
    """Minimize ``c @ x`` subject to ``A_ub x <= b_ub``, ``A_eq x = b_eq``, ``lb <= x <= ub``.

    Bounds may be scalars, arrays, or None (unbounded). Free variables are
    split, bounded ones shifted, before the two-phase simplex runs on the
    equality standard form.
    """
    c = np.asarray(c, dtype=float).ravel()
    n = c.size
    lb = np.full(n, -np.inf) if lb is None else np.broadcast_to(np.asarray(lb, dtype=float), (n,)).copy()
    ub = np.full(n, np.inf) if ub is None else np.broadcast_to(np.asarray(ub, dtype=float), (n,)).copy()
    if np.any(lb > ub):
        return LpResult("infeasible")

    A_ub = np.zeros((0, n)) if A_ub is None else np.atleast_2d(np.asarray(A_ub, dtype=float))
    b_ub = np.zeros(0) if b_ub is None else np.asarray(b_ub, dtype=float).ravel()
    A_eq = np.zeros((0, n)) if A_eq is None else np.atleast_2d(np.asarray(A_eq, dtype=float))
    b_eq = np.zeros(0) if b_eq is None else np.asarray(b_eq, dtype=float).ravel()

    # substitution x = x0 + B y with y >= 0
    x0 = np.zeros(n)
    cols = []  # (original var, sign)
    extra_rows = []  # upper-bound rows in y space: (y_col, rhs)
    for i in range(n):
        if np.isfinite(lb[i]):
            x0[i] = lb[i]
            cols.append((i, 1.0))
            if np.isfinite(ub[i]):
                extra_rows.append((len(cols) - 1, ub[i] - lb[i]))
        elif np.isfinite(ub[i]):
            x0[i] = ub[i]
            cols.append((i, -1.0))
        else:
            cols.append((i, 1.0))
            cols.append((i, -1.0))
    ny = len(cols)
    B = np.zeros((n, ny))
    for jcol, (i, s) in enumerate(cols):
        B[i, jcol] = s

    Au_y = A_ub @ B
    bu_y = b_ub - A_ub @ x0
    if extra_rows:
        rows = np.zeros((len(extra_rows), ny))
        rhs = np.zeros(len(extra_rows))
        for r, (jcol, val) in enumerate(extra_rows):
            rows[r, jcol] = 1.0
            rhs[r] = val
        Au_y = np.vstack([Au_y, rows])
        bu_y = np.concatenate([bu_y, rhs])
    Ae_y = A_eq @ B
    be_y = b_eq - A_eq @ x0

    m_ub = Au_y.shape[0]
    A_std = np.block(
        [
            [Au_y, np.eye(m_ub)],
            [Ae_y, np.zeros((Ae_y.shape[0], m_ub))],
        ]
    )
    b_std = np.concatenate([bu_y, be_y])
    c_std = np.concatenate([c @ B, np.zeros(m_ub)])

    res = solve_standard_form(A_std, b_std, c_std, tol)
    if res.status != "optimal":
        return res
    x = x0 + B @ res.x[:ny]
    return LpResult("optimal", x=x, fun=float(c @ x))
