"""Reference computations for the benchmark's correctness checks.

Everything here is built from the problem file with numpy and scipy alone;
nothing is imported from czempc. The MPC problem is condensed afresh, the
terminal recurrence is re-run in halfspace form with an LQR gain from
``scipy.linalg.solve_discrete_are``, QPs are solved exactly as least-distance
problems by ``scipy.optimize.nnls`` (Lawson and Hanson), and LPs go to
scipy's HiGHS.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg
from scipy.optimize import linprog, nnls

RECURRENCE_MAX_ITER = 50
RECURRENCE_TOL = 1e-8


def box_rows(c, G):
    """Halfspaces ``H x <= h`` of the parallelotope ``{c + G xi : |xi| <= 1}``."""
    c = np.asarray(c, dtype=float).ravel()
    G = np.atleast_2d(np.asarray(G, dtype=float))
    if G.shape[0] != G.shape[1]:
        raise ValueError("reference checks need parallelotope sets (square generator matrix)")
    Ginv = np.linalg.inv(G)
    H = np.vstack([Ginv, -Ginv])
    h = np.concatenate([1.0 + Ginv @ c, 1.0 - Ginv @ c])
    return H, h


def lqr_gain(A, B, Q, R):
    P = scipy.linalg.solve_discrete_are(A, B, Q, R)
    return -np.linalg.solve(R + B.T @ P @ B, B.T @ P @ A)


def support_h(H, h, d):
    """``max d@x s.t. H x <= h`` by HiGHS."""
    res = linprog(-d, A_ub=H, b_ub=h, bounds=(None, None), method="highs")
    if res.status != 0:
        raise RuntimeError(f"support LP failed: {res.message}")
    return -res.fun


def recurrence_terminal(A, B, Q, R, HX, hX, HU, hU):
    """Halfspace form of ``Omega_k = {x : M^j x in Omega_0, j <= k}`` with
    ``Omega_0 = {x in X : K x in U}`` and ``M = A + B K``; ``k`` grows until
    the axis supports settle, the stopping rule of the terminal recurrence."""
    K = lqr_gain(A, B, Q, R)
    M = A + B @ K
    H0 = np.vstack([HX, HU @ K])
    h0 = np.concatenate([hX, hU])
    n = A.shape[0]
    dirs = np.vstack([np.eye(n), -np.eye(n)])
    H, h, Mj = H0, h0, np.eye(n)
    sup = np.array([support_h(H, h, d) for d in dirs])
    for _ in range(RECURRENCE_MAX_ITER):
        Mj = Mj @ M
        H = np.vstack([H, H0 @ Mj])
        h = np.concatenate([h, h0])
        sup_next = np.array([support_h(H, h, d) for d in dirs])
        if np.max(np.abs(sup_next - sup)) < RECURRENCE_TOL:
            break
        sup = sup_next
    return H, h


@dataclass
class ReferenceMpc:
    """Condensed QP ``min 0.5 u'H u + x0'F u  s.t.  A u <= b + E x0`` plus
    the state-only cut ``HX x0 <= hX`` (stage-0 state constraint); ``HU u_k
    <= hU`` is the input set."""

    n: int
    m: int
    N: int
    H: np.ndarray
    F: np.ndarray
    A: np.ndarray
    b: np.ndarray
    E: np.ndarray
    HX: np.ndarray
    hX: np.ndarray
    xc: np.ndarray  # X = {xc + xG xi : |xi| <= 1}
    xG: np.ndarray
    HU: np.ndarray
    hU: np.ndarray

    @classmethod
    def from_doc(cls, doc: dict, N: int) -> "ReferenceMpc":
        A = np.atleast_2d(np.asarray(doc["A"], dtype=float))
        B = np.atleast_2d(np.asarray(doc["B"], dtype=float))
        Q = np.asarray(doc["Q"], dtype=float)
        R = np.atleast_2d(np.asarray(doc["R"], dtype=float))
        S = np.asarray(doc["S"], dtype=float)
        n, m = B.shape
        HX, hX = box_rows(doc["X"]["c"], doc["X"]["G"])
        HU, hU = box_rows(doc["U"]["c"], doc["U"]["G"])
        T = doc["T"]
        if "recurrence" in T:
            if T["recurrence"].get("K", "lqr") != "lqr":
                raise ValueError("reference checks support the LQR recurrence only")
            HT, hT = recurrence_terminal(A, B, Q, R, HX, hX, HU, hU)
        else:
            if T.get("F"):
                raise ValueError("reference checks need a zonotope or recurrence terminal set")
            HT, hT = box_rows(T["c"], T["G"])

        # x_k = A^k x0 + sum_{j<k} A^(k-1-j) B u_j, stacked for k = 0..N
        Apow = [np.linalg.matrix_power(A, k) for k in range(N + 1)]
        Phi = np.zeros(((N + 1) * n, N * m))
        for k in range(1, N + 1):
            for j in range(k):
                Phi[k * n : (k + 1) * n, j * m : (j + 1) * m] = Apow[k - 1 - j] @ B
        Psi = np.vstack(Apow)
        Wx = scipy.linalg.block_diag(*([Q] * N + [S]))
        Wu = scipy.linalg.block_diag(*([R] * N))
        Hqp = 2.0 * (Phi.T @ Wx @ Phi + Wu)
        Fqp = 2.0 * (Psi.T @ Wx @ Phi)

        rows_A, rows_b, rows_E = [], [], []
        for k in range(1, N + 1):  # states x_1..x_{N-1} in X, x_N in T
            Hk, hk = (HX, hX) if k < N else (HT, hT)
            rows_A.append(Hk @ Phi[k * n : (k + 1) * n])
            rows_b.append(hk)
            rows_E.append(-Hk @ Apow[k])
        for k in range(N):
            sel = np.zeros((m, N * m))
            sel[:, k * m : (k + 1) * m] = np.eye(m)
            rows_A.append(HU @ sel)
            rows_b.append(hU)
            rows_E.append(np.zeros((HU.shape[0], n)))
        return cls(
            n, m, N, Hqp, Fqp,
            np.vstack(rows_A), np.concatenate(rows_b), np.vstack(rows_E),
            HX, hX, np.asarray(doc["X"]["c"], dtype=float), np.asarray(doc["X"]["G"], dtype=float), HU, hU,
        )

    def joint_polytope(self, margin: float = 0.0):
        """Rows ``P z <= p`` over ``z = (x0, u)``: the set of feasible pairs,
        each row pulled in by ``margin`` times its norm."""
        nu = self.A.shape[1]
        P = np.vstack([np.hstack([-self.E, self.A]), np.hstack([self.HX, np.zeros((self.HX.shape[0], nu))])])
        p = np.concatenate([self.b, self.hX])
        return P, p - margin * np.linalg.norm(P, axis=1)

    def in_x(self, x, tol=1e-9) -> bool:
        return bool(np.all(self.HX @ x <= self.hX + tol))

    def in_u(self, u, tol=1e-9) -> bool:
        return bool(np.all(self.HU @ u <= self.hU + tol))

    def feasible(self, x0, margin: float = 0.0) -> bool:
        """LP certificate that some ``u`` meets every constraint at ``x0`` with
        ``margin`` to spare on each row; ``u = 0`` is tried as witness first."""
        x0 = np.asarray(x0, dtype=float).ravel()
        if np.any(self.HX @ x0 > self.hX - margin * np.linalg.norm(self.HX, axis=1)):
            return False
        rhs = self.b + self.E @ x0 - margin * np.linalg.norm(self.A, axis=1)
        if np.all(rhs >= 0.0):
            return True
        res = linprog(np.zeros(self.A.shape[1]), A_ub=self.A, b_ub=rhs, bounds=(None, None), method="highs")
        return res.status == 0

    def solve(self, x0):
        """Exact optimal stacked input at ``x0``, or None when infeasible.

        The QP is turned into the least-distance problem ``min ||v||`` s.t.
        ``G v >= g`` with ``u = L^-T (v - L^-1 f)``, ``H = L L'``, and solved
        through one NNLS call (Lawson and Hanson, Solving Least Squares
        Problems, ch. 23)."""
        x0 = np.asarray(x0, dtype=float).ravel()
        if np.any(self.HX @ x0 > self.hX + 1e-9):
            return None
        f = self.F.T @ x0
        L = np.linalg.cholesky(self.H)
        Linv_f = scipy.linalg.solve_triangular(L, f, lower=True)
        ALt = scipy.linalg.solve_triangular(L, self.A.T, lower=True).T  # A L^-T
        rhs = self.b + self.E @ x0 + ALt @ Linv_f
        scale = np.linalg.norm(ALt, axis=1)
        scale[scale == 0.0] = 1.0
        G = -ALt / scale[:, None]
        g = -rhs / scale
        nv = G.shape[1]
        Emat = np.vstack([G.T, g[None, :]])
        e = np.zeros(nv + 1)
        e[-1] = 1.0
        w, _ = nnls(Emat, e, maxiter=50 * Emat.shape[1])
        r = Emat @ w - e
        if abs(r[-1]) < 1e-12:
            return None
        v = -r[:nv] / r[-1]
        u = scipy.linalg.solve_triangular(L.T, v - Linv_f, lower=False)
        if np.any(self.A @ u > self.b + self.E @ x0 + 1e-7):
            return None
        return u


def chebyshev(L, l):
    """Chebyshev centre and radius of ``{x : L x <= l}`` by HiGHS; radius -inf when infeasible."""
    L = np.asarray(L, dtype=float)
    l = np.asarray(l, dtype=float)
    norms = np.linalg.norm(L, axis=1)
    keep = norms > 1e-14
    if np.any(l[~keep] < -1e-12):
        return None, -np.inf
    A_ub = np.hstack([L[keep], norms[keep][:, None]])
    c = np.zeros(L.shape[1] + 1)
    c[-1] = -1.0
    bounds = [(None, None)] * L.shape[1] + [(0.0, None)]
    res = linprog(c, A_ub=A_ub, b_ub=l[keep], bounds=bounds, method="highs")
    if res.status == 2:
        return None, -np.inf
    if res.status != 0:
        raise RuntimeError(f"Chebyshev LP failed: {res.message}")
    return res.x[:-1], float(res.x[-1])


def hit_and_run(P, p, rng, count: int, steps: int = 50) -> np.ndarray:
    """``count`` independent points of ``{z : P z <= p}``: the end points of
    as many hit-and-run walks of ``steps`` steps from the Chebyshev centre."""
    z0, radius = chebyshev(P, p)
    if not radius > 0.0:
        raise RuntimeError("sampling polytope has no interior")
    Z = np.tile(z0, (count, 1))
    for _ in range(steps):
        D = rng.standard_normal(Z.shape)
        D /= np.linalg.norm(D, axis=1, keepdims=True)
        PD = D @ P.T
        ratio = (p - Z @ P.T) / np.where(PD == 0.0, np.nan, PD)
        t_hi = np.nanmin(np.where(PD > 0.0, ratio, np.nan), axis=1)
        t_lo = np.nanmax(np.where(PD < 0.0, ratio, np.nan), axis=1)
        Z += rng.uniform(t_lo, t_hi)[:, None] * D
    return Z
