"""Polytopes, zonotopes and constrained zonotopes with their closure operations.

A constrained zonotope is the set ``{c + G xi : ||xi||_inf <= 1, F xi = theta}``.
Zonotopes are the unconstrained special case. Affine maps and intersections
stay within the class; emptiness of polyhedral sets is decided via the
Chebyshev-radius LP.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from czempc.lp import solve_lp, solve_stack  # noqa: F401 (perfbench/spans.py traces solve_lp by this name)

DEFAULT_RADIUS_THRESHOLD = 1e-6


class DimensionMismatch(ValueError):
    """Operand dimensions are inconsistent."""


@dataclass(frozen=True)
class Polytope:
    """Half-space representation ``{x : A x <= b}``."""

    A: np.ndarray
    b: np.ndarray

    def __post_init__(self):
        A = np.atleast_2d(np.asarray(self.A, dtype=float))
        b = np.asarray(self.b, dtype=float).ravel()
        if A.shape[0] != b.size:
            raise DimensionMismatch("row count of A must match length of b")
        object.__setattr__(self, "A", A)
        object.__setattr__(self, "b", b)

    @property
    def dim(self) -> int:
        return self.A.shape[1]


@dataclass(frozen=True)
class Zonotope:
    """Center ``c`` plus the Minkowski sum of the segments spanned by columns of ``G``."""

    c: np.ndarray
    G: np.ndarray

    def __post_init__(self):
        c = np.asarray(self.c, dtype=float).ravel()
        G = np.atleast_2d(np.asarray(self.G, dtype=float))
        if G.shape[0] != c.size:
            raise DimensionMismatch("generator rows must match center dimension")
        object.__setattr__(self, "c", c)
        object.__setattr__(self, "G", G)

    @property
    def dim(self) -> int:
        return self.c.size

    @property
    def num_generators(self) -> int:
        return self.G.shape[1]

    def to_cz(self) -> "ConstrainedZonotope":
        ng = self.num_generators
        return ConstrainedZonotope(self.c, self.G, np.zeros((0, ng)), np.zeros(0))

    def support(self, d: np.ndarray) -> float:
        """Support function: ``d@c + sum_i |d@g_i|`` (closed form, no LP)."""
        d = np.asarray(d, dtype=float).ravel()
        return float(d @ self.c + np.abs(d @ self.G).sum())


@dataclass(frozen=True)
class ConstrainedZonotope:
    c: np.ndarray
    G: np.ndarray
    F: np.ndarray
    theta: np.ndarray

    def __post_init__(self):
        c = np.asarray(self.c, dtype=float).ravel()
        G = np.atleast_2d(np.asarray(self.G, dtype=float))
        F = np.asarray(self.F, dtype=float)
        F = F.reshape(0, G.shape[1]) if F.size == 0 else np.atleast_2d(F)
        theta = np.asarray(self.theta, dtype=float).ravel()
        if G.shape[0] != c.size:
            raise DimensionMismatch("generator rows must match center dimension")
        if F.shape[1] != G.shape[1]:
            raise DimensionMismatch("F and G must have equal column counts")
        if F.shape[0] != theta.size:
            raise DimensionMismatch("theta length must match rows of F")
        object.__setattr__(self, "c", c)
        object.__setattr__(self, "G", G)
        object.__setattr__(self, "F", F)
        object.__setattr__(self, "theta", theta)

    @property
    def dim(self) -> int:
        return self.c.size

    @property
    def num_generators(self) -> int:
        return self.G.shape[1]

    @property
    def num_constraints(self) -> int:
        return self.F.shape[0]


@dataclass(frozen=True)
class ChebyshevResult:
    """Largest inscribed ball; a negative radius marks an empty polytope
    (``-inf`` when a constant row cannot hold)."""

    center: np.ndarray | None
    radius: float

    @property
    def unbounded(self) -> bool:
        return np.isinf(self.radius) and self.radius > 0


def _as_cz(Z) -> ConstrainedZonotope:
    return Z.to_cz() if isinstance(Z, Zonotope) else Z


def affine_map(r, R, Z) -> ConstrainedZonotope:
    """Image ``{r + R x : x in Z}``."""
    Z = _as_cz(Z)
    r = np.asarray(r, dtype=float).ravel()
    R = np.atleast_2d(np.asarray(R, dtype=float))
    if R.shape[1] != Z.dim:
        raise DimensionMismatch("map columns must match set dimension")
    if r.size != R.shape[0]:
        raise DimensionMismatch("offset must match map rows")
    return ConstrainedZonotope(r + R @ Z.c, R @ Z.G, Z.F, Z.theta)


def generalized_intersect(Z1, R, Z2) -> ConstrainedZonotope:
    """The set ``{x in Z1 : R x in Z2}``; ``R = I`` recovers plain intersection."""
    Z1, Z2 = _as_cz(Z1), _as_cz(Z2)
    R = np.atleast_2d(np.asarray(R, dtype=float))
    if R.shape[1] != Z1.dim or R.shape[0] != Z2.dim:
        raise DimensionMismatch("R must map Z1's space into Z2's space")
    g1, g2 = Z1.num_generators, Z2.num_generators
    G = np.hstack([Z1.G, np.zeros((Z1.dim, g2))])
    F = np.block(
        [
            [Z1.F, np.zeros((Z1.num_constraints, g2))],
            [np.zeros((Z2.num_constraints, g1)), Z2.F],
            [R @ Z1.G, -Z2.G],
        ]
    )
    theta = np.concatenate([Z1.theta, Z2.theta, Z2.c - R @ Z1.c])
    return ConstrainedZonotope(Z1.c, G, F, theta)


def intersect(Z1, Z2) -> ConstrainedZonotope:
    Z1, Z2 = _as_cz(Z1), _as_cz(Z2)
    if Z1.dim != Z2.dim:
        raise DimensionMismatch("operands must share ambient dimension")
    return generalized_intersect(Z1, np.eye(Z1.dim), Z2)


def support(Z, d):
    """Support function ``max {d@x : x in Z}``; ``-inf`` when ``Z`` is empty.

    ``d`` is one direction (a float comes back) or a (k, n) array of them
    (an array of k values comes back). The feasible ``xi`` are
    ``xi0 + V z`` with ``|xi0 + V z| <= 1``, for ``xi0`` a least-squares
    solution of ``F xi = theta`` and ``V`` a basis of ``null(F)``. Each
    maximum of ``g'xi``, ``g = G'd``, is ``g'xi0`` plus the optimum of the
    dual ``min [1 - xi0; 1 + xi0]'y s.t. [V' -V'] y = V'g, y >= 0``, which
    has one row per column of ``V``; all directions form one stack. The box
    bounds the primal, so a dual that is not optimal means an empty set, as
    do inconsistent equalities. Without null directions the set is the
    point ``xi0`` if it lies in the box, and empty otherwise.
    """
    Z = _as_cz(Z)
    D = np.asarray(d, dtype=float)
    g = np.atleast_2d(D) @ Z.G
    values = np.full(len(g), -np.inf)
    xi0 = np.linalg.lstsq(Z.F, Z.theta, rcond=None)[0]
    if np.abs(Z.F @ xi0 - Z.theta).max(initial=0.0) <= 1e-9 * (1.0 + np.abs(Z.theta).max(initial=0.0)):
        _, s, Vt = np.linalg.svd(Z.F, full_matrices=True)
        V = Vt[np.sum(s > s.max(initial=0.0) * max(Z.F.shape) * np.finfo(float).eps) :].T  # numpy's rank test
        if V.shape[1]:
            costs = np.concatenate([1.0 - xi0, 1.0 + xi0])
            duals = solve_stack(
                np.broadcast_to(np.hstack([V.T, -V.T]), (len(g), V.shape[1], costs.size)), g @ V,
                np.broadcast_to(costs, (len(g), costs.size)),
            )
            values = g @ xi0 + [res.fun if res.status == "optimal" else -np.inf for res in duals]
        elif np.abs(xi0).max(initial=0.0) <= 1.0 + 1e-9:
            values = g @ xi0
    values += np.atleast_2d(D) @ Z.c
    return float(values[0]) if D.ndim == 1 else values


def chebyshev(P: Polytope) -> ChebyshevResult:
    """Largest inscribed ball of ``P``: ``max r s.t. A_i x + r ||A_i|| <= b_i``.

    Rows with a zero normal are constant constraints: a negative right-hand
    side makes the polytope empty (``radius = -inf``), otherwise the row
    cannot bind. A polytope containing arbitrarily large balls reports
    ``radius = +inf``; an empty one a negative radius.
    """
    (res,), Abar = _chebyshev_duals(P.A[None], P.b[None], -np.inf)
    return _ball(res, Abar[0], P.b)


def is_empty(P: Polytope, radius_threshold: float = DEFAULT_RADIUS_THRESHOLD) -> bool:
    """Threshold-based emptiness: true iff the Chebyshev radius stays below the cut."""
    return bool(is_empty_stack(P.A[None], P.b[None], radius_threshold)[0])


def is_empty_stack(A: np.ndarray, b: np.ndarray, radius_threshold: float = DEFAULT_RADIUS_THRESHOLD) -> np.ndarray:
    """:func:`is_empty` for a stack of equal-shape polytopes ``{x : A[k] x <= b[k]}``
    (``A`` is (B, m, n), ``b`` is (B, m)); one bool per polytope. The radius is
    the dual objective (strong duality), so no centre is computed."""
    results, _ = _chebyshev_duals(A, b, radius_threshold)
    return np.array([_dual_radius(res) < radius_threshold for res in results], dtype=bool)


def _chebyshev_duals(A: np.ndarray, b: np.ndarray, cutoff: float) -> tuple:
    """Solve the Chebyshev LPs of a stack of polytopes through their duals,
    which have only ``n + 1`` rows:

        min b'y  s.t.  A'y = 0,  ||A||'y = 1,  y >= 0.

    A row with a zero normal gets a zero column with cost 1, so its ``y``
    never enters the basis and every polytope of the stack keeps the same
    shape. Returns one :class:`LpResult` per polytope (``None`` for one with
    an unsatisfiable constant row, which is empty) and the stacked
    ``[A, ||A||]``. Every feasible ``y`` bounds the radius from above (weak
    duality), so a solve stops once ``b'y < cutoff``.
    """
    norms = np.linalg.norm(A, axis=2)
    zero = norms <= 1e-14
    Abar = np.concatenate([A, norms[:, :, None]], axis=2)
    Abar[zero] = 0.0
    cost = np.where(zero, 1.0, b)
    rhs = np.zeros(Abar.shape[2])
    rhs[-1] = 1.0
    solvable = ~np.any(zero & (b < -1e-12), axis=1)
    results = [None] * len(b)
    live = solvable.nonzero()[0]
    A_dual = Abar.swapaxes(1, 2) if live.size == len(b) else Abar[live].swapaxes(1, 2)
    rhs = np.broadcast_to(rhs, (live.size, rhs.size))
    for k, res in zip(live, solve_stack(A_dual, rhs, cost[live], cutoff=cutoff)):
        results[k] = res
    return results, Abar


def _dual_radius(res) -> float:
    """The radius told by one dual solve of :func:`_chebyshev_duals`: its
    objective at the optimum, or the bound at a cutoff.

    An infeasible dual means ``+inf``. An unbounded dual means an infeasible
    primal, which exact arithmetic rules out (take ``r`` small enough); it
    does happen on rows with norms just above the zero cut and large offsets,
    where the radius is hugely negative, so it reads ``-inf`` (empty), as
    does an unsatisfiable constant row (``res`` is None).
    """
    return -np.inf if res is None else {"infeasible": np.inf, "unbounded": -np.inf}.get(res.status, res.fun)


def _ball(res, Abar: np.ndarray, b: np.ndarray) -> ChebyshevResult:
    """The ball told by one dual solve of :func:`_chebyshev_duals`. At the
    optimum the centre and radius solve ``A_B x + r ||A_B|| = b_B`` over the
    basic rows ``B``; otherwise there is no centre and the radius is
    :func:`_dual_radius`."""
    if res is None or res.status != "optimal":
        return ChebyshevResult(None, _dual_radius(res))
    A_B, b_B = Abar[res.basis], b[res.basis]
    if A_B.shape[0] == A_B.shape[1]:
        z = np.linalg.solve(A_B, b_B)
    else:  # redundant dual rows were dropped: every solution has the same margins
        z = np.linalg.lstsq(A_B, b_B, rcond=None)[0]
    return ChebyshevResult(z[:-1], float(z[-1]))
