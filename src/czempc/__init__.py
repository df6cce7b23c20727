"""Explicit linear MPC over constrained-zonotope feasible domains.

The solver condenses a linear MPC problem into a multi-parametric QP whose
feasible set is the intersection of a hypercube with an affine subspace
(the lifted generator space of a constrained zonotope), enumerates candidate
active sets breadth-first, and returns the piecewise-affine control law as a
tree of critical regions.
"""

from czempc.sets import Polytope, Zonotope, ConstrainedZonotope
from czempc.condense import MpcProblem, CondensedProblem, build_condensed_qp
from czempc.explorer import SolutionTree, explore
from czempc.runtime import locate, evaluate, simulate

__all__ = [
    "Polytope",
    "Zonotope",
    "ConstrainedZonotope",
    "MpcProblem",
    "CondensedProblem",
    "build_condensed_qp",
    "SolutionTree",
    "explore",
    "locate",
    "evaluate",
    "simulate",
]

__version__ = "0.1.0"
