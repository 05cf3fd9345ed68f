"""Least-squares solutions of two-point BVPs over piecewise second-order ODEs.

Boundary and C1 junction conditions are embedded analytically through
switching-function constrained expressions over Chebyshev or Legendre
bases, so every candidate solution satisfies them exactly and the ODE
residual alone is minimized by Gauss-Newton iteration, whose first step
on a linear sequence is its least-squares solution.
"""

from .problems import (
    BUILTIN_NAMES,
    HybridProblem,
    analytic_value,
    builtin,
    generic_linear,
    linear_dynamics,
    nonlinear_dynamics,
)
from .solver import (
    DivergenceError,
    SolveOptions,
    SolveResult,
    solve,
)

__version__ = "0.1.0"

__all__ = [
    "BUILTIN_NAMES",
    "DivergenceError",
    "HybridProblem",
    "SolveOptions",
    "SolveResult",
    "analytic_value",
    "builtin",
    "generic_linear",
    "linear_dynamics",
    "nonlinear_dynamics",
    "solve",
]
