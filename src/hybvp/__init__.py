"""Least-squares solutions of two-point BVPs over piecewise second-order ODEs.

Boundary and C1 junction conditions are embedded analytically through
switching-function constrained expressions over Chebyshev or Legendre
bases, so every candidate solution satisfies them exactly and the ODE
residual alone is minimized by Gauss-Newton iteration, which on a
linear sequence is one least-squares solve.
"""

from .problems import (
    BUILTIN_NAMES,
    HybridProblem,
    SegmentDynamics,
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
    "SegmentDynamics",
    "SolveOptions",
    "SolveResult",
    "analytic_value",
    "builtin",
    "generic_linear",
    "linear_dynamics",
    "nonlinear_dynamics",
    "solve",
]
