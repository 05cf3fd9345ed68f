"""Linear dynamics handing over to nonlinear dynamics at x = pi/2.

The sequence y'' + y * y'^a = e^{pi/2 - x} - e^{pi - 2x} switches from
a = 0 (linear) to a = 1 (nonlinear) at the midpoint, so the solve runs
Gauss-Newton.  Two starts are compared: junction seeds read off the true
solution, and the plain straight line between the boundary points.
"""

import numpy as np

from hybvp import SolveOptions, analytic_value, builtin, solve

problem = builtin("linear_nonlinear")
print(f"boundary values: y(0) = {problem.y0:.6f}, y(pi) = {problem.yf:.6f}")

for label, opts in [
    ("reference start (y1, y1') = (1, -1)",
     SolveOptions(N=100, m=16, init_values=(1.0, -1.0))),
    ("line start", SolveOptions(N=100, m=16)),
]:
    result = solve(problem, opts)
    print(f"\n{label}:")
    print("  converged:", result.converged, "after", result.iterations, "iterations")
    print("  residual trace:", "  ".join(f"{v:.1e}" for v in result.residual_trace))
    xs = np.linspace(0.0, np.pi, 2000)
    err = np.max(np.abs(result.evaluate(xs) - analytic_value(problem, xs)))
    print(f"  max |y - exact| = {err:.3e}")
    (xj, yj, dyj), = result.junctions
    print(f"  junction state: y({xj:.6f}) = {yj:.12f}, y'({xj:.6f}) = {dyj:.12f}")
