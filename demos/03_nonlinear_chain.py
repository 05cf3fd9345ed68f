"""Both segments nonlinear: y'' = a y'^2 with a jumping from 1 to 10.

The exact solution is logarithmic, so the second segment needs a large
basis (60 functions) before the collocation residual reaches machine
level.  Watch the quadratic tail of the Gauss-Newton trace.
"""

import numpy as np

from hybvp import SolveOptions, analytic_value, builtin, solve

problem = builtin("nonlinear_nonlinear")
result = solve(
    problem,
    SolveOptions(N=100, m=60, init_values=(1.30685, -0.5)),
)

print("converged:", result.converged, "after", result.iterations, "iterations")
for i, norm in enumerate(result.residual_trace, start=1):
    print(f"  iteration {i}: |L|2 = {norm:.3e}")

xs = np.linspace(0.0, 3.0, 3000)
err = np.max(np.abs(result.evaluate(xs) - analytic_value(problem, xs)))
print(f"max |y - exact| on 3000 points: {err:.3e}")
print(f"final QR condition estimate: {result.qr_diagnostic.condition:.1f}")

# coefficient decay explains the basis-count requirement
xi2 = np.abs(result.segment_coefficients(2))
print("second-segment coefficient magnitudes (every 8th):")
print("  " + "  ".join(f"{v:.1e}" for v in xi2[::8]))
