"""Two linear segments with a forcing jump, solved in one least squares.

The ODE is y'' = x^2 on [0, 0.5] and y'' = x^2 + 1 on (0.5, 1] with
y(0) = 0 and y(1) = 1.  Value and slope continuity at the jump are
embedded in the trial functions themselves, so a single direct solve
recovers the piecewise quartic exactly.
"""

import numpy as np

from hybvp import SolveOptions, analytic_value, builtin, solve

problem = builtin("linear_linear")
result = solve(problem, SolveOptions(N=100, m=8))

print("converged:", result.converged, "in", result.iterations, "solve")
print(f"residual 2-norm: {result.residual_norm:.3e}")

(xj, yj, dyj), = result.junctions
print(f"junction at x = {xj}:")
print(f"  value  {yj:.15f}   (exact 77/192 = {77 / 192:.15f})")
print(f"  slope  {dyj:.15f}   (exact 5/6   = {5 / 6:.15f})")

xs = np.linspace(0.0, 1.0, 1001)
for d, label in ((0, "y"), (1, "y'"), (2, "y''")):
    err = np.max(np.abs(result.evaluate(xs, d) - analytic_value(problem, xs, d)))
    print(f"max |{label} - exact| over 1001 points: {err:.3e}")

print("\nsample of the solution table:")
print(f"{'x':>6} {'y':>22} {'dy':>22}")
for x in (0.0, 0.25, 0.5, 0.75, 1.0):
    print(f"{x:>6.2f} {result.evaluate(x, 0):>22.15f} {result.evaluate(x, 1):>22.15f}")
