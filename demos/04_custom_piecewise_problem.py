"""Posing your own piecewise linear ODE from a plain config mapping.

Four segments of y'' = x^2 + k (k = 1..4) over [0, 1], boundary values
y(0) = 0 and y(1) = 1.  The same mapping could live in a JSON file and
be run through the command line:

    hybvp --config problem.json --output results/
"""

import numpy as np

from hybvp import SolveOptions, generic_linear, solve

config = {
    "name": "staircase_forcing",
    "break_points": [0.0, 0.25, 0.5, 0.75, 1.0],
    "y0": 0.0,
    "yf": 1.0,
    "segments": [
        {"a2": [1.0], "f": [float(k), 0.0, 1.0]}  # x^2 + k, ascending coefficients
        for k in (1, 2, 3, 4)
    ],
}

problem = generic_linear(config)
result = solve(problem, SolveOptions(N=40, m=8))

print("segments:", problem.n_segments, " unknowns:", result.system.total)
print("converged:", result.converged, f" residual 2-norm: {result.residual_norm:.3e}")

print("\njunction states (value and slope are shared unknowns):")
for xj, yj, dyj in result.junctions:
    print(f"  x = {xj:.2f}: y = {yj:.12f}, y' = {dyj:.12f}")

# continuity check: evaluate each side of every junction
print("\njunction continuity (left vs right evaluation):")
for xj, _, _ in result.junctions:
    left = np.nextafter(xj, 0.0)
    gap_v = abs(result.evaluate(left, 0) - result.evaluate(xj, 0))
    gap_s = abs(result.evaluate(left, 1) - result.evaluate(xj, 1))
    print(f"  x = {xj:.2f}: value gap {gap_v:.1e}, slope gap {gap_s:.1e}")

# a second-derivative jump of exactly 1 at each junction is the posed physics
# (points at a junction belong to the left segment, so step one ulp right)
print("\nsecond-derivative jumps across junctions (should be ~1):")
for xj, _, _ in result.junctions:
    right = np.nextafter(xj, 1.0)
    print(f"  x = {xj:.2f}: jump = {result.evaluate(right, 2) - result.evaluate(xj, 2):+.6f}")
