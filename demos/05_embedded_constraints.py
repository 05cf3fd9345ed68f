"""A tour of the machinery underneath the solver.

1. Switching functions act as exact Kronecker deltas on their
   constraint functionals.
2. Constrained expressions satisfy boundary values and C1 junction
   continuity for EVERY coefficient vector, before any solving.
"""

import numpy as np

from hybvp import BasisSpec, Interval
from hybvp.expressions import UnknownLayout, segment_block, segment_constraints
from hybvp.switching import switching_functions

# 1 -- delta property of the cubic (interior segment) switching set, the
# gamma functions: value and slope pinned at both ends
iv = Interval(1.3, 4.1)
gamma = ((0, 0), (0, 1), (1, 0), (1, 1))
print("gamma functions against their four constraint functionals")
print("(rows: value@x0, value@xf, slope@x0, slope@xf; expect identity)")
S = switching_functions(gamma, iv, [iv.x0, iv.xf], (0, 1))
rows = [S[order][end] for order, end in gamma]
for row in rows:
    print("  " + "  ".join(f"{v:+.3f}" for v in row))

# 2 -- constraint embedding holds for arbitrary unknowns
rng = np.random.default_rng(0)
x0, x1, xf = 0.0, 0.6, 1.0
layout = UnknownLayout(ms=(6, 6))
iv1, iv2 = Interval(x0, x1), Interval(x1, xf)
s1 = BasisSpec.for_interval("chebyshev", 6, iv1)
s2 = BasisSpec.for_interval("chebyshev", 6, iv2)
y0, yf = -2.0, 3.0

print("\nwhat each segment pins (order 0 = value, 1 = slope; column None = boundary value):")
for k in (1, 2):
    print(f"  segment {k}:")
    for c in segment_constraints(k, layout, y0, yf):
        print(f"    order {c.order} at {'x0' if c.end == 0 else 'xf'}: "
              + (f"boundary value {c.value:+.1f}" if c.column is None else f"unknown column {c.column}"))


def at(spec, iv, k, x, d, xi):
    coeffs, offsets = segment_block(spec, iv, k, layout, y0, yf, x, (d,))[d]
    return float(coeffs[0] @ xi[layout.window(k)] + offsets[0])


print("\nrandom coefficient vectors still satisfy every constraint:")
for trial in range(3):
    xi = rng.standard_normal(layout.total)
    left_val, right_val = at(s1, iv1, 1, x1, 0, xi), at(s2, iv2, 2, x1, 0, xi)
    left_slope, right_slope = at(s1, iv1, 1, x1, 1, xi), at(s2, iv2, 2, x1, 1, xi)
    b0, bf = at(s1, iv1, 1, x0, 0, xi), at(s2, iv2, 2, xf, 0, xi)
    print(f"  trial {trial}: y(x0)-y0 = {b0 - y0:+.1e}, y(xf)-yf = {bf - yf:+.1e}, "
          f"junction gaps = {left_val - right_val:+.1e}, {left_slope - right_slope:+.1e}")
