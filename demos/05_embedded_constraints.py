"""A tour of the machinery underneath the solver.

1. Switching functions act as exact Kronecker deltas on their
   constraint functionals.
2. Constrained expressions satisfy boundary values and C1 junction
   continuity for EVERY coefficient vector, before any solving.
"""

import numpy as np

from hybvp.assembly import assemble_all
from hybvp.basis import Interval
from hybvp.expressions import segment_constraints
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

# 2 -- constraint embedding holds for arbitrary unknowns: the library's own
# discretization of [0, 0.6] and [0.6, 1], whose Gauss-Lobatto points
# include both ends of each segment
rng = np.random.default_rng(0)
y0, yf = -2.0, 3.0
system = assemble_all([0.0, 0.6, 1.0], 10, 6, "chebyshev", y0, yf)
layout = system.layout

print("\nwhat each segment pins (order 0 = value, 1 = slope; column None = boundary value):")
for k in (1, 2):
    print(f"  segment {k}:")
    for c in segment_constraints(k, layout, y0, yf):
        print(f"    order {c.order} at {'x0' if c.end == 0 else 'xf'}: "
              + (f"boundary value {c.value:+.1f}" if c.column is None else f"unknown column {c.column}"))

print("\nrandom coefficient vectors still satisfy every constraint:")
for trial in range(3):
    xi = rng.standard_normal(layout.total)
    # y, y' and y'' at each segment's points; rows 0 and -1 are its ends
    (y1, dy1, _), (y2, dy2, _) = (system.segment_states(xi, k) for k in (1, 2))
    print(f"  trial {trial}: y(x0)-y0 = {y1[0] - y0:+.1e}, y(xf)-yf = {y2[-1] - yf:+.1e}, "
          f"junction gaps = {y1[-1] - y2[0]:+.1e}, {dy1[-1] - dy2[0]:+.1e}")
