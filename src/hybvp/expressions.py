"""Constrained expressions as affine functionals of the global unknowns.

A segment solution is written as a free basis expansion minus switching
functions applied to the constraint functionals the segment pins.  Every
evaluation y^(d)(x) is therefore affine in the global unknown vector

    Xi = [xi_(1), y_1, y'_1, xi_(2), y_2, y'_2, ..., y_{n-1}, y'_{n-1}, xi_(n)]

and is materialized as a coefficient row plus a scalar offset.  The
unknowns segment k touches, its own coefficients and the junction pairs
at its ends, form one contiguous window of Xi, and rows are stored over
that window only.  Because the switching functions are exact Kronecker
deltas, boundary and C1 junction constraints hold for every Xi, before
any solving.

Segment k of n pins its value at both ends, plus its slope at each end
that is a junction.  Each pinned functional takes its value either from
a boundary condition (y0, yf), which lands in the offset, or from a
junction unknown, which lands in that unknown's coefficient column.
segment_constraints derives this list from k and n; it is the only
place that knows a segment's role.  reference_block hands the list to
switching.switching_functions, which derives the matching switching
functions, and builds the rows of every role the same way: it never
names a switching family.

Every term of a segment's expression is a polynomial in
t = (x - x0)/dx times a power of dx, and a Gauss-Lobatto grid of N
points has the same t-nodes on every segment.  So the collocation rows
of all segments with the same role (first, last, both or neither), basis
family, m and N are one reference block, built once on [0, 1] from the
family's numpy.polynomial Vandermonde and derivative series and cached
by reference_block: segment k's rows are its columns scaled by powers
of its width.

The free function of a segment with k embedded constraints skips the
first k basis polynomials: the constraint support reproduces every
polynomial up to degree k-1 exactly, so those directions cancel out of
the expression identically and would only add null columns.  A segment
with m free coefficients therefore spans polynomial degrees up to
k + m - 1.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from itertools import accumulate
from typing import NamedTuple, Optional

import numpy as np

from .basis import SERIES, TABLE_CACHE_SIZE, Interval, _read_only, collocation_grid, map_point
from .switching import switching_functions


@dataclass(frozen=True)
class UnknownLayout:
    """Index bookkeeping for the global unknown vector.

    Segment k (1-based) owns ms[k-1] basis coefficients; junction j
    (1-based, between segments j and j+1) owns two scalars (value y_j and
    slope y'_j) stored immediately after segment j's coefficients.
    """

    ms: tuple[int, ...]

    def __post_init__(self):
        if len(self.ms) < 1 or any(m < 1 for m in self.ms):
            raise ValueError("each segment needs at least one basis function")
        object.__setattr__(self, "ms", tuple(int(m) for m in self.ms))

    @property
    def n_segments(self) -> int:
        return len(self.ms)

    @property
    def total(self) -> int:
        return sum(self.ms) + 2 * (self.n_segments - 1)

    @cached_property
    def _starts(self) -> tuple[int, ...]:
        return tuple(accumulate((m + 2 for m in self.ms[:-1]), initial=0))

    def xi_slice(self, k: int) -> slice:
        """Column range of segment k's basis coefficients, k = 1..n."""
        if not 1 <= k <= self.n_segments:
            raise ValueError(f"segment index {k} out of range 1..{self.n_segments}")
        start = self._starts[k - 1]
        return slice(start, start + self.ms[k - 1])

    def window(self, k: int) -> slice:
        """Contiguous column range segment k touches, k = 1..n.

        Its own coefficients plus the (value, slope) pair of each adjacent
        junction: width m_k + 4 for a middle segment, m_k + 2 at either
        end, m_k when there is only one segment.
        """
        own = self.xi_slice(k)
        return slice(own.start - (2 if k > 1 else 0),
                     own.stop + (2 if k < self.n_segments else 0))

    def own_in_window(self, k: int) -> slice:
        """Position of segment k's own coefficients inside window(k)."""
        start = 2 if k > 1 else 0
        return slice(start, start + self.ms[k - 1])

    def junction_value_index(self, j: int) -> int:
        """Column of y_j, j = 1..n-1."""
        if not 1 <= j <= self.n_segments - 1:
            raise ValueError(f"junction index {j} out of range 1..{self.n_segments - 1}")
        return self.xi_slice(j).stop

    def junction_slope_index(self, j: int) -> int:
        """Column of y'_j, j = 1..n-1."""
        return self.junction_value_index(j) + 1


class Constraint(NamedTuple):
    """One functional pinned by a segment's expression.

    order 0 pins the value, 1 the slope; end 0 is x0, 1 is xf.  A
    junction functional names its unknown's column; a boundary value has
    column None and carries the value itself.
    """

    order: int
    end: int
    column: Optional[int]
    value: float = 0.0


def segment_constraints(k: int, layout: UnknownLayout, y0: float, yf: float):
    """Functionals segment k pins, in the order of its switching columns.

    One rule for every segment: the value at both ends, then the slope
    at each end that is a junction.
    """
    n = layout.n_segments
    if not 1 <= k <= n:
        raise ValueError(f"segment index {k} out of range 1..{n}")
    out = []
    for order, end in ((0, 0), (0, 1), (1, 0), (1, 1)):
        j = k - 1 + end  # break-point index of this end: 0 and n are the domain boundaries
        if j in (0, n):
            if order == 0:
                out.append(Constraint(order, end, None, y0 if j == 0 else yf))
        elif order == 0:
            out.append(Constraint(order, end, layout.junction_value_index(j)))
        else:
            out.append(Constraint(order, end, layout.junction_slope_index(j)))
    return tuple(out)


@lru_cache(maxsize=TABLE_CACHE_SIZE)
def reference_block(family: str, m: int, N: int, first: bool, last: bool) -> tuple:
    """(R, E, p): a segment's rows on the N Gauss-Lobatto points of [0, 1].

    first and last say whether the segment starts and ends the domain:
    its role.  A segment of width dx with this role, family and m has
    A^(d) = R[d] * dx ** (p - d) and B^(d) = E[d] @ (y0, yf) / dx ** d,
    where E[d] holds the offsets for (y0, yf) = (1, 0) and (0, 1) and p
    is 1 on the junction-slope columns of the window, else 0.  The
    integer exponents scale a pinned value at d = 0 and a pinned slope
    at d = 1 by exactly 1.0, so they stay exact.  Arrays are read-only.
    """
    k = 1 if first else 2
    layout = UnknownLayout((m,) * (k if last else k + 1))
    window, unit = layout.window(k), Interval(0.0, 1.0)
    constraints = segment_constraints(k, layout, 0.0, 0.0)
    skip, M = len(constraints), m + len(constraints)
    _, der, vander = SERIES[family]
    x = collocation_grid(unit, N)
    # x-derivatives of the M polynomials, dz/dx = 2 on [0, 1], at the z of
    # the points the switching rows take; rows 0 and -1 are z = -1 and +1 exactly
    tables = [2.0 ** d * (vander(map_point(unit, x), M - 1 - d) @ der(np.eye(M), d, axis=0))
              for d in (0, 1, 2)]
    # each row is one pinned functional applied to the free basis
    support = np.array([tables[con.order][(0, -1)[con.end], skip:] for con in constraints])
    S = switching_functions([(con.order, con.end) for con in constraints], unit, x)
    R = [np.zeros((N, window.stop - window.start)) for _ in (0, 1, 2)]
    E = [np.zeros((N, 2)) for _ in (0, 1, 2)]
    for d in (0, 1, 2):
        R[d][:, layout.own_in_window(k)] = tables[d][:, skip:] - S[d] @ support
        # a boundary value's switching column is its offset, a junction's its coefficient
        for i, con in enumerate(constraints):
            if con.column is None:
                E[d][:, con.end] = S[d][:, i]
            else:
                R[d][:, con.column - window.start] = S[d][:, i]
    powers = np.zeros(window.stop - window.start, dtype=int)
    powers[[con.column - window.start for con in constraints if con.order]] = 1
    return _read_only(*R), _read_only(*E), _read_only(powers)[0]


@lru_cache(maxsize=TABLE_CACHE_SIZE)
def reference_bounds(family: str, m: int, N: int, first: bool, last: bool) -> np.ndarray:
    """|[R[d] E[d]]| of reference_block(family, m, N, first, last), stacked over d = 0, 1, 2.

    Row block d times (|Xi_window| * dx ** p, |y0|, |yf|) is dx ** d
    (|A^(d)| |Xi_window| + |E[d]| |(y0, yf)| / dx ** d): the magnitudes
    whose rounding bounds that of evaluating y^(d).  Shape (3 N, window
    width + 2), read-only.
    """
    R, E, _ = reference_block(family, m, N, first, last)
    return _read_only(np.abs(np.vstack([np.hstack([R[d], E[d]]) for d in (0, 1, 2)])))[0]
