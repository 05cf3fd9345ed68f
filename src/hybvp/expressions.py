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
segment_role derives this list, and the window's layout, from whether
the segment is first and whether it is last; it is the only code that
maps a role to window columns.  reference_block hands the list to
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

from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .basis import SERIES, TABLE_CACHE_SIZE, Interval, _read_only, collocation_grid, map_point
from .switching import switching_functions


class Role(NamedTuple):
    """Where a segment's unknowns sit in its window, and the functionals it pins.

    The window is [y_{k-1}, y'_{k-1},] xi_k [, y_k, y'_k]: the pair
    before xi_k unless the segment is first, the pair after unless it is
    last.  own is the position of xi_k in it and width its width.
    pinned holds one (order, end, column) per pinned functional, in the
    order of the segment's switching columns: order 0 pins the value, 1
    the slope; end 0 is x0, 1 is xf; column is the pinned unknown's
    position in the window, or None for the boundary value y0 (end 0)
    or yf (end 1).
    """

    own: slice
    width: int
    pinned: tuple


@lru_cache(maxsize=TABLE_CACHE_SIZE)
def segment_role(m: int, first: bool, last: bool) -> Role:
    """The Role of a segment with m coefficients that starts (first) or ends (last) the domain.

    One rule for every segment: it pins the value at both ends, then
    the slope at each end that is a junction.
    """
    start = 0 if first else 2
    stop = start + m
    pinned = [(0, 0, None if first else 0), (0, 1, None if last else stop)]
    if not first:
        pinned.append((1, 0, 1))
    if not last:
        pinned.append((1, 1, stop + 1))
    return Role(slice(start, stop), stop if last else stop + 2, tuple(pinned))


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
    role, unit = segment_role(m, first, last), Interval(0.0, 1.0)
    skip, M = len(role.pinned), m + len(role.pinned)
    _, der, vander = SERIES[family]
    x = collocation_grid(unit, N)
    # x-derivatives of the M polynomials, dz/dx = 2 on [0, 1], at the z of
    # the points the switching rows take; rows 0 and -1 are z = -1 and +1 exactly
    tables = [2.0 ** d * (vander(map_point(unit, x), M - 1 - d) @ der(np.eye(M), d, axis=0))
              for d in (0, 1, 2)]
    # each row is one pinned functional applied to the free basis
    support = np.array([tables[order][(0, -1)[end], skip:] for order, end, _ in role.pinned])
    S = switching_functions([(order, end) for order, end, _ in role.pinned], unit, x)
    R = [np.zeros((N, role.width)) for _ in (0, 1, 2)]
    E = [np.zeros((N, 2)) for _ in (0, 1, 2)]
    for d in (0, 1, 2):
        R[d][:, role.own] = tables[d][:, skip:] - S[d] @ support
        # a boundary value's switching column is its offset, a junction's its coefficient
        for i, (_, end, column) in enumerate(role.pinned):
            if column is None:
                E[d][:, end] = S[d][:, i]
            else:
                R[d][:, column] = S[d][:, i]
    powers = np.zeros(role.width, dtype=int)
    powers[[column for order, _, column in role.pinned if order]] = 1
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
