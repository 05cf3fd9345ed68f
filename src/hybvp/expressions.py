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
segment_constraints derives this list from k and n, and segment_block
builds the rows of every segment role from it.

The free function of a segment with k embedded constraints skips the
first k basis polynomials: the constraint support reproduces every
polynomial up to degree k-1 exactly, so those directions cancel out of
the expression identically and would only add null columns.  A segment
with m free coefficients therefore spans polynomial degrees up to
k + m - 1.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import accumulate
from typing import NamedTuple, Optional

import numpy as np

from .basis import BasisSpec, Interval, eval_basis, map_point
from .switching import FAMILY_CONSTRAINTS, alpha, beta, gamma

# (slope pinned at x0, slope pinned at xf) -> (switching family, first
# index, key of its functionals in FAMILY_CONSTRAINTS)
_SWITCHING = {
    (False, False): ("alpha", 1, "alpha"),
    (False, True): ("beta", 1, "beta_first"),
    (True, False): ("beta", 4, "beta_last"),
    (True, True): ("gamma", 1, "gamma"),
}


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
    """Switching family, first index and pinned functionals of segment k.

    The functionals follow FAMILY_CONSTRAINTS order, which is also the
    order of the family's switching indices.
    """
    n = layout.n_segments
    if not 1 <= k <= n:
        raise ValueError(f"segment index {k} out of range 1..{n}")
    family, first, key = _SWITCHING[k > 1, k < n]
    out = []
    for order, end in FAMILY_CONSTRAINTS[key]:
        j = k - 1 + end  # break-point index of this end: 0 and n are the domain boundaries
        if j in (0, n):
            out.append(Constraint(order, end, None, y0 if j == 0 else yf))
        elif order == 0:
            out.append(Constraint(order, end, layout.junction_value_index(j)))
        else:
            out.append(Constraint(order, end, layout.junction_slope_index(j)))
    return family, first, tuple(out)


def segment_block(spec: BasisSpec, iv: Interval, k: int, layout: UnknownLayout,
                  y0: float, yf: float, x, orders=(0, 1, 2)) -> dict:
    """Rows of segment k's constrained expression at points x.

    Returns {d: (coeffs, offsets)} for every d in orders, with coeffs of
    shape (len(x), width of layout.window(k)) so that
    y^(d)(x) = coeffs @ Xi[layout.window(k)] + offsets.  Segment k's
    rows touch no unknown outside its window.
    """
    family, first, constraints = segment_constraints(k, layout, y0, yf)
    # looked up per call, so wrappers set on this module's names (the
    # benchmark's span tracer) see every switching evaluation
    switching = {"alpha": alpha, "beta": beta, "gamma": gamma}[family]
    skip = len(constraints)
    wide = BasisSpec(spec.family, spec.m + skip, spec.c)
    window = layout.window(k)
    x = np.atleast_1d(np.asarray(x, dtype=float))
    z = map_point(iv, x)
    tables = list(eval_basis(wide, z, tuple(orders)))
    # h and c*h' of the free expansion at z = -1, +1
    h, dh = eval_basis(wide, np.array([-1.0, 1.0]), (0, 1))
    support = {(0, 0): h[0, skip:], (0, 1): h[1, skip:],
               (1, 0): spec.c * dh[0, skip:], (1, 1): spec.c * dh[1, skip:]}
    out = {}
    for d in orders:
        coeffs = np.zeros((x.size, window.stop - window.start))
        local = coeffs[:, layout.own_in_window(k)]
        # each table is released once its order is built
        np.multiply(spec.c ** d, tables.pop(0)[:, skip:], out=local)
        s = [np.atleast_1d(switching(first + i, iv, x, d)) for i in range(skip)]
        # subtraction order fixes the rounding
        for s_i, con in zip(s, constraints):
            local -= np.outer(s_i, support[con.order, con.end])
        offsets = None  # the first boundary term starts the sum, keeping its signed zeros
        for s_i, con in zip(s, constraints):
            if con.column is not None:
                coeffs[:, con.column - window.start] = s_i
            elif offsets is None:
                offsets = s_i * con.value
            else:
                offsets = offsets + s_i * con.value
        out[d] = (coeffs, np.zeros(x.size) if offsets is None else offsets)
    return out
