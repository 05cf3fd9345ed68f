"""Polynomial switching functions that embed point constraints.

A switching set is fixed by a list of pinned functionals alone: for k
functionals (derivative order, end) over an interval [x0, xf] it is the
unique set of k polynomials of degree below k that act as Kronecker
deltas on them.  switching_functions derives the set by inverting the
k x k matrix of the functionals applied to the monomials, so a new kind
of constraint needs only a new functional, never a new formula.

The paper's families are such lists: alpha (value at both ends, single
segment), beta (plus the slope at the junction end, first and last
segment) and gamma (value and slope at both ends, cubic Hermite, middle
segments).  expressions.segment_constraints builds a segment's list.

Everything is evaluated in the normalized variable t = (x - x0)/dx, in
which the inverse matrix holds small integers, so the delta property
holds exactly (not merely to rounding) at the interval endpoints.
Derivative orders 0..2 are supported.
"""

from __future__ import annotations

from functools import cache
from math import perm

import numpy as np

from .basis import MAX_DERIVATIVE, Interval


@cache
def _monomial_coeffs(functionals: tuple) -> tuple:
    """Per derivative order d, the t-monomial coefficients of the switching set.

    Entry d is a (k, k) array whose column j holds the coefficients of
    the d-th t-derivative of switching function j.  Functional (o, e)
    applied to t**p is its o-th derivative at t = e, perm(p, o) e**(p-o).
    """
    k = len(functionals)
    M = np.array([[perm(p, o) * e ** max(p - o, 0) for p in range(k)] for o, e in functionals],
                 dtype=float)
    P = np.linalg.inv(M)
    out = []
    for d in range(MAX_DERIVATIVE + 1):
        D = np.zeros((k, k))
        D[: max(k - d, 0)] = np.array([perm(p, d) for p in range(d, k)])[:, None] * P[d:]
        D.setflags(write=False)
        out.append(D)
    return tuple(out)


def switching_functions(functionals, iv: Interval, x, orders=(0, 1, 2)) -> dict:
    """The switching set of a list of pinned functionals, evaluated at x.

    functionals is a sequence of (derivative order, end) pairs, end 0 =
    x0 and 1 = xf.  Returns {d: (len(x), k) array} for d in orders,
    column j being the d-th x-derivative of the polynomial that takes
    the value 1 on functional j and 0 on every other.
    """
    functionals = tuple((int(o), int(e)) for o, e in functionals)
    orders = tuple(orders)
    if min(orders) < 0 or max(orders) > MAX_DERIVATIVE:
        raise ValueError(f"derivative order {orders} unsupported (0..{MAX_DERIVATIVE})")
    x = np.atleast_1d(np.asarray(x, dtype=float))
    iv.check(x)
    dx = float(iv.width)
    coeffs = _monomial_coeffs(functionals)
    V = np.vander((x - iv.x0) / dx, len(functionals), increasing=True)
    pinned = np.array([o for o, _ in functionals])
    # x-derivatives: each t-derivative brings 1/dx, and function j carries
    # dx**pinned[j] so that its own functional reads exactly 1
    return {d: (V @ coeffs[d]) * dx ** (pinned - d) for d in orders}
