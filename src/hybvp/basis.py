"""Orthogonal polynomial bases on mapped segment domains.

Chebyshev and Legendre polynomials live on z in [-1, 1]; each solution
segment [x0, xf] is mapped affinely onto that domain.  Values and the
first two derivatives are computed by three-term recurrences (stable near
z = +-1), and collocation grids use the Gauss-Lobatto cosine distribution
so that both segment endpoints are grid points.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

FAMILIES = ("chebyshev", "legendre")
MAX_DERIVATIVE = 2


@dataclass(frozen=True)
class Interval:
    """Closed interval [x0, xf] of the independent variable, x0 < xf."""

    x0: float
    xf: float

    def __post_init__(self):
        if not (np.isfinite(self.x0) and np.isfinite(self.xf)):
            raise ValueError("interval endpoints must be finite")
        if not self.x0 < self.xf:
            raise ValueError(f"interval requires x0 < xf, got [{self.x0}, {self.xf}]")

    @property
    def width(self) -> float:
        return self.xf - self.x0

    def contains(self, x) -> bool:
        x = np.asarray(x, dtype=float)
        return bool(np.all((x >= self.x0) & (x <= self.xf)))


@dataclass(frozen=True)
class BasisSpec:
    """A polynomial basis of m functions bound to one segment.

    ``c`` is the slope dz/dx of the affine map from the segment onto
    [-1, 1]; derivatives in x of a basis expansion pick up a factor c per
    order.
    """

    family: str
    m: int
    c: float

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ValueError(f"unknown basis family {self.family!r}; choose from {FAMILIES}")
        if self.m < 1:
            raise ValueError("basis count m must be >= 1")
        if not self.c > 0:
            raise ValueError("map slope c must be positive")

    @classmethod
    def for_interval(cls, family: str, m: int, iv: Interval) -> "BasisSpec":
        return cls(family=family, m=m, c=2.0 / iv.width)


@dataclass(frozen=True)
class Grid:
    """Strictly increasing collocation points spanning an interval."""

    interval: Interval
    points: np.ndarray

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=float)
        object.__setattr__(self, "points", pts)
        if pts.ndim != 1 or pts.size < 2:
            raise ValueError("grid needs at least two points")
        if np.any(np.diff(pts) <= 0):
            raise ValueError("grid points must be strictly increasing")
        if pts[0] != self.interval.x0 or pts[-1] != self.interval.xf:
            raise ValueError("grid must start at x0 and end at xf")

    @property
    def n(self) -> int:
        return self.points.size


def map_point(iv: Interval, x):
    """Map x in [x0, xf] onto z in [-1, 1].

    Endpoints map exactly: map_point(iv, x0) == -1.0 and
    map_point(iv, xf) == +1.0.
    """
    x = np.asarray(x, dtype=float)
    if not iv.contains(x):
        raise ValueError(f"x={x} outside interval [{iv.x0}, {iv.xf}]")
    z = -1.0 + 2.0 * (x - iv.x0) / iv.width
    return float(z) if z.ndim == 0 else z


def collocation_grid(iv: Interval, N: int) -> Grid:
    """Gauss-Lobatto cosine-spaced grid of N points over iv.

    z_j = -cos(j*pi/(N-1)), j = 0..N-1, mapped onto the interval; the
    set is symmetrized so it is exactly antisymmetric about the interval
    midpoint and contains both endpoints exactly.
    """
    if N < 2:
        raise ValueError("collocation grid needs N >= 2 points")
    j = np.arange(N)
    z = -np.cos(j * np.pi / (N - 1))
    z = 0.5 * (z - z[::-1])  # kill rounding asymmetry; endpoints become exactly -+1
    x = 0.5 * (iv.x0 + iv.xf) + 0.5 * iv.width * z
    x[0] = iv.x0
    x[-1] = iv.xf
    return Grid(interval=iv, points=x)


def _chebyshev_table(z: np.ndarray, m: int, d: int) -> list:
    """T_k and derivatives of orders 0..d at points z, one (len(z), m) array per order."""
    npts = z.size
    # one array per order, so a caller can release each table on its own
    out = [np.zeros((npts, m)) for _ in range(d + 1)]
    out[0][:, 0] = 1.0
    if m > 1:
        out[0][:, 1] = z
        if d >= 1:
            out[1][:, 1] = 1.0
    for k in range(2, m):
        out[0][:, k] = 2.0 * z * out[0][:, k - 1] - out[0][:, k - 2]
        if d >= 1:
            out[1][:, k] = 2.0 * out[0][:, k - 1] + 2.0 * z * out[1][:, k - 1] - out[1][:, k - 2]
        if d >= 2:
            out[2][:, k] = 4.0 * out[1][:, k - 1] + 2.0 * z * out[2][:, k - 1] - out[2][:, k - 2]
    return out


def _legendre_table(z: np.ndarray, m: int, d: int) -> list:
    """P_k and derivatives of orders 0..d at points z, one (len(z), m) array per order."""
    npts = z.size
    # one array per order, so a caller can release each table on its own
    out = [np.zeros((npts, m)) for _ in range(d + 1)]
    out[0][:, 0] = 1.0
    if m > 1:
        out[0][:, 1] = z
        if d >= 1:
            out[1][:, 1] = 1.0
    for k in range(2, m):
        a = (2.0 * k - 1.0) / k
        b = (k - 1.0) / k
        out[0][:, k] = a * z * out[0][:, k - 1] - b * out[0][:, k - 2]
        if d >= 1:
            out[1][:, k] = a * (out[0][:, k - 1] + z * out[1][:, k - 1]) - b * out[1][:, k - 2]
        if d >= 2:
            out[2][:, k] = a * (2.0 * out[1][:, k - 1] + z * out[2][:, k - 1]) - b * out[2][:, k - 2]
    return out


def eval_basis(spec: BasisSpec, z, d=0):
    """d-th z-derivative of the m basis polynomials at z in [-1, 1].

    Returns shape (m,) for scalar z, (len(z), m) for array z.  d may also
    be a tuple of orders, which returns one such table per order, all
    from a single recurrence pass.  The c**d chain-rule factor is NOT
    applied here; callers that work in x apply it (see basis_matrix).
    """
    orders = (d,) if np.isscalar(d) else tuple(d)
    if min(orders) < 0 or max(orders) > MAX_DERIVATIVE:
        raise ValueError(f"derivative order {d} unsupported (second-order ODE scope, 0..2)")
    zz = np.atleast_1d(np.asarray(z, dtype=float))
    if np.any(np.abs(zz) > 1.0 + 1e-12):
        raise ValueError("basis evaluation point outside [-1, 1]")
    table = _chebyshev_table if spec.family == "chebyshev" else _legendre_table
    tables = table(zz, spec.m, max(orders))
    picked = tuple(tables[o][0] if np.ndim(z) == 0 else tables[o] for o in orders)
    return picked[0] if np.isscalar(d) else picked


def basis_matrix(spec: BasisSpec, grid: Grid, d: int = 0) -> np.ndarray:
    """N x m matrix of c**d * h^(d)(z(x_i)) over the grid points."""
    z = map_point(grid.interval, grid.points)
    return (spec.c ** d) * eval_basis(spec, z, d)
