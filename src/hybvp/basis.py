"""Orthogonal polynomial bases on mapped segment domains.

Chebyshev and Legendre polynomials live on z in [-1, 1]; each solution
segment [x0, xf] is mapped affinely onto that domain.  Both families are
evaluated only through numpy.polynomial (SERIES), and collocation grids
use the Gauss-Lobatto cosine distribution so that both segment
endpoints are grid points.

Because the map is affine, every grid of N points has the same
reference nodes z_j (lobatto_nodes), and a segment's basis table in x
is the reference table scaled by c**d.  lobatto_nodes and
expressions.reference_block, which holds a whole segment's rows at the
nodes, are bounded caches of read-only arrays.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from numpy.polynomial import chebyshev, legendre

FAMILIES = ("chebyshev", "legendre")
MAX_DERIVATIVE = 2
# per family: the Clenshaw sum val(z, coef), the x-derivative series
# der(coef, d, scl=c) and the Vandermonde vander(z, degree)
SERIES = {"chebyshev": (chebyshev.chebval, chebyshev.chebder, chebyshev.chebvander),
          "legendre": (legendre.legval, legendre.legder, legendre.legvander)}
# entries kept per table cache: a geometry of uniform sizes uses at most
# four segment roles, and a reference block holds about 3*N*(m + 6)
# floats (164 KiB at N = 100, m = 64); a miss costs what no cache would
TABLE_CACHE_SIZE = 32


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

    def check(self, x, where: str = "x") -> None:
        """Raise ValueError naming the first point of x outside the interval (NaN is)."""
        if not self.contains(x):
            x = np.ravel(np.asarray(x, dtype=float))
            i = int(np.argmin((x >= self.x0) & (x <= self.xf)))  # the first False
            raise ValueError(f"{where}[{i}] = {float(x[i])!r} outside interval [{self.x0}, {self.xf}]")


def map_point(iv: Interval, x, where: str = "x"):
    """Map x in [x0, xf] onto z in [-1, 1].

    Endpoints map exactly: map_point(iv, x0) == -1.0 and
    map_point(iv, xf) == +1.0.  A point outside iv raises ValueError,
    naming it as where[index].
    """
    x = np.asarray(x, dtype=float)
    iv.check(x, where)
    z = -1.0 + 2.0 * (x - iv.x0) / iv.width
    return float(z) if z.ndim == 0 else z


def _is_number(value) -> bool:
    """A real number (numpy's too) that a float can hold, not a bool: JSON true reads as 1."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        return False
    try:
        float(value)  # an integer beyond the float range overflows
    except OverflowError:
        return False
    return True


def _is_integer(value) -> bool:
    """A number (_is_number) with an integral value: 8.0 is 8, nan and inf are not."""
    return _is_number(value) and float(value).is_integer()


def _is_order(d) -> bool:
    """Whether d is a derivative order 0..MAX_DERIVATIVE: an integer, numpy's too, not a bool or 1.0."""
    return isinstance(d, numbers.Integral) and not isinstance(d, bool) and 0 <= d <= MAX_DERIVATIVE


def _read_only(*arrays) -> tuple:
    """Views that cannot be written, nor made writable again."""
    for a in arrays:
        a.setflags(write=False)
    return tuple(a.view() for a in arrays)


@lru_cache(maxsize=TABLE_CACHE_SIZE)
def lobatto_nodes(N: int) -> np.ndarray:
    """The N Gauss-Lobatto nodes z_j = -cos(j*pi/(N-1)) on [-1, 1], read-only.

    The set is symmetrized so it is exactly antisymmetric about 0 and
    its endpoints are exactly -1 and +1.
    """
    if N < 2:
        raise ValueError("collocation grid needs N >= 2 points")
    j = np.arange(N)
    z = -np.cos(j * np.pi / (N - 1))
    z = 0.5 * (z - z[::-1])  # kill rounding asymmetry; endpoints become exactly -+1
    return _read_only(z)[0]


def collocation_grid(iv: Interval, N: int) -> np.ndarray:
    """The N Gauss-Lobatto cosine-spaced points over iv.

    lobatto_nodes(N) mapped onto the interval, so the points are exactly
    antisymmetric about the interval midpoint and contain both endpoints
    exactly.
    """
    z = lobatto_nodes(N)
    x = 0.5 * (iv.x0 + iv.xf) + 0.5 * iv.width * z
    x[0] = iv.x0
    x[-1] = iv.xf
    return x
