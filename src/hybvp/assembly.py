"""One geometry discretized: per-segment collocation points and system blocks.

assemble_all is the one call that discretizes a geometry.  For n
segments the evaluations of y^(d) at the Gauss-Lobatto points of
segment k are y^(d) = A_k^(d) Xi[window(k)] + B_k^(d).  The stacked
A^(d) is block sparse: segment k's rows touch only the unknowns of its
window, its own basis coefficients and the junction unknowns at its
ends.  A_k^(d) is never stored: it is the reference block of segment
k's role (expressions.reference_block, cached per role, family, m and N)
with its columns scaled by powers of the segment width, so a second
assembly of the same sizes evaluates no basis at all.  The role (first,
last, both or neither) is worked out here, once per segment, and with it
the segment's window of Xi (expressions.segment_role) and the
functionals it pins: segment k+1's window starts at the junction pair
that ends segment k's.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import accumulate
from typing import Sequence

import numpy as np

from .basis import Interval, collocation_grid
from .expressions import Role, reference_block, reference_bounds, segment_role


def per_segment(value, n: int, name: str) -> tuple[int, ...]:
    """A scalar repeated for n segments, or one value per segment, as a tuple.

    The values are sizes that SolveOptions has already checked; a count
    other than n raises ValueError naming them as name.
    """
    if n < 1:
        raise ValueError("need at least one segment")
    values = (value,) * n if np.ndim(value) == 0 else tuple(value)
    if len(values) != n:
        raise ValueError(f"{name}: expected {n} per-segment values, got {len(values)}")
    return values


@dataclass(frozen=True)
class SystemMatrices:
    """Per-segment points and (A_k^(d), B_k^(d)) for d = 0, 1, 2 over one geometry.

    Segment k (1-based) spans intervals[k-1] with its collocation points
    points[k-1], its unknowns are Xi[windows[k-1]], laid out as
    roles[k-1] says, and segments[k-1] is (R, s, B, bounds): A_k^(d) =
    R[d] * s[d], where R[d] is shared by the segments of k's role and
    s[d] holds one scale per column of the window, B_k^(d) = B[d], and
    bounds is the role's reference_bounds.  family names the basis and
    boundary is (y0, yf).
    """

    family: str
    intervals: tuple[Interval, ...]
    points: tuple[np.ndarray, ...]
    segments: tuple[tuple, ...]
    windows: tuple[slice, ...]
    roles: tuple[Role, ...]
    boundary: tuple[float, float]

    @property
    def n_segments(self) -> int:
        return len(self.windows)

    @property
    def total(self) -> int:
        """Length of Xi."""
        return self.windows[-1].stop

    @cached_property
    def _row_starts(self) -> tuple[int, ...]:
        return tuple(accumulate((x.size for x in self.points), initial=0))

    @property
    def total_points(self) -> int:
        return self._row_starts[-1]

    def row_slice(self, k: int) -> slice:
        """Row range of segment k (1-based) in the stacked system."""
        return slice(self._row_starts[k - 1], self._row_starts[k])

    def segment_states(self, xi: np.ndarray, k: int) -> tuple:
        """y, y', y'' at segment k's grid points for a given Xi."""
        R, s, B, _ = self.segments[k - 1]
        local = np.asarray(xi, dtype=float)[self.windows[k - 1]]
        return tuple(R[d] @ (local * s[d]) + B[d] for d in (0, 1, 2))

    def segment_magnitudes(self, xi: np.ndarray, k: int) -> np.ndarray:
        """|A_k^(d)| |Xi[windows[k-1]]| + |E_d| |(y0, yf)| / dx**d as row d of a (3, N_k) array.

        E_d are the offset columns of the role's reference block, so the
        last term is |B_k^(d)| on every segment that pins at most one
        boundary value, and bounds it on a single segment, which pins both.
        """
        _, s, _, bounds = self.segments[k - 1]
        local = np.abs(np.asarray(xi, dtype=float)[self.windows[k - 1]])
        # s[0] is dx**p: row block d of bounds then gives dx**d times the sum
        rows = bounds @ np.concatenate([local * s[0], np.abs(self.boundary)])
        rows = rows.reshape(3, -1)
        dx = self.intervals[k - 1].width
        rows[1] /= dx
        rows[2] /= dx * dx
        return rows


def assemble_all(break_points: Sequence[float], N, m, family: str, y0: float,
                 yf: float) -> SystemMatrices:
    """Discretize the segments between break points, each from its role's reference block.

    N and m may be scalars (uniform) or one value per segment; family is
    one of basis.FAMILIES, which SolveOptions checks.
    """
    bp = [float(b) for b in break_points]
    n = len(bp) - 1
    Ns, ms = per_segment(N, n, "N"), per_segment(m, n, "m")
    boundary = np.array([y0, yf], dtype=float)
    intervals, points, segments, windows, roles = [], [], [], [], []
    start = 0
    for k in range(1, n + 1):
        iv = Interval(bp[k - 1], bp[k])
        first, last = k == 1, k == n
        key = (family, ms[k - 1], Ns[k - 1], first, last)
        role = segment_role(ms[k - 1], first, last)
        R, E, p = reference_block(*key)
        dx = iv.width
        intervals.append(iv)
        points.append(collocation_grid(iv, Ns[k - 1]))
        offsets = tuple(E[d] @ boundary / dx ** d for d in (0, 1, 2))
        segments.append((R, tuple(dx ** (p - d) for d in (0, 1, 2)), offsets, reference_bounds(*key)))
        windows.append(slice(start, start + role.width))
        roles.append(role)
        start += role.width - 2  # the next window starts at the junction pair that ends this one
    return SystemMatrices(family, tuple(intervals), tuple(points), tuple(segments), tuple(windows),
                          tuple(roles), (float(y0), float(yf)))
