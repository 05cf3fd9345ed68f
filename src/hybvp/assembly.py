"""Per-segment system blocks over per-segment collocation grids.

For a geometry of n segments the evaluations of y^(d) at the grid
points of segment k are y^(d) = A_k^(d) Xi[window(k)] + B_k^(d).  The
stacked A^(d) is block sparse: segment k's rows touch only the unknowns
of its window, its own basis coefficients and the junction unknowns at
its ends.  A_k^(d) is never stored: it is the reference block of
segment k's role (expressions.reference_block, cached per role, family,
m and N) with its columns scaled by powers of the segment width, so a
second assembly of the same sizes evaluates no basis at all.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import accumulate
from typing import Sequence

import numpy as np

from .basis import BasisSpec, Grid, Interval, collocation_grid
from .expressions import UnknownLayout, reference_block, reference_bounds


def per_segment(value, n: int, name: str) -> tuple[int, ...]:
    """A scalar repeated for n segments, or one value per segment, as ints."""
    if n < 1:
        raise ValueError("need at least one segment")
    values = (int(value),) * n if np.isscalar(value) else tuple(int(v) for v in value)
    if len(values) != n:
        raise ValueError(f"{name}: expected {n} per-segment values, got {len(values)}")
    return values


@dataclass(frozen=True)
class SegmentGrids:
    """Per-segment collocation grids with their bound basis specs."""

    grids: tuple[Grid, ...]
    specs: tuple[BasisSpec, ...]

    def __post_init__(self):
        if len(self.grids) != len(self.specs) or not self.grids:
            raise ValueError("need one basis spec per grid")
        for left, right in zip(self.grids, self.grids[1:]):
            if left.interval.xf != right.interval.x0:
                raise ValueError("consecutive grids must share the junction abscissa")

    @property
    def n_segments(self) -> int:
        return len(self.grids)

    @cached_property
    def layout(self) -> UnknownLayout:
        return UnknownLayout(ms=tuple(s.m for s in self.specs))

    @cached_property
    def _row_starts(self) -> tuple[int, ...]:
        return tuple(accumulate((g.n for g in self.grids), initial=0))

    @property
    def total_points(self) -> int:
        return self._row_starts[-1]

    def row_slice(self, k: int) -> slice:
        """Row range of segment k (1-based) in the stacked system."""
        return slice(self._row_starts[k - 1], self._row_starts[k])


def segment_grids(break_points: Sequence[float], N, m, family: str = "chebyshev") -> SegmentGrids:
    """Build grids and basis specs from break points.

    N and m may be scalars (uniform) or one value per segment.
    """
    bp = [float(b) for b in break_points]
    if len(bp) < 2:
        raise ValueError("need at least two break points")
    if any(b >= c for b, c in zip(bp, bp[1:])):
        raise ValueError("break points must be strictly increasing")
    n = len(bp) - 1
    Ns, ms = per_segment(N, n, "N"), per_segment(m, n, "m")
    grids, specs = [], []
    for k in range(n):
        iv = Interval(bp[k], bp[k + 1])
        grids.append(collocation_grid(iv, Ns[k]))
        specs.append(BasisSpec.for_interval(family, ms[k], iv))
    return SegmentGrids(grids=tuple(grids), specs=tuple(specs))


@dataclass(frozen=True)
class SystemMatrices:
    """Per-segment (A_k^(d), B_k^(d)) for d = 0, 1, 2 over one geometry.

    segments[k-1] is (R, s, B): A_k^(d) = R[d] * s[d], where R[d] is
    shared by the segments of k's role and s[d] holds one scale per
    column of layout.window(k), and B_k^(d) = B[d].  boundary is
    (y0, yf).
    """

    segments: tuple[tuple, ...]
    grids: SegmentGrids
    boundary: tuple[float, float]

    @property
    def layout(self) -> UnknownLayout:
        return self.grids.layout

    def block(self, k: int, d: int) -> tuple:
        """(A_k^(d), B_k^(d)) of segment k, A as a new (N_k, window width) array."""
        R, s, B = self.segments[k - 1]
        return R[d] * s[d], B[d]

    def segment_states(self, xi: np.ndarray, k: int) -> tuple:
        """y, y', y'' at segment k's grid points for a given Xi."""
        R, s, B = self.segments[k - 1]
        local = np.asarray(xi, dtype=float)[self.layout.window(k)]
        return tuple(R[d] @ (local * s[d]) + B[d] for d in (0, 1, 2))

    def segment_magnitudes(self, xi: np.ndarray, k: int) -> np.ndarray:
        """|A_k^(d)| |Xi[window(k)]| + |E_d| |(y0, yf)| / dx**d as row d of a (3, N_k) array.

        E_d are the offset columns of the role's reference block, so the
        last term is |B_k^(d)| on every segment that pins at most one
        boundary value, and bounds it on a single segment, which pins both.
        """
        grid, spec = self.grids.grids[k - 1], self.grids.specs[k - 1]
        bounds = reference_bounds(spec.family, spec.m, grid.n, k == 1, k == self.grids.n_segments)
        local = np.abs(np.asarray(xi, dtype=float)[self.layout.window(k)])
        # s[0] is dx**p: row block d of bounds then gives dx**d times the sum
        rows = bounds @ np.concatenate([local * self.segments[k - 1][1][0], np.abs(self.boundary)])
        rows = rows.reshape(3, grid.n)
        dx = grid.interval.width
        rows[1] /= dx
        rows[2] /= dx * dx
        return rows


def assemble_all(grids: SegmentGrids, y0: float, yf: float) -> SystemMatrices:
    """Per-segment (A_k^(d), B_k^(d)) for d = 0, 1, 2, from each segment role's reference block."""
    n, boundary = grids.n_segments, np.array([y0, yf], dtype=float)
    segments = []
    for k, (grid, spec) in enumerate(zip(grids.grids, grids.specs), 1):
        R, E, p = reference_block(spec.family, spec.m, grid.n, k == 1, k == n)
        dx = grid.interval.width
        segments.append((R, tuple(dx ** (p - d) for d in (0, 1, 2)),
                         tuple(E[d] @ boundary / dx ** d for d in (0, 1, 2))))
    return SystemMatrices(tuple(segments), grids, (float(y0), float(yf)))
