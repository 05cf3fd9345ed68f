"""Per-segment system blocks over per-segment collocation grids.

For a geometry of n segments the evaluations of y^(d) at the grid
points of segment k are y^(d) = A_k^(d) Xi[window(k)] + B_k^(d).  The
stacked A^(d) is block sparse: segment k's rows touch only the unknowns
of its window, its own basis coefficients and the junction unknowns at
its ends.  Only the blocks A_k^(d), one column per window unknown, are
stored.  Each block is built from segment k's Grid, so its basis
tables come from the reference tables cached per (family, m, N) and a
second assembly of the same sizes runs no basis recurrence.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import accumulate
from typing import Sequence

import numpy as np

from .basis import BasisSpec, Grid, Interval, collocation_grid
from .expressions import UnknownLayout, segment_block


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

    blocks[k-1][d] is the pair for segment k: A_k^(d) has shape
    (N_k, width of layout.window(k)).
    """

    blocks: tuple[dict, ...]
    grids: SegmentGrids

    @property
    def layout(self) -> UnknownLayout:
        return self.grids.layout

    def segment_states(self, xi: np.ndarray, k: int) -> tuple:
        """y, y', y'' at segment k's grid points for a given Xi."""
        local = np.asarray(xi, dtype=float)[self.layout.window(k)]
        return tuple(A @ local + B for A, B in (self.blocks[k - 1][d] for d in (0, 1, 2)))


def assemble_all(grids: SegmentGrids, y0: float, yf: float) -> SystemMatrices:
    """Per-segment (A_k^(d), B_k^(d)) for d = 0, 1, 2, one segment_block call per segment grid."""
    layout = grids.layout
    blocks = tuple(segment_block(spec, grid.interval, k, layout, y0, yf, grid)
                   for k, (grid, spec) in enumerate(zip(grids.grids, grids.specs), 1))
    return SystemMatrices(blocks=blocks, grids=grids)
