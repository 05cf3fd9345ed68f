"""Stacked system matrices over per-segment collocation grids.

For a geometry of n segments the evaluations of y^(d) at all grid points
form y^(d) = A^(d) Xi + B^(d).  A^(d) is block sparse: each segment's
rows touch only its own basis coefficients and the junction unknowns at
its ends, every other entry is exactly 0.0 by construction.
"""

from __future__ import annotations

from dataclasses import dataclass
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

    @property
    def layout(self) -> UnknownLayout:
        return UnknownLayout(ms=tuple(s.m for s in self.specs))

    @property
    def total_points(self) -> int:
        return sum(g.n for g in self.grids)

    @property
    def all_points(self) -> np.ndarray:
        return np.concatenate([g.points for g in self.grids])

    def row_slice(self, k: int) -> slice:
        """Row range of segment k (1-based) in the stacked system."""
        start = sum(g.n for g in self.grids[: k - 1])
        return slice(start, start + self.grids[k - 1].n)


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
    """A^(d) and B^(d) for d = 0, 1, 2 over one geometry."""

    A: tuple[np.ndarray, np.ndarray, np.ndarray]
    B: tuple[np.ndarray, np.ndarray, np.ndarray]
    grids: SegmentGrids

    @property
    def layout(self) -> UnknownLayout:
        return self.grids.layout

    def evaluate(self, xi: np.ndarray, d: int = 0) -> np.ndarray:
        """y^(d) at every stacked grid point for a given Xi."""
        return self.A[d] @ np.asarray(xi, dtype=float) + self.B[d]


def assemble_all(grids: SegmentGrids, y0: float, yf: float) -> SystemMatrices:
    """Stacked (A^(d), B^(d)) for d = 0, 1, 2, one segment_block call per segment."""
    layout = grids.layout
    A = tuple(np.zeros((grids.total_points, layout.total)) for _ in range(3))
    B = tuple(np.zeros(grids.total_points) for _ in range(3))
    for k in range(1, grids.n_segments + 1):
        grid = grids.grids[k - 1]
        rows = grids.row_slice(k)
        blocks = segment_block(grids.specs[k - 1], grid.interval, k, layout, y0, yf, grid.points)
        for d, (coeffs, offsets) in blocks.items():
            A[d][rows] = coeffs
            B[d][rows] = offsets
    return SystemMatrices(A=A, B=B, grids=grids)
