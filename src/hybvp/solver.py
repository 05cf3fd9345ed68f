"""Least-squares solution of hybrid BVPs.

One Gauss-Newton loop, Xi <- Xi - lstsq(J, L) for the stacked residual
L and its Jacobian J, solves every problem.  When every segment is
linear, L is affine in Xi, so one step from Xi = 0 is the least-squares
solution: the loop takes that step and is converged when ||L|| <=
max(tol, 1e-12 (1 + ||L(0)||)).  Otherwise it starts from the junction
seeds, stops when ||L|| <= tol, returns unconverged after max_iter
steps and raises DivergenceError after DIVERGENCE_WINDOW consecutive
residual increases.  A non-finite residual, the starting one included,
raises DivergenceError.

Segment k's rows touch only the unknowns of its window: its own
coefficients and the (value, slope) pairs of the junctions at its ends.
The system is stored and solved one segment at a time (block
elimination of a block-angular least-squares problem, as in Bjorck,
Numerical Methods for Least Squares Problems, 1996).  After column
equilibration, a pivoted QR of each segment's own columns eliminates
its coefficients; what is left is a block-bidiagonal system in the
junction pairs, solved by a sequential QR sweep one pair at a time.
Time and memory are linear in the number of segments.

The expressions already skip the basis directions that the constraint
support reproduces, so the built-in problems give full-rank systems.
The rank tolerance stays as a guard for user problems that are not: ODE
coefficients that annihilate a basis direction on the grid, or m so
large that columns agree to rounding.  Columns it drops get zero
coefficients (the basic solution), and the diagnostic flags the solve
as rank deficient.

A solved segment is its constrained expression with Xi folded in: the
free series g with the solved coefficients, corrected by the switching
functions on the functionals the segment pins.  SolveResult builds it,
and the closed-form errors, on first use, so solve does no evaluation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Optional

import numpy as np
import scipy.linalg

from .assembly import SegmentGrids, SystemMatrices, assemble_all, per_segment, segment_grids
from .basis import MAX_DERIVATIVE, SERIES, map_point
from .expressions import UnknownLayout, segment_constraints
from .problems import HybridProblem, analytic_value
from .switching import switching_functions


class DivergenceError(RuntimeError):
    """The residual became non-finite or grew DIVERGENCE_WINDOW times in a row."""

    def __init__(self, message: str, trace):
        super().__init__(message)
        self.trace = list(trace)


@dataclass(frozen=True)
class SolveOptions:
    """Grid size, basis, convergence and starting point of a solve.

    N and m (a scalar or one value per segment; m defaults to the
    problem's default_m, else 16) size each segment's grid and basis.
    The solve converges when the residual 2-norm drops to tol, raised to
    1e-12 (1 + ||L(0)||) on an all-linear problem, which takes one step
    from Xi = 0.  Otherwise it takes up to max_iter steps from
    init_values, one (value, slope) pair per junction, or from the
    straight line between the boundary values when they are None.
    """

    N: int | tuple = 100
    m: Optional[int | tuple] = None
    family: str = "chebyshev"
    tol: float = 1e-13
    max_iter: int = 50
    init_values: Optional[tuple] = None

    def __post_init__(self):
        if not self.tol > 0:
            raise ValueError("tolerance must be positive")
        if self.max_iter < 1:
            raise ValueError("max_iter must be >= 1")


@dataclass(frozen=True)
class QrDiagnostic:
    """Conditioning record of one block-elimination least-squares solve.

    columns is the number of unknowns.  rank counts the R diagonals kept
    by the rank guard over every factor of the solve: each segment's
    local QR and each junction pair's QR.  condition is the largest kept
    R diagonal over the smallest, across all of those factors.  It
    measures the conditioning of the eliminated blocks, not of the
    whole system, so it is not comparable with the estimate of a single
    dense pivoted QR of the stacked matrix (on a 64-segment chain it
    reads about 24 where the dense estimate read about 460).
    rank_deficient is rank < columns.
    """

    columns: int
    rank: int
    condition: float
    rank_deficient: bool


@dataclass
class SolveResult:
    """Converged (or final) state of a solve, with evaluation support."""

    problem: HybridProblem
    grids: SegmentGrids
    system: SystemMatrices
    xi: np.ndarray
    residual_trace: list
    converged: bool
    qr_diagnostic: QrDiagnostic

    @property
    def iterations(self) -> int:
        return len(self.residual_trace)

    @property
    def residual_norm(self) -> float:
        return self.residual_trace[-1]

    @property
    def junctions(self) -> list:
        """(x_k, y_k, y'_k) for every junction, straight from Xi."""
        layout = self.grids.layout
        out = []
        for j in range(1, layout.n_segments):
            out.append((self.problem.break_points[j],
                        float(self.xi[layout.junction_value_index(j)]),
                        float(self.xi[layout.junction_slope_index(j)])))
        return out

    def segment_coefficients(self, k: int) -> np.ndarray:
        """Basis coefficients of segment k, 1-based."""
        return self.xi[self.grids.layout.xi_slice(k)]

    @cached_property
    def _series(self) -> tuple:
        """Per segment: pinned functionals, g^(d) for d = 0..2, phi and kappa.

        g is [0] * skip + xi_k; phi is g on each pinned functional, at z = +-1.
        """
        out = []
        for k, spec in enumerate(self.grids.specs, 1):
            constraints = segment_constraints(k, self.grids.layout, self.problem.y0, self.problem.yf)
            val, der = SERIES[spec.family]
            series = [np.concatenate([np.zeros(len(constraints)), self.segment_coefficients(k)])]
            while len(series) <= MAX_DERIVATIVE:
                series.append(der(series[-1], 1, scl=spec.c))
            ends = [val([-1.0, 1.0], g) for g in series[:2]]  # g and g' at z = -1, +1
            out.append(([(con.order, con.end) for con in constraints], series,
                        np.array([ends[con.order][con.end] for con in constraints]),
                        np.array([con.value if con.column is None else self.xi[con.column]
                                  for con in constraints])))
        return tuple(out)

    def segment_values(self, k: int, x, d: int = 0) -> np.ndarray:
        """y^(d) = (g^(d) - S_d phi) + S_d kappa at points x of segment k (1-based).

        S_d are the switching functions of the pinned values kappa.  Where
        one of order d is pinned, z is exactly +-1 and the S_d row an exact
        delta, so the bracket is 0 and kappa comes back bit for bit.  At a
        junction this is the limit from inside segment k.
        """
        if not 1 <= k <= self.grids.n_segments:
            raise ValueError(f"segment index {k} out of range 1..{self.grids.n_segments}")
        if d not in range(MAX_DERIVATIVE + 1):
            raise ValueError(f"derivative order must be 0..{MAX_DERIVATIVE}, got {d!r}")
        functionals, series, phi, kappa = self._series[k - 1]
        iv = self.grids.grids[k - 1].interval
        x = np.atleast_1d(np.asarray(x, dtype=float))
        z = map_point(iv, x, f"segment {k} x")
        S = switching_functions(functionals, iv, x, (d,))[d]
        return (SERIES[self.grids.specs[k - 1].family][0](z, series[d]) - S @ phi) + S @ kappa

    def evaluate(self, x, d: int = 0):
        """y^(d)(x) anywhere in the domain (junctions use the left segment)."""
        xs = np.asarray(x, dtype=float)
        flat = xs.ravel()
        seg = self.problem.segment_of(flat)
        order = np.argsort(seg, kind="stable")
        cuts = np.searchsorted(seg[order], range(1, self.grids.n_segments))
        out = np.empty_like(flat)
        for k, at in enumerate(np.split(order, cuts), 1):
            if at.size:
                out[at] = self.segment_values(k, flat[at], d)
        return float(out[0]) if xs.ndim == 0 else out.reshape(xs.shape)

    @cached_property
    def errors_by_order(self) -> Optional[dict]:
        """{d: max |y^(d) - exact|} for d = 0..2, or None without a closed form.

        Over 1,000 points per segment, ends included; junctions use the left segment.
        """
        if self.problem.solution is None:
            return None
        errors = dict.fromkeys(range(MAX_DERIVATIVE + 1), 0.0)
        for grid in self.grids.grids:
            xs = np.linspace(grid.interval.x0, grid.interval.xf, 1000)
            for d in errors:
                err = np.max(np.abs(self.evaluate(xs, d) - analytic_value(self.problem, xs, d)))
                errors[d] = max(errors[d], float(err))
        return errors

    @cached_property
    def max_abs_err(self) -> Optional[float]:
        """Largest of errors_by_order, or None without a closed form."""
        return None if self.errors_by_order is None else max(self.errors_by_order.values())


# --- block-structured least squares ----------------------------------------

def _lapack_ok(name: str, info: int):
    if info != 0:
        raise RuntimeError(f"LAPACK {name} failed with info={info}")


def _eliminate(lead: np.ndarray, rest: np.ndarray, rank_rtol: float):
    """Pivoted QR of the lead columns, with Q^T applied to the rest columns.

    Returns the pivot order, the kept diagonals |R_ii| > rank_rtol, the
    kept block of R, the kept rows of Q^T rest and the rows below them,
    which no longer involve the lead columns.
    """
    if lead.shape[0] == 0:
        return np.arange(lead.shape[1]), np.zeros(0), np.zeros((0, 0)), rest, rest
    # LAPACK directly: the scipy.linalg wrappers cost several times the
    # factorization of these small blocks
    qr, jpvt, tau, _, info = scipy.linalg.lapack.dgeqp3(lead)
    _lapack_ok("dgeqp3", info)
    diag = np.abs(np.diag(qr))
    rank = int(np.count_nonzero(diag > rank_rtol))
    rest, _, info = scipy.linalg.lapack.dormqr("L", "T", qr[:, :tau.size], tau, rest,
                                               lwork=max(1, rest.shape[1]))
    _lapack_ok("dormqr", info)
    # dtrtrs reads only the upper triangle of R
    return jpvt - 1, diag[:rank], qr[:rank, :rank], rest[:rank], rest[rank:]


def _back_substitute(R: np.ndarray, piv: np.ndarray, z: np.ndarray, size: int) -> np.ndarray:
    """Unknowns in pivot order piv: R w = z for the kept ones, 0 for the dropped."""
    out = np.zeros(size)
    if R.size:
        w, info = scipy.linalg.lapack.dtrtrs(R, z)
        _lapack_ok("dtrtrs", info)
        out[piv[:R.shape[0]]] = w
    return out


def _scaled_qr_lstsq(blocks, rhs: np.ndarray, layout: UnknownLayout, rank_rtol: float = 1e-12):
    """Minimize ||M Xi - rhs|| for the block-structured M by block elimination.

    blocks[k-1] holds segment k's rows of M over layout.window(k); rhs is
    stacked in segment order.  Columns are scaled to unit 2-norm over all
    of their rows first (zero or negligible columns keep unit scale so
    rounding noise is never amplified).  Then each segment's own
    coefficients are eliminated by a pivoted QR of its local columns,
    which leaves a block-bidiagonal system in the junction pairs; a
    sequential QR sweep solves it one pair at a time, carrying at most
    two rows into the next pair, so the cost is linear in the number of
    segments.  In every R factor, pivots with |R_ii| <= rank_rtol (the
    unit column scale) are dropped and their unknowns set to zero (the
    basic solution).
    """
    n = layout.n_segments
    rhs = np.asarray(rhs, dtype=float)
    starts = np.cumsum([0] + [block.shape[0] for block in blocks])
    for k, block in enumerate(blocks, 1):
        if block.shape[0] < layout.ms[k - 1]:
            raise ValueError(f"segment {k}: {block.shape[0]} rows < {layout.ms[k - 1]} "
                             "local columns, the system must be square or overdetermined")
    q = layout.total
    if starts[-1] < q:
        raise ValueError(f"system must be square or overdetermined, got {starts[-1]} rows < {q} columns")
    squares = np.zeros(q)
    for k, block in enumerate(blocks, 1):
        squares[layout.window(k)] += np.einsum("ij,ij->j", block, block)
    norms = np.sqrt(squares)
    floor = 1e-10 * norms.max()
    scale = np.where(norms > floor, norms, 1.0)

    kept = []  # kept R diagonals of every factor
    local, junction = [], []
    carry = None  # rows in (J_j, rhs) left over from the segments before junction j
    for k, block in enumerate(blocks, 1):
        scaled = block / scale[layout.window(k)]
        own = layout.own_in_window(k)
        # rest columns: the junction pairs (left, right), then rhs
        rest = np.concatenate([scaled[:, :own.start], scaled[:, own.stop:],
                               rhs[starts[k - 1]:starts[k], None]], axis=1)
        piv, diag, R, top, below = _eliminate(scaled[:, own], rest, rank_rtol)
        kept.append(diag)
        local.append((piv, R, top))
        if k == 1:
            carry = below
            continue
        # rows in (J_{k-1}, [J_k,] rhs); the carried rows have no J_k part
        stacked = np.zeros((carry.shape[0] + below.shape[0], below.shape[1]))
        stacked[:carry.shape[0], :2] = carry[:, :2]
        stacked[:carry.shape[0], -1] = carry[:, -1]
        stacked[carry.shape[0]:] = below
        piv, diag, R, top, carry = _eliminate(stacked[:, :2], stacked[:, 2:], rank_rtol)
        kept.append(diag)
        junction.append((piv, R, top))
        if k < n and carry.shape[0] > 2:
            # only the first two rows of the triangularized carry involve
            # J_k; the others hold residual alone
            qr, _, _, info = scipy.linalg.lapack.dgeqrf(carry)
            _lapack_ok("dgeqrf", info)
            carry = qr[:2]
            carry[1, 0] = 0.0

    xi = np.zeros(q)
    for k in range(n, 1, -1):
        piv, R, top = junction[k - 2]
        right = xi[layout.window(k)][layout.own_in_window(k).stop:]  # J_k, none for k = n
        j = layout.junction_value_index(k - 1)
        xi[j:j + 2] = _back_substitute(R, piv, top[:, -1] - top[:, :-1] @ right, 2)
    for k, (piv, R, top) in enumerate(local, 1):
        near, own = xi[layout.window(k)], layout.own_in_window(k)
        pairs = np.concatenate([near[:own.start], near[own.stop:]])
        xi[layout.xi_slice(k)] = _back_substitute(R, piv, top[:, -1] - top[:, :-1] @ pairs,
                                                  layout.ms[k - 1])
    xi /= scale

    diag = np.concatenate(kept)
    rank = diag.size
    condition = float(diag.max() / diag.min()) if rank else np.inf
    return xi, QrDiagnostic(q, rank, condition, rank < q)


# --- initialization ---------------------------------------------------------

def initial_guess(problem: HybridProblem, opts: SolveOptions, grids: SegmentGrids) -> np.ndarray:
    """Starting Xi: zero basis coefficients plus junction seeds.

    Without opts.init_values every junction is seeded with the value and
    slope of the straight line joining the two boundary points; with
    them, each junction gets its given (value, slope) pair.
    """
    layout = grids.layout
    xi = np.zeros(layout.total)
    n = layout.n_segments
    values = opts.init_values
    if values is None:
        x0, xf = problem.break_points[0], problem.break_points[-1]
        slope = (problem.yf - problem.y0) / (xf - x0)
        values = [v for xj in problem.break_points[1:-1]
                  for v in (problem.y0 + slope * (xj - x0), slope)]
    elif len(values) != 2 * (n - 1):
        raise ValueError(f"explicit initial guess needs {2 * (n - 1)} values "
                         f"(value, slope per junction), got {values!r}")
    for j in range(1, n):
        xi[layout.junction_value_index(j)] = float(values[2 * (j - 1)])
        xi[layout.junction_slope_index(j)] = float(values[2 * (j - 1) + 1])
    return xi


# --- solving ----------------------------------------------------------------

# consecutive residual increases after which Gauss-Newton gives up
DIVERGENCE_WINDOW = 5


def resolve_sizes(problem: HybridProblem, opts: SolveOptions) -> tuple:
    """Per-segment (N_k, ...) and (m_k, ...) that a solve of problem with opts uses."""
    n = problem.n_segments
    m = opts.m if opts.m is not None else (problem.default_m or 16)
    Ns, ms = per_segment(opts.N, n, "N"), per_segment(m, n, "m")
    for Nk, mk in zip(Ns, ms):
        if Nk < mk + 4:
            raise ValueError(f"need N >= m + 4 collocation points per segment, got N={Nk}, m={mk}")
    return Ns, ms


def _resolve_grids(problem: HybridProblem, opts: SolveOptions) -> SegmentGrids:
    return segment_grids(problem.break_points, *resolve_sizes(problem, opts), opts.family)


def _stacked_residual(problem, grids, system, xi):
    out = np.empty(grids.total_points)
    for k in range(1, grids.n_segments + 1):
        out[grids.row_slice(k)] = problem.segments[k - 1].residual(
            grids.grids[k - 1].points, *system.segment_states(xi, k))
    return out


def _jacobian(problem, grids, system, xi):
    """Chain-rule Jacobian dL/dXi as one block per segment over its window."""
    blocks = []
    for k in range(1, grids.n_segments + 1):
        x, dx = grids.grids[k - 1].points, grids.grids[k - 1].interval.width
        dyn = problem.segments[k - 1]
        state = (x, *system.segment_states(xi, k))
        (R0, R1, R2), scales, _ = system.segments[k - 1]
        p0 = np.broadcast_to(np.asarray(dyn.d_y(*state), dtype=float), x.shape)
        p1 = np.broadcast_to(np.asarray(dyn.d_dy(*state), dtype=float), x.shape) / dx
        p2 = np.broadcast_to(np.asarray(dyn.d_d2y(*state), dtype=float), x.shape) / dx ** 2
        # A^(d) = R_d diag(dx**(p - d)), and scales[0] is dx**p
        blocks.append((p0[:, None] * R0 + p1[:, None] * R1 + p2[:, None] * R2) * scales[0])
    return blocks


def solve(problem: HybridProblem, opts: SolveOptions = SolveOptions()) -> SolveResult:
    """Gauss-Newton iteration with block-elimination least-squares steps.

    One step from Xi = 0 when every segment is linear, else up to
    opts.max_iter steps from initial_guess; the stopping rules are in
    the module docstring.
    """
    grids = _resolve_grids(problem, opts)
    system = assemble_all(grids, problem.y0, problem.yf)
    if problem.is_linear:
        xi, max_iter = np.zeros(grids.layout.total), 1
    else:
        xi, max_iter = initial_guess(problem, opts, grids), opts.max_iter
    residual = _stacked_residual(problem, grids, system, xi)
    start = float(np.linalg.norm(residual))
    if not math.isfinite(start):
        raise DivergenceError("starting residual is non-finite", [])
    tol = max(opts.tol, 1e-12 * (1.0 + start)) if problem.is_linear else opts.tol
    trace: list[float] = []
    for _ in range(max_iter):
        J = _jacobian(problem, grids, system, xi)
        dxi, diag = _scaled_qr_lstsq(J, residual, grids.layout)
        xi = xi - dxi
        residual = _stacked_residual(problem, grids, system, xi)
        norm = float(np.linalg.norm(residual))
        if not math.isfinite(norm):
            raise DivergenceError("residual became non-finite", trace + [norm])
        trace.append(norm)
        if norm <= tol:
            break
        rising = trace[-DIVERGENCE_WINDOW - 1:]
        if len(rising) > DIVERGENCE_WINDOW and all(a < b for a, b in zip(rising, rising[1:])):
            raise DivergenceError(
                f"residual increased for {DIVERGENCE_WINDOW} consecutive iterations", trace)
    return SolveResult(problem=problem, grids=grids, system=system, xi=xi, residual_trace=trace,
                       converged=norm <= tol, qr_diagnostic=diag)
