"""Least-squares solution of hybrid BVPs.

All-linear problems reduce to one least-squares solve of the stacked
collocation system; problems with any nonlinear segment run Gauss-Newton
with the update dXi = lstsq(J, L) at each step.

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
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np
import scipy.linalg

from .assembly import SegmentGrids, SystemMatrices, assemble_all, per_segment, segment_grids
from .expressions import UnknownLayout, segment_block
from .problems import HybridProblem, analytic_value


class DivergenceError(RuntimeError):
    """Gauss-Newton residual grew for too many consecutive iterations."""

    def __init__(self, message: str, trace):
        super().__init__(message)
        self.trace = list(trace)


@dataclass(frozen=True)
class SolveOptions:
    """Knobs for grid size, basis, convergence, and initialization."""

    N: int | tuple = 100
    m: Optional[int | tuple] = None
    family: str = "chebyshev"
    tol: float = 1e-13
    max_iter: int = 50
    init_policy: str = "line"
    init_values: Optional[tuple] = None
    divergence_window: int = 5

    def __post_init__(self):
        if not self.tol > 0:
            raise ValueError("tolerance must be positive")
        if self.max_iter < 1:
            raise ValueError("max_iter must be >= 1")
        if self.init_policy not in ("line", "explicit"):
            raise ValueError("init_policy must be 'line' or 'explicit'")
        if self.divergence_window < 1:
            raise ValueError("divergence_window must be >= 1")


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
    max_abs_err: Optional[float] = None
    errors_by_order: Optional[dict] = None

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

    def evaluate(self, x, d: int = 0):
        """y^(d)(x) anywhere in the domain (junctions use the left segment)."""
        return evaluate_solution(self.problem, self.grids, self.xi, x, d)


def evaluate_solution(problem: HybridProblem, grids: SegmentGrids, xi: np.ndarray, x, d: int = 0):
    """Evaluate the constrained expression defined by Xi at points x.

    A junction point is evaluated with the segment on its left.
    """
    out = _solution_values(problem, grids, xi, x, (d,))[d]
    return float(out[0]) if np.ndim(x) == 0 else out


def evaluate_segment(problem: HybridProblem, grids: SegmentGrids, xi: np.ndarray, k: int,
                     x) -> tuple:
    """(y, y', y'') at points x of segment k (1-based) from segment k's own expression.

    All three orders come from one kernel call.  At a junction this is
    the limit from inside segment k, so y'' takes the value of the
    segment's own ODE there.
    """
    values = _segment_values(problem, grids, xi, k, x, (0, 1, 2))
    return values[0], values[1], values[2]


def _segment_values(problem, grids, xi, k, x, orders) -> dict:
    """{d: y^(d)(x)} for d in orders from one segment_block call on segment k."""
    layout = grids.layout
    blocks = segment_block(grids.specs[k - 1], grids.grids[k - 1].interval, k, layout,
                           problem.y0, problem.yf, x, orders)
    local = np.asarray(xi, dtype=float)[layout.window(k)]
    return {d: coeffs @ local + offsets for d, (coeffs, offsets) in blocks.items()}


def _solution_values(problem, grids, xi, x, orders) -> dict:
    """{d: y^(d)(x)} for d in orders; junction points use the left segment."""
    xs = np.atleast_1d(np.asarray(x, dtype=float))
    seg = problem.segment_of(xs)
    out = {d: np.empty_like(xs) for d in orders}
    for k in range(1, grids.n_segments + 1):
        mask = seg == k - 1
        if np.any(mask):
            for d, values in _segment_values(problem, grids, xi, k, xs[mask], orders).items():
                out[d][mask] = values
    return out


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

    The line policy seeds every junction with the value and slope of the
    straight line joining the two boundary points; the explicit policy
    installs caller-provided (value, slope) pairs.
    """
    layout = grids.layout
    xi = np.zeros(layout.total)
    n = layout.n_segments
    if opts.init_policy == "line":
        x0, xf = problem.break_points[0], problem.break_points[-1]
        slope = (problem.yf - problem.y0) / (xf - x0)
        for j in range(1, n):
            xj = problem.break_points[j]
            xi[layout.junction_value_index(j)] = problem.y0 + slope * (xj - x0)
            xi[layout.junction_slope_index(j)] = slope
        return xi
    values = opts.init_values
    if values is None or len(values) != 2 * (n - 1):
        raise ValueError(f"explicit initial guess needs {2 * (n - 1)} values "
                         f"(value, slope per junction), got {values!r}")
    for j in range(1, n):
        xi[layout.junction_value_index(j)] = float(values[2 * (j - 1)])
        xi[layout.junction_slope_index(j)] = float(values[2 * (j - 1) + 1])
    return xi


# --- solving ----------------------------------------------------------------

def _resolve_grids(problem: HybridProblem, opts: SolveOptions) -> SegmentGrids:
    n = problem.n_segments
    m = opts.m if opts.m is not None else (problem.default_m or 16)
    ms, Ns = per_segment(m, n, "m"), per_segment(opts.N, n, "N")
    for Nk, mk in zip(Ns, ms):
        if Nk < mk + 4:
            raise ValueError(f"need N >= m + 4 collocation points per segment, got N={Nk}, m={mk}")
    return segment_grids(problem.break_points, Ns, ms, opts.family)


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
        x = grids.grids[k - 1].points
        dyn = problem.segments[k - 1]
        state = (x, *system.segment_states(xi, k))
        A = [system.blocks[k - 1][d][0] for d in (0, 1, 2)]
        p0 = np.broadcast_to(np.asarray(dyn.d_y(*state), dtype=float), x.shape)
        p1 = np.broadcast_to(np.asarray(dyn.d_dy(*state), dtype=float), x.shape)
        p2 = np.broadcast_to(np.asarray(dyn.d_d2y(*state), dtype=float), x.shape)
        blocks.append(p0[:, None] * A[0] + p1[:, None] * A[1] + p2[:, None] * A[2])
    return blocks


def _finalize(problem, grids, system, xi, trace, converged, diag, eval_points=1000):
    errors = None
    max_err = None
    if problem.solution is not None:
        errors = dict.fromkeys((0, 1, 2), 0.0)
        for k in range(1, problem.n_segments + 1):
            iv = grids.grids[k - 1].interval
            xs = np.linspace(iv.x0, iv.xf, eval_points)
            approx = _solution_values(problem, grids, xi, xs, (0, 1, 2))
            for d in (0, 1, 2):
                exact = analytic_value(problem, xs, d)
                errors[d] = max(errors[d], float(np.max(np.abs(approx[d] - exact))))
        max_err = max(errors.values())
    return SolveResult(problem=problem, grids=grids, system=system, xi=xi,
                       residual_trace=trace, converged=converged, qr_diagnostic=diag,
                       max_abs_err=max_err, errors_by_order=errors)


def solve_linear(problem: HybridProblem, opts: SolveOptions = SolveOptions()) -> SolveResult:
    """Single least-squares solve; requires every segment linear."""
    if not problem.is_linear:
        raise ValueError("problem has nonlinear segments; use solve_nonlinear")
    grids = _resolve_grids(problem, opts)
    layout = grids.layout
    system = assemble_all(grids, problem.y0, problem.yf)
    blocks = []
    rhs = np.empty(grids.total_points)
    for k in range(1, grids.n_segments + 1):
        x = grids.grids[k - 1].points
        (A0, B0), (A1, B1), (A2, B2) = (system.blocks[k - 1][d] for d in (0, 1, 2))
        a2f, a1f, a0f, ff = problem.segments[k - 1].linear_coeffs
        a2, a1, a0 = (np.broadcast_to(np.asarray(c(x), dtype=float), x.shape) for c in (a2f, a1f, a0f))
        blocks.append(a2[:, None] * A2 + a1[:, None] * A1 + a0[:, None] * A0)
        rhs[grids.row_slice(k)] = ff(x) - (a2 * B2 + a1 * B1 + a0 * B0)
    xi, diag = _scaled_qr_lstsq(blocks, rhs, layout)
    fitted = np.concatenate([M @ xi[layout.window(k)] for k, M in enumerate(blocks, 1)])
    norm = float(np.linalg.norm(fitted - rhs))
    converged = norm <= max(opts.tol, 1e-12 * (1.0 + float(np.linalg.norm(rhs))))
    return _finalize(problem, grids, system, xi, [norm], converged, diag)


def solve_nonlinear(problem: HybridProblem, opts: SolveOptions = SolveOptions()) -> SolveResult:
    """Gauss-Newton iteration with scaled-QR inner solves.

    Stops when the stacked residual 2-norm drops to opts.tol; returns an
    unconverged result at max_iter; raises DivergenceError after
    opts.divergence_window consecutive residual increases.
    """
    grids = _resolve_grids(problem, opts)
    system = assemble_all(grids, problem.y0, problem.yf)
    xi = initial_guess(problem, opts, grids)
    trace: list[float] = []
    diag = QrDiagnostic(grids.layout.total, grids.layout.total, np.nan, False)
    residual = _stacked_residual(problem, grids, system, xi)
    increases = 0
    for _ in range(opts.max_iter):
        J = _jacobian(problem, grids, system, xi)
        dxi, diag = _scaled_qr_lstsq(J, residual, grids.layout)
        xi = xi - dxi
        residual = _stacked_residual(problem, grids, system, xi)
        norm = float(np.linalg.norm(residual))
        if not math.isfinite(norm):
            raise DivergenceError("residual became non-finite", trace + [norm])
        trace.append(norm)
        if norm <= opts.tol:
            return _finalize(problem, grids, system, xi, trace, True, diag)
        if len(trace) >= 2 and trace[-1] > trace[-2]:
            increases += 1
            if increases >= opts.divergence_window:
                raise DivergenceError(
                    f"residual increased for {increases} consecutive iterations", trace)
        else:
            increases = 0
    return _finalize(problem, grids, system, xi, trace, False, diag)


def solve(problem: HybridProblem, opts: SolveOptions = SolveOptions()) -> SolveResult:
    """Dispatch to the linear or Gauss-Newton path by problem structure."""
    if problem.is_linear:
        return solve_linear(problem, opts)
    return solve_nonlinear(problem, opts)
