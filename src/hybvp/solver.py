"""Least-squares solution of hybrid BVPs.

All-linear problems reduce to one least-squares solve of the stacked
collocation system; problems with any nonlinear segment run Gauss-Newton
with the update dXi = lstsq(J, L) at each step.  Least squares is
computed by column-equilibrated QR with column pivoting.

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
from .expressions import segment_block
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
    """Conditioning record of one scaled-QR least-squares solve."""

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
    xs = np.atleast_1d(np.asarray(x, dtype=float))
    seg = problem.segment_of(xs)
    out = np.empty_like(xs)
    for k in range(1, grids.n_segments + 1):
        mask = seg == k - 1
        if np.any(mask):
            out[mask] = evaluate_segment(problem, grids, xi, k, xs[mask], d)
    return float(out[0]) if np.ndim(x) == 0 else out


def evaluate_segment(problem: HybridProblem, grids: SegmentGrids, xi: np.ndarray, k: int,
                     x, d: int = 0) -> np.ndarray:
    """y^(d) at points x of segment k (1-based) from segment k's own expression.

    At a junction this is the limit from inside segment k, so y'' takes
    the value of the segment's own ODE there.
    """
    coeffs, offsets = segment_block(grids.specs[k - 1], grids.grids[k - 1].interval, k,
                                    grids.layout, problem.y0, problem.yf, x, (d,))[d]
    return coeffs @ np.asarray(xi, dtype=float) + offsets


# --- scaled QR least squares ----------------------------------------------

def _scaled_qr_lstsq(M: np.ndarray, b: np.ndarray, rank_rtol: float = 1e-12):
    """Minimize ||M x - b|| by column-equilibrated, column-pivoted QR.

    Columns are scaled to unit 2-norm before factorization (zero or
    negligible columns keep unit scale so rounding noise is never
    amplified).  Columns whose pivoted R diagonal falls below the rank
    tolerance are dropped and their unknowns set to zero (basic
    solution).
    """
    M = np.asarray(M, dtype=float)
    b = np.asarray(b, dtype=float)
    p, q = M.shape
    if p < q:
        raise ValueError(f"system must be square or overdetermined, got {p} rows < {q} columns")
    norms = np.linalg.norm(M, axis=0)
    floor = 1e-10 * (norms.max() if norms.size else 1.0)
    scale = np.where(norms > floor, norms, 1.0)
    Ms = M / scale
    Q, R, piv = scipy.linalg.qr(Ms, mode="economic", pivoting=True)
    diag = np.abs(np.diag(R))
    dmax = diag[0] if diag.size else 0.0
    rank = int(np.count_nonzero(diag > rank_rtol * dmax)) if dmax > 0 else 0
    if rank == 0:
        return np.zeros(q), QrDiagnostic(q, 0, np.inf, True)
    qt_b = Q.T @ b
    w = np.zeros(q)
    w[:rank] = scipy.linalg.solve_triangular(R[:rank, :rank], qt_b[:rank])
    x = np.zeros(q)
    x[piv] = w
    condition = float(diag[0] / diag[rank - 1])
    return x / scale, QrDiagnostic(q, rank, condition, rank < q)


def lstsq_scaled_qr(M: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Least-squares solution of M x = b (see _scaled_qr_lstsq)."""
    x, _ = _scaled_qr_lstsq(M, b)
    return x


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


def _segment_states(system, xi):
    """Per-order stacked evaluations y, y', y'' at all grid points."""
    return tuple(system.evaluate(xi, d) for d in (0, 1, 2))


def _stacked_residual(problem, grids, system, xi):
    y, dy, d2y = _segment_states(system, xi)
    out = np.empty(grids.total_points)
    for k in range(1, grids.n_segments + 1):
        rows = grids.row_slice(k)
        x = grids.grids[k - 1].points
        out[rows] = problem.segments[k - 1].residual(x, y[rows], dy[rows], d2y[rows])
    return out


def _jacobian(problem, grids, system, xi):
    """Chain-rule Jacobian dL/dXi row block per segment."""
    y, dy, d2y = _segment_states(system, xi)
    J = np.zeros((grids.total_points, grids.layout.total))
    for k in range(1, grids.n_segments + 1):
        rows = grids.row_slice(k)
        x = grids.grids[k - 1].points
        dyn = problem.segments[k - 1]
        state = (x, y[rows], dy[rows], d2y[rows])
        p0 = np.broadcast_to(np.asarray(dyn.d_y(*state), dtype=float), x.shape)
        p1 = np.broadcast_to(np.asarray(dyn.d_dy(*state), dtype=float), x.shape)
        p2 = np.broadcast_to(np.asarray(dyn.d_d2y(*state), dtype=float), x.shape)
        J[rows] = (p0[:, None] * system.A[0][rows]
                   + p1[:, None] * system.A[1][rows]
                   + p2[:, None] * system.A[2][rows])
    return J


def _finalize(problem, grids, system, xi, trace, converged, diag, eval_points=1000):
    errors = None
    max_err = None
    if problem.solution is not None:
        errors = {}
        for d in (0, 1, 2):
            worst = 0.0
            for k in range(1, problem.n_segments + 1):
                iv = grids.grids[k - 1].interval
                xs = np.linspace(iv.x0, iv.xf, eval_points)
                approx = evaluate_solution(problem, grids, xi, xs, d)
                exact = analytic_value(problem, xs, d)
                worst = max(worst, float(np.max(np.abs(approx - exact))))
            errors[d] = worst
        max_err = max(errors.values())
    return SolveResult(problem=problem, grids=grids, system=system, xi=xi,
                       residual_trace=trace, converged=converged, qr_diagnostic=diag,
                       max_abs_err=max_err, errors_by_order=errors)


def solve_linear(problem: HybridProblem, opts: SolveOptions = SolveOptions()) -> SolveResult:
    """Single least-squares solve; requires every segment linear."""
    if not problem.is_linear:
        raise ValueError("problem has nonlinear segments; use solve_nonlinear")
    grids = _resolve_grids(problem, opts)
    system = assemble_all(grids, problem.y0, problem.yf)
    M = np.zeros((grids.total_points, grids.layout.total))
    rhs = np.empty(grids.total_points)
    for k in range(1, grids.n_segments + 1):
        rows = grids.row_slice(k)
        x = grids.grids[k - 1].points
        a2f, a1f, a0f, ff = problem.segments[k - 1].linear_coeffs
        a2, a1, a0 = (np.broadcast_to(np.asarray(c(x), dtype=float), x.shape) for c in (a2f, a1f, a0f))
        M[rows] = (a2[:, None] * system.A[2][rows]
                   + a1[:, None] * system.A[1][rows]
                   + a0[:, None] * system.A[0][rows])
        rhs[rows] = ff(x) - (a2 * system.B[2][rows] + a1 * system.B[1][rows] + a0 * system.B[0][rows])
    xi, diag = _scaled_qr_lstsq(M, rhs)
    norm = float(np.linalg.norm(M @ xi - rhs))
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
        dxi, diag = _scaled_qr_lstsq(J, residual)
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
