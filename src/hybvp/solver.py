"""Least-squares solution of hybrid BVPs.

One Gauss-Newton loop, Xi <- Xi - lstsq(J, L) for the stacked residual
L and its Jacobian J, solves every problem from the junction seeds.
On an all-linear problem L is affine in Xi, so the first step lands on
the least-squares solution up to solve error.  After every step the
solve stops as converged when ||L|| <= max(tol, F), where

    F = eps ||sum_d |dL/dy^(d)| (|A_k^(d)| |Xi_window| + |B_k^(d)|)||,

stacked over all rows, is the rounding floor of L at the iterate being
tested (the stopping tests of Dennis & Schnabel, Numerical Methods for
Unconstrained Optimization and Nonlinear Equations, 1983).  F scales
with L, and it grows with the number of segments, where an absolute tol
alone cannot be met.  Otherwise a step that changed ||L|| by no more
than a finite F is a stall at a least-squares minimum whose residual is
discretization error, and the loop returns unconverged: an
under-resolved problem ends in a few steps, a linear one in two.  It
also returns unconverged after max_iter steps, and raises
DivergenceError after DIVERGENCE_WINDOW consecutive residual increases
or on a non-finite residual, the starting one included.
SolveResult.tolerance is the threshold the last step was tested against.

A solve discretizes its geometry once (assembly.assemble_all): one
SystemMatrices holds every segment's points, interval and blocks, with
each segment's role, and so the magnitudes F needs, resolved there.
Each iterate takes one pass over the segments (_linearize): it
evaluates the states once, calls each segment's linearize once for L
and its three partials, and forms the rows of F.  The next Jacobian is
built from those partials, which are dropped before the least-squares
solve; that solve frees each Jacobian block once it has scaled it and
keeps only the compact factors that back-substitution reads.

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
functions on the functionals the segment pins.  SolveResult builds it
on first use, so solve does no evaluation.  Each consumer evaluates one
segment's y, y' and y'' in one pass: the closed-form errors and the CLI
table on the segment's closed interval, so a junction counts from both
sides, and evaluate on the points HybridProblem.split gives the segment.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from functools import cached_property
from typing import Optional

import numpy as np
import scipy.linalg

from .assembly import SystemMatrices, assemble_all, per_segment
from .basis import (FAMILIES, MAX_DERIVATIVE, SERIES, _is_integer, _is_number, _is_order,
                    map_point)
from .expressions import UnknownLayout, segment_constraints
from .problems import HybridProblem
from .switching import switching_functions


class DivergenceError(RuntimeError):
    """The residual became non-finite or grew DIVERGENCE_WINDOW times in a row."""

    def __init__(self, message: str, trace):
        super().__init__(message)
        self.trace = list(trace)


# points per segment, ends included, of errors_by_order and by default of the CLI table
EVAL_POINTS = 1000


# Each check takes a value and the name to report (SolveOptions.<field> here, solver.<key>
# in the CLI), and returns the value as it is stored or raises ValueError naming it.

def _integer(value, name: str, least: int) -> int:
    """An integral number (8.0 is 8; not a bool, nan or inf) of at least least, as an int."""
    value = int(value) if _is_integer(value) else value
    if _is_integer(value) and value >= least:
        return value
    raise ValueError(f"{name}: must be an integer >= {least}, got {value!r}")


def _sizes(value, name: str):
    """A size (an integer >= 1; a 0-d array is the one it holds), or one per segment as a tuple."""
    if isinstance(value, (list, tuple)) or np.ndim(value) > 0:
        return tuple(_integer(v, name, 1) for v in value)
    return _integer(value.item() if isinstance(value, np.ndarray) else value, name, 1)


def _one_of(value, name: str, choices: tuple):
    if value not in choices:
        raise ValueError(f"{name}: expected one of {choices}, got {value!r}")
    return value


def _tol(value, name: str) -> float:
    """A positive finite number, as a float."""
    value = float(value) if _is_number(value) else value
    if isinstance(value, float) and 0 < value < math.inf:  # the comparison also rejects nan
        return value
    raise ValueError(f"{name}: must be a positive finite number, got {value!r}")


def _seeds(value, name: str) -> Optional[tuple]:
    """None, or a list (tuple, 1-d array) of finite numbers, as a tuple of floats."""
    if value is None:
        return None
    if not (isinstance(value, (list, tuple)) or (isinstance(value, np.ndarray) and value.ndim == 1)):
        raise ValueError(f"{name}: expected a list of numbers, got {value!r}")
    for v in value:
        if not (_is_number(v) and math.isfinite(v)):
            raise ValueError(f"{name}: expected a finite number, got {v!r}")
    return tuple(float(v) for v in value)


# each SolveOptions field's check, and the name its errors give the field
CHECKS = {"N": _sizes, "m": lambda value, name: value if value is None else _sizes(value, name),
          "family": lambda value, name: _one_of(value, name, FAMILIES), "tol": _tol,
          "max_iter": lambda value, name: _integer(value, name, 1), "init_values": _seeds}
NAMES = {field: f"SolveOptions.{field}" for field in CHECKS}


@dataclass(frozen=True)
class SolveOptions:
    """Grid size, basis, convergence and starting point of a solve.

    N and m (an integer >= 1 or one per segment; m defaults to the
    problem's default_m, else 16) size each segment's grid and basis,
    and family, one of basis.FAMILIES, names the basis.
    tol, a positive finite number, is the residual 2-norm at which the
    solve converges, raised to the rounding floor F of the residual at
    each iterate (see the module docstring).  Every problem takes up to
    max_iter steps, an integer >= 1, from init_values, finite (value,
    slope) pairs, one per junction, or from the straight line between
    the boundary values when they are None.  CHECKS stores each field as
    checked (8.0 as 8; a bool or a fraction fails) or raises ValueError
    naming SolveOptions.<field>; resolve_sizes checks the problem's counts.
    """

    N: int | tuple = 100
    m: Optional[int | tuple] = None
    family: str = "chebyshev"
    tol: float = 1e-13
    max_iter: int = 50
    init_values: Optional[tuple] = None

    def __post_init__(self):
        for field, check in CHECKS.items():
            object.__setattr__(self, field, check(getattr(self, field), NAMES[field]))


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
    """Converged (or final) state of a solve, with evaluation support.

    system is the solve's one discretization: the evaluators read the
    layout of xi, each segment's interval and the basis family from it.
    """

    problem: HybridProblem
    system: SystemMatrices
    xi: np.ndarray
    residual_trace: list
    converged: bool
    tolerance: float  # the threshold the last residual norm was tested against
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
        layout = self.system.layout
        out = []
        for j in range(1, layout.n_segments):
            out.append((self.problem.break_points[j],
                        float(self.xi[layout.junction_value_index(j)]),
                        float(self.xi[layout.junction_slope_index(j)])))
        return out

    def segment_coefficients(self, k: int) -> np.ndarray:
        """Basis coefficients of segment k, 1-based."""
        return self.xi[self.system.layout.xi_slice(k)]

    @cached_property
    def _series(self) -> tuple:
        """Per segment: pinned functionals, g^(d) for d = 0..2, phi and kappa.

        g is [0] * skip + xi_k; phi is g on each pinned functional, at z = +-1.
        Each g^(d) is a column zero-padded to len(g); a zero tail leaves a Clenshaw sum bitwise unchanged.
        """
        out = []
        val, der, _ = SERIES[self.system.family]
        for k, iv in enumerate(self.system.intervals, 1):
            constraints = segment_constraints(k, self.system.layout, self.problem.y0, self.problem.yf)
            series = [np.concatenate([np.zeros(len(constraints)), self.segment_coefficients(k)])]
            while len(series) <= MAX_DERIVATIVE:
                series.append(der(series[-1], 1, scl=2.0 / iv.width))  # dz/dx
            padded = np.column_stack([np.append(g, np.zeros(len(series[0]) - len(g))) for g in series])
            ends = val([-1.0, 1.0], padded[:, :2])  # g and g' at z = -1, +1
            out.append(([(con.order, con.end) for con in constraints], padded,
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
        if not 1 <= k <= self.system.n_segments:
            raise ValueError(f"segment index {k} out of range 1..{self.system.n_segments}")
        if not _is_order(d):
            raise ValueError(f"derivative order must be 0..{MAX_DERIVATIVE}, got {d!r}")
        return self._segment_orders(k, x, (d,))[0]

    def _segment_orders(self, k: int, x, orders) -> list:
        """segment_values for each d in orders, from one switching pass and one Clenshaw sum."""
        functionals, series, phi, kappa = self._series[k - 1]
        iv = self.system.intervals[k - 1]
        x = np.atleast_1d(np.asarray(x, dtype=float))
        z = map_point(iv, x, f"segment {k} x")
        S = switching_functions(functionals, iv, x, orders)
        g = SERIES[self.system.family][0](z, series[:, list(orders)])
        return [(g[i] - S[d] @ phi) + S[d] @ kappa for i, d in enumerate(orders)]

    def evaluate(self, x, d: int = 0):
        """y^(d)(x) anywhere in the domain (junctions use the left segment).

        A point outside the domain raises ValueError naming its index in x, flattened.
        """
        if not _is_order(d):  # before the split, which may call no segment at all
            raise ValueError(f"derivative order must be 0..{MAX_DERIVATIVE}, got {d!r}")
        xs = np.asarray(x, dtype=float)
        flat, out = xs.ravel(), np.empty(xs.size)
        for k, at in self.problem.split(flat):
            out[at] = self._segment_orders(k, flat[at], (d,))[0]
        return float(out[0]) if xs.ndim == 0 else out.reshape(xs.shape)

    @cached_property
    def errors_by_order(self) -> Optional[dict]:
        """{d: max |y^(d) - exact|} for d = 0..2 (NaN if any is), or None without a closed form.

        Over EVAL_POINTS points per segment, ends included, one pass each: a junction counts from both sides.
        """
        if self.problem.solution is None:
            return None
        errors = dict.fromkeys(range(MAX_DERIVATIVE + 1), 0.0)
        for k, (iv, exact) in enumerate(zip(self.system.intervals, self.problem.solution), 1):
            xs = np.linspace(iv.x0, iv.xf, EVAL_POINTS)
            for d, y in zip(errors, self._segment_orders(k, xs, tuple(errors))):
                errors[d] = float(np.max(np.abs(y - exact[d](xs)), initial=errors[d]))
        return errors

    @cached_property
    def max_abs_err(self) -> Optional[float]:
        """Largest of errors_by_order (NaN if one is), or None without a closed form."""
        return None if self.errors_by_order is None else float(np.max([*self.errors_by_order.values()]))


# --- block-structured least squares ----------------------------------------

# R diagonals at or below this, relative to the unit column scale, are dropped
_RANK_RTOL = 1e-12


def _lapack_ok(name: str, info: int):
    if info != 0:
        raise RuntimeError(f"LAPACK {name} failed with info={info}")


def _eliminate(lead: np.ndarray, rest: np.ndarray):
    """Pivoted QR of the lead columns, with Q^T applied to the rest columns.

    Returns the pivot order, the kept diagonals |R_ii| > _RANK_RTOL, the
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
    rank = int(np.count_nonzero(diag > _RANK_RTOL))
    rest, _, info = scipy.linalg.lapack.dormqr("L", "T", qr[:, :tau.size], tau, rest,
                                               lwork=max(1, rest.shape[1]))
    _lapack_ok("dormqr", info)
    # dtrtrs reads only the upper triangle of R; the copies free the work
    # arrays, and keep their memory order so that later products round alike
    return (jpvt - 1, diag[:rank], qr[:rank, :rank].copy(order="K"),
            rest[:rank].copy(order="K"), rest[rank:])


def _back_substitute(R: np.ndarray, piv: np.ndarray, z: np.ndarray, size: int) -> np.ndarray:
    """Unknowns in pivot order piv: R w = z for the kept ones, 0 for the dropped."""
    out = np.zeros(size)
    if R.size:
        w, info = scipy.linalg.lapack.dtrtrs(R, z)
        _lapack_ok("dtrtrs", info)
        out[piv[:R.shape[0]]] = w
    return out


def _scaled_qr_lstsq(blocks, rhs: np.ndarray, layout: UnknownLayout):
    """Minimize ||M Xi - rhs|| for the block-structured M by block elimination.

    blocks[k-1] holds segment k's rows of M over layout.window(k); rhs is
    stacked in segment order.  Columns are scaled to unit 2-norm over all
    of their rows first (zero or negligible columns keep unit scale so
    rounding noise is never amplified).  Then each segment's own
    coefficients are eliminated by a pivoted QR of its local columns,
    which leaves a block-bidiagonal system in the junction pairs; a
    sequential QR sweep solves it one pair at a time, carrying at most
    two rows into the next pair, so the cost is linear in the number of
    segments.  In every R factor, pivots with |R_ii| <= _RANK_RTOL (the
    unit column scale) are dropped and their unknowns set to zero (the
    basic solution).  It consumes blocks: each entry is set to None once
    its block is scaled (pass list(blocks) to keep them).
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
        blocks[k - 1] = None
        own = layout.own_in_window(k)
        # rest columns: the junction pairs (left, right), then rhs
        rest = np.concatenate([scaled[:, :own.start], scaled[:, own.stop:],
                               rhs[starts[k - 1]:starts[k], None]], axis=1)
        piv, diag, R, top, below = _eliminate(scaled[:, own], rest)
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
        piv, diag, R, top, carry = _eliminate(stacked[:, :2], stacked[:, 2:])
        kept.append(diag)
        junction.append((piv, R, top))
        if k < n and carry.shape[0] > 2:
            # only the first two rows of the triangularized carry involve
            # J_k; the others hold residual alone
            qr, _, _, info = scipy.linalg.lapack.dgeqrf(carry)
            _lapack_ok("dgeqrf", info)
            carry = qr[:2].copy(order="K")
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

def initial_guess(problem: HybridProblem, opts: SolveOptions, layout: UnknownLayout) -> np.ndarray:
    """Starting Xi: zero basis coefficients plus junction seeds.

    Without opts.init_values every junction is seeded with the value and
    slope of the straight line joining the two boundary points; with
    them, each junction gets its given (value, slope) pair, as many as
    resolve_sizes checked.
    """
    xi = np.zeros(layout.total)
    values = opts.init_values
    if values is None:
        x0, xf = problem.break_points[0], problem.break_points[-1]
        slope = (problem.yf - problem.y0) / (xf - x0)
        values = [v for xj in problem.break_points[1:-1]
                  for v in (problem.y0 + slope * (xj - x0), slope)]
    for j in range(1, layout.n_segments):
        xi[layout.junction_value_index(j)] = values[2 * (j - 1)]
        xi[layout.junction_slope_index(j)] = values[2 * (j - 1) + 1]
    return xi


# --- solving ----------------------------------------------------------------

# consecutive residual increases after which Gauss-Newton gives up
DIVERGENCE_WINDOW = 5


def resolve_sizes(problem: HybridProblem, opts: SolveOptions, names: dict = NAMES) -> tuple:
    """Per-segment (N_k, ...) and (m_k, ...) that a solve of problem with opts uses.

    Checks one N and m per segment, N >= m + 4, one init_values pair per
    junction and the problem's default_m; an error names the setting as
    names[field].
    """
    n = problem.n_segments
    m = opts.m if opts.m is not None else _sizes(problem.default_m or 16, "HybridProblem.default_m")
    Ns, ms = per_segment(opts.N, n, names["N"]), per_segment(m, n, names["m"])
    for Nk, mk in zip(Ns, ms):
        if Nk < mk + 4:
            raise ValueError(f"{names['N']}: need N >= m + 4 collocation points per segment, "
                             f"got N={Nk}, m={mk}")
    seeds = 2 * (n - 1)
    if opts.init_values is not None and len(opts.init_values) != seeds:
        raise ValueError(f"{names['init_values']}: expected {seeds} values (value, slope per "
                         f"junction), got {len(opts.init_values)}")
    return Ns, ms


def _checked(k: int, shape: tuple, returned) -> tuple:
    """Segment k's (L, partials) as float arrays of the points' shape, a constant partial broadcast.

    Anything else raises ValueError naming the segment and the output.
    """
    if not (isinstance(returned, (tuple, list)) and len(returned) == 2):
        raise ValueError(f"segment {k}: linearize returned {type(returned).__name__}, "
                         "expected (L, partials)")
    L, partials = returned
    if len(partials) != 3:
        raise ValueError(f"segment {k}: linearize returned {len(partials)} partials, expected 3")
    out = []
    for name, value in zip(("residual", "dL/dy", "dL/dy'", "dL/dy''"), (L, *partials)):
        value = np.asarray(value, dtype=float)
        if value.shape == () and name != "residual":
            value = np.broadcast_to(value, shape)
        if value.shape != shape:
            raise ValueError(f"segment {k}: {name} has shape {value.shape}, expected {shape}"
                             + ("" if name == "residual" else " or a constant"))
        out.append(value)
    return out[0], tuple(out[1:])


def _linearize(problem, system, xi, floor: bool = True) -> tuple:
    """L at Xi, its partials and its rounding floor F, from one pass per segment.

    One linearize call per segment gives L and partials[k-1], dL/dy^(d)
    for d = 0..2 at segment k's points, which _checked vets.  F is
    eps ||sum_d |dL/dy^(d)| (|A_k^(d)| |Xi_window| + |B_k^(d)|)||, stacked
    over all rows (with |B_k^(d)| as SystemMatrices.segment_magnitudes
    bounds it): the size of the rounding in evaluating L at Xi, so no
    iterate can bring ||L|| much below it.  It is 0.0 when floor is False.
    """
    residual = np.empty(system.total_points)
    partials, squares = [], 0.0
    for k in range(1, system.n_segments + 1):
        x = system.points[k - 1]
        returned = problem.segments[k - 1](x, *system.segment_states(xi, k))
        residual[system.row_slice(k)], p = _checked(k, x.shape, returned)
        partials.append(p)
        if floor:
            rows = sum(np.abs(pd) * md for pd, md in zip(p, system.segment_magnitudes(xi, k)))
            squares += float(rows @ rows)
    # a float: an np.float64 F makes converged an np.bool_, which the CLI cannot write as JSON
    return residual, partials, sys.float_info.epsilon * math.sqrt(squares)


def _jacobian(system, partials):
    """Chain-rule Jacobian dL/dXi from _linearize's partials, one block per segment over its window."""
    blocks = []
    for ((R0, R1, R2), scales, _, _), (p0, p1, p2), iv in zip(system.segments, partials,
                                                              system.intervals):
        dx = iv.width
        # A^(d) = R_d diag(dx**(p - d)), and scales[0] is dx**p
        blocks.append((p0[:, None] * R0 + (p1 / dx)[:, None] * R1
                       + (p2 / dx ** 2)[:, None] * R2) * scales[0])
    return blocks


def solve(problem: HybridProblem, opts: SolveOptions = SolveOptions()) -> SolveResult:
    """Gauss-Newton iteration with block-elimination least-squares steps.

    Up to opts.max_iter steps from initial_guess, for linear and
    nonlinear problems alike; the stopping rules are in the module
    docstring.
    """
    system = assemble_all(problem.break_points, *resolve_sizes(problem, opts), opts.family,
                          problem.y0, problem.yf)
    xi = initial_guess(problem, opts, system.layout)
    # the floor of the iterate is only tested after a step
    residual, partials, _ = _linearize(problem, system, xi, floor=False)
    if not math.isfinite(float(np.linalg.norm(residual))):
        raise DivergenceError("starting residual is non-finite", [])
    trace: list[float] = []
    for _ in range(opts.max_iter):
        J = _jacobian(system, partials)
        del partials  # kept through the least-squares solve, they would raise its peak memory
        dxi, diag = _scaled_qr_lstsq(J, residual, system.layout)  # frees J's blocks as it goes
        xi = xi - dxi
        residual, partials, floor = _linearize(problem, system, xi)
        # a non-finite floor comes from non-finite partials: tol alone is the test
        tol = max(opts.tol, floor) if math.isfinite(floor) else opts.tol
        norm = float(np.linalg.norm(residual))
        if not math.isfinite(norm):
            raise DivergenceError("residual became non-finite", trace + [norm])
        trace.append(norm)
        if norm <= tol:
            break
        # a step that moved ||L|| by no more than its rounding floor has stalled
        if len(trace) > 1 and math.isfinite(floor) and abs(norm - trace[-2]) <= floor:
            break
        rising = trace[-DIVERGENCE_WINDOW - 1:]
        if len(rising) > DIVERGENCE_WINDOW and all(a < b for a, b in zip(rising, rising[1:])):
            raise DivergenceError(
                f"residual increased for {DIVERGENCE_WINDOW} consecutive iterations", trace)
    return SolveResult(problem=problem, system=system, xi=xi, residual_trace=trace,
                       converged=norm <= tol, tolerance=tol, qr_diagnostic=diag)
