"""Independent constructions the tests check the library against.

* BasisSpec, eval_basis and end_tables: both families by their
  three-term recurrences with differentiated derivative rows, and
  segment_block, the constrained-expression kernel at any points of a
  segment, built from them.  The library builds its reference blocks
  from numpy.polynomial instead; these are the check on them.
* system_block: one segment's (A_k^(d), B_k^(d)) of a SystemMatrices,
  with A scaled from the shared reference rows.  dense_matrix /
  dense_from_blocks scatter per-segment window blocks to full width,
  and dense_scaled_qr_lstsq solves the full-width system by one
  column-equilibrated, column-pivoted QR: the dense path the block
  solver replaced.
* linear_system: the direct assembly of an all-linear problem's
  least-squares system from its ODE coefficients, the check on the
  Gauss-Newton step that replaced it.  evaluate and all_points read a
  system's values and grid points at every stacked collocation point.
  discretize is the system a solve assembles, and spec_of a segment's
  basis as segment_block takes it.  per_order_values: a solved
  segment's y^(d) by one Clenshaw sum per order, the check on the
  library's one pass over all orders.
  rounding_floor: the stopping floor F written out from the formula,
  on full-width rows of A^(d) and B^(d).
* AffineRow / segment_row: one evaluation of the segment kernel as a
  callable row, for point-wise constraint checks.
* FAMILY_CONSTRAINTS and alpha/beta/gamma: the paper's named switching
  families as functional lists, evaluated by 1-based index through the
  library's switching_functions.  closed_form_switching: the same
  functions as hand-derived formulas, the check on that derivation.
* The alpha-based two-segment cascade, which eliminates the junction
  value analytically instead of treating it as an unknown.  It is built
  from raw basis evaluations and the closed-form switching functions,
  not from the kernel.
* Hand-coded loss-partial rows of the two reference nonlinear problems
  and residual_partial_check, which compares the chain-rule Jacobian row
  against them and against central finite differences.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Optional

import numpy as np
import scipy.linalg

from hybvp.assembly import assemble_all
from hybvp.basis import (FAMILIES, MAX_DERIVATIVE, SERIES, TABLE_CACHE_SIZE, Interval, _read_only,
                         map_point)
from hybvp.expressions import UnknownLayout, segment_constraints
from hybvp.solver import QrDiagnostic, resolve_sizes
from hybvp.switching import switching_functions

CASCADE_SKIP = 2   # the alpha support pins the value at both ends
BOUNDARY_SKIP = 3  # value at both ends + slope at the junction end


# --- the three-term recurrence and the point kernel ---------------------

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



def _table(family: str, z: np.ndarray, m: int, d: int) -> list:
    """p_k and derivatives of orders 0..d at points z, one (len(z), m) array per order.

    Both families follow p_k = a_k z p_{k-1} - b_k p_{k-2}; the
    derivative rows differentiate that recurrence.
    """
    # one array per order, so a caller can release each table on its own
    out = [np.zeros((z.size, m)) for _ in range(d + 1)]
    out[0][:, 0] = 1.0
    if m > 1:
        out[0][:, 1] = z
        if d >= 1:
            out[1][:, 1] = 1.0
    for k in range(2, m):
        a, b = (2.0, 1.0) if family == "chebyshev" else ((2.0 * k - 1.0) / k, (k - 1.0) / k)
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
    applied here; callers that work in x apply it.
    """
    orders = (d,) if np.isscalar(d) else tuple(d)
    if min(orders) < 0 or max(orders) > MAX_DERIVATIVE:
        raise ValueError(f"derivative order {d} unsupported (second-order ODE scope, 0..2)")
    zz = np.atleast_1d(np.asarray(z, dtype=float))
    if np.any(np.abs(zz) > 1.0 + 1e-12):
        raise ValueError("basis evaluation point outside [-1, 1]")
    tables = _table(spec.family, zz, spec.m, max(orders))
    picked = tuple(tables[o][0] if np.ndim(z) == 0 else tables[o] for o in orders)
    return picked[0] if np.isscalar(d) else picked


@lru_cache(maxsize=TABLE_CACHE_SIZE)
def end_tables(family: str, m: int) -> tuple:
    """(h, h'): m basis polynomials and their z-slopes at z = -1 (row 0) and +1 (row 1).

    Read-only (2, m) arrays, computed once per (family, m).
    """
    return _read_only(*eval_basis(BasisSpec(family, m, 1.0), np.array([-1.0, 1.0]), (0, 1)))


def segment_block(spec: BasisSpec, iv: Interval, k: int, layout: UnknownLayout,
                  y0: float, yf: float, x, orders=(0, 1, 2)) -> dict:
    """Rows of segment k's constrained expression at points x in iv.

    Returns {d: (coeffs, offsets)} for every d in orders, with coeffs of
    shape (len(x), width of layout.window(k)) so that
    y^(d)(x) = coeffs @ Xi[layout.window(k)] + offsets.  Segment k's
    rows touch no unknown outside its window.
    """
    constraints = segment_constraints(k, layout, y0, yf)
    skip = len(constraints)
    wide = BasisSpec(spec.family, spec.m + skip, spec.c)
    window = layout.window(k)
    x = np.atleast_1d(np.asarray(x, dtype=float))
    tables = list(eval_basis(wide, map_point(iv, x, f"segment {k} x"), tuple(orders)))
    # h and c*h' of the free expansion at z = -1, +1: each row is one
    # pinned functional applied to the free basis
    h, dh = end_tables(wide.family, wide.m)
    support = np.array([(spec.c * dh if con.order else h)[con.end, skip:] for con in constraints])
    S = switching_functions([(con.order, con.end) for con in constraints], iv, x, orders)
    values = np.array([con.value for con in constraints])  # 0 for junction columns
    out = {}
    for d in orders:
        coeffs = np.zeros((x.size, window.stop - window.start))
        local = coeffs[:, layout.own_in_window(k)]
        # a table from the recurrence is released once its order is built
        np.multiply(spec.c ** d, tables.pop(0)[:, skip:], out=local)
        local -= S[d] @ support
        for i, con in enumerate(constraints):
            if con.column is not None:
                coeffs[:, con.column - window.start] = S[d][:, i]
        out[d] = (coeffs, S[d] @ values)
    return out


# --- the paper's switching families ----------------------------------------

# Constraint functionals per family as (derivative order, endpoint) pairs,
# endpoint 0 = x0, 1 = xf.  Order matches the delta-property index.
FAMILY_CONSTRAINTS = {
    "alpha": ((0, 0), (0, 1)),
    "beta_first": ((0, 0), (0, 1), (1, 1)),
    "beta_last": ((0, 0), (1, 0), (0, 1)),
    "gamma": ((0, 0), (0, 1), (1, 0), (1, 1)),
}


def _one(family: str, index: int, iv: Interval, x, d: int):
    out = switching_functions(FAMILY_CONSTRAINTS[family], iv, x, (d,))[d][:, index]
    return float(out[0]) if np.ndim(x) == 0 else out


def alpha(index: int, iv: Interval, x, d: int = 0):
    """Linear value-switching functions, index 1 (at x0) or 2 (at xf)."""
    if index not in (1, 2):
        raise ValueError(f"alpha index must be 1 or 2, got {index}")
    return _one("alpha", index - 1, iv, x, d)


def beta(index: int, iv: Interval, x, d: int = 0):
    """Quadratic switching functions for boundary segments.

    1..3 treat xf as the junction (value at x0, value and derivative at
    xf); 4..6 treat x0 as the junction (value and derivative at x0,
    value at xf).
    """
    if not 1 <= index <= 6:
        raise ValueError(f"beta index must be 1..6, got {index}")
    return _one("beta_first" if index <= 3 else "beta_last", (index - 1) % 3, iv, x, d)


def gamma(index: int, iv: Interval, x, d: int = 0):
    """Cubic Hermite switching functions for interior segments."""
    if not 1 <= index <= 4:
        raise ValueError(f"gamma index must be 1..4, got {index}")
    return _one("gamma", index - 1, iv, x, d)


# --- closed-form switching functions --------------------------------------

def closed_form_switching(family: str, index: int, iv: Interval, x, d: int = 0):
    """Switching function `index` of family alpha, beta or gamma, hand-derived.

    Same index meaning as alpha/beta/gamma above: alpha 1..2, beta 1..3
    (first segment) and 4..6 (last segment), gamma 1..4.  Written in
    t = (x - x0)/dx, for derivative orders 0..2.
    """
    x = np.asarray(x, dtype=float)
    if np.any(x < iv.x0) or np.any(x > iv.xf):
        raise ValueError(f"x={x} outside interval [{iv.x0}, {iv.xf}]")
    dx = iv.width
    t = (x - iv.x0) / dx
    s = t - 1.0  # (x - xf)/dx, zero exactly at xf
    forms = {
        ("alpha", 1): (1.0 - t, -1.0 / dx + 0.0 * t, 0.0 * t),
        ("alpha", 2): (t, 1.0 / dx + 0.0 * t, 0.0 * t),
        ("beta", 1): (s * s, 2.0 * s / dx, 2.0 / dx ** 2 + 0.0 * t),
        # (x0-x)(x+x0-2xf)/dx^2 = -t*(t-2) = 1 - s*s
        ("beta", 2): (-t * (t - 2.0), -2.0 * s / dx, -2.0 / dx ** 2 + 0.0 * t),
        ("beta", 3): (dx * t * s, t + s, 2.0 / dx + 0.0 * t),
        # (xf-x)(x-2x0+xf)/dx^2 = -s*(t+1) = 1 - t*t
        ("beta", 4): (-s * (t + 1.0), -2.0 * t / dx, -2.0 / dx ** 2 + 0.0 * t),
        ("beta", 5): (-dx * t * s, -(t + s), -2.0 / dx + 0.0 * t),
        ("beta", 6): (t * t, 2.0 * t / dx, 2.0 / dx ** 2 + 0.0 * t),
        ("gamma", 1): (1.0 + t * t * (2.0 * t - 3.0), (6.0 * t * (t - 1.0)) / dx,
                       (12.0 * t - 6.0) / dx ** 2),
        ("gamma", 2): (t * t * (3.0 - 2.0 * t), (-6.0 * t * (t - 1.0)) / dx,
                       (6.0 - 12.0 * t) / dx ** 2),
        # dx * t * (t-1)^2
        ("gamma", 3): (dx * t * (t - 1.0) ** 2, 3.0 * t * t - 4.0 * t + 1.0, (6.0 * t - 4.0) / dx),
        # dx * t^2 * (t-1)
        ("gamma", 4): (dx * t * t * (t - 1.0), 3.0 * t * t - 2.0 * t, (6.0 * t - 2.0) / dx),
    }
    if (family, index) not in forms:
        raise ValueError(f"no switching function {family}[{index}]")
    if d not in (0, 1, 2):
        raise ValueError(f"derivative order {d} unsupported (0..2)")
    out = np.asarray(forms[family, index][d], dtype=float)
    return float(out) if out.ndim == 0 else out


# --- dense path -----------------------------------------------------------

def dense_from_blocks(blocks, layout) -> np.ndarray:
    """Stack per-segment blocks over layout.window(k) into full-width rows."""
    out = np.zeros((sum(b.shape[0] for b in blocks), layout.total))
    start = 0
    for k, block in enumerate(blocks, 1):
        out[start:start + block.shape[0], layout.window(k)] = block
        start += block.shape[0]
    return out


def system_block(system, k: int, d: int) -> tuple:
    """(A_k^(d), B_k^(d)) of segment k of a SystemMatrices, A as a new (N_k, window width) array."""
    R, s, B, _ = system.segments[k - 1]
    return R[d] * s[d], B[d]


def dense_matrix(system, d: int) -> np.ndarray:
    """Full-width A^(d) of a SystemMatrices."""
    n = system.layout.n_segments
    return dense_from_blocks([system_block(system, k, d)[0] for k in range(1, n + 1)], system.layout)


def dense_offsets(system, d: int) -> np.ndarray:
    """Stacked B^(d) of a SystemMatrices."""
    n = system.layout.n_segments
    return np.concatenate([system_block(system, k, d)[1] for k in range(1, n + 1)])


def evaluate(system, xi: np.ndarray, d: int = 0) -> np.ndarray:
    """y^(d) at every stacked grid point of system for a given Xi."""
    out = []
    for k in range(1, system.layout.n_segments + 1):
        A, B = system_block(system, k, d)
        out.append(A @ xi[system.layout.window(k)] + B)
    return np.concatenate(out)


def all_points(system) -> np.ndarray:
    """Every segment's collocation points, stacked in segment order."""
    return np.concatenate(system.points)


def discretize(problem, opts):
    """The SystemMatrices that solve(problem, opts) assembles."""
    return assemble_all(problem.break_points, *resolve_sizes(problem, opts), opts.family,
                        problem.y0, problem.yf)


def spec_of(system, k: int) -> BasisSpec:
    """Segment k's basis (family, m and map slope), as segment_block takes it."""
    return BasisSpec.for_interval(system.family, system.layout.ms[k - 1], system.intervals[k - 1])


def per_order_values(result, k: int, x, d: int) -> np.ndarray:
    """y^(d) of a SolveResult at points x of segment k, by one Clenshaw sum of g^(d) alone.

    The check on SolveResult's one pass over all orders, which sums
    zero-padded series: here g^(d) is differentiated d times from
    g = [0] * skip + xi_k and summed at its own length, so short series
    take the len(c) <= 2 branches of chebval and legval.
    """
    system = result.system
    iv = system.intervals[k - 1]
    val, der, _ = SERIES[system.family]
    constraints = segment_constraints(k, system.layout, result.problem.y0, result.problem.yf)
    series = [np.concatenate([np.zeros(len(constraints)), result.segment_coefficients(k)])]
    while len(series) <= MAX_DERIVATIVE:
        series.append(der(series[-1], 1, scl=2.0 / iv.width))
    phi = np.array([val(2.0 * con.end - 1.0, series[con.order]) for con in constraints])
    kappa = np.array([con.value if con.column is None else result.xi[con.column]
                      for con in constraints])
    x = np.atleast_1d(np.asarray(x, dtype=float))
    S = switching_functions([(con.order, con.end) for con in constraints], iv, x, (d,))[d]
    return (val(map_point(iv, x), series[d]) - S @ phi) + S @ kappa


def linear_system(problem, system):
    """(blocks, rhs) of an all-linear problem's collocation system M Xi = rhs.

    Segment k's ODE a2 y'' + a1 y' + a0 y = f gives the window block
    M_k = a2 A2 + a1 A1 + a0 A0 and rhs_k = f - (a2 B2 + a1 B1 + a0 B0).
    The coefficients are read back from the segment: a0, a1 and a2 are
    its state partials, and f is minus its residual at y = y' = y'' = 0.
    """
    blocks, rhs = [], np.empty(system.total_points)
    for k in range(1, system.n_segments + 1):
        x = system.points[k - 1]
        dyn = problem.segments[k - 1]
        state = (x, *(np.zeros_like(x),) * 3)
        L, partials = dyn(*state)
        a0, a1, a2 = (np.broadcast_to(np.asarray(p, dtype=float), x.shape) for p in partials)
        f = -L
        (A0, B0), (A1, B1), (A2, B2) = (system_block(system, k, d) for d in (0, 1, 2))
        blocks.append(a2[:, None] * A2 + a1[:, None] * A1 + a0[:, None] * A0)
        rhs[system.row_slice(k)] = f - (a2 * B2 + a1 * B1 + a0 * B0)
    return blocks, rhs


def rounding_floor(problem, system, xi: np.ndarray) -> float:
    """eps ||sum_d |dL/dy^(d)| (|A^(d)| |Xi| + |B^(d)|)|| over every stacked row.

    A^(d) and B^(d) are the full-width matrices of system, and the
    partials are evaluated at the states A^(d) Xi + B^(d).
    """
    x = all_points(system)
    states = [evaluate(system, xi, d) for d in (0, 1, 2)]
    sizes = [np.abs(dense_matrix(system, d)) @ np.abs(xi) + np.abs(dense_offsets(system, d))
             for d in (0, 1, 2)]
    rows = np.zeros(system.total_points)
    for k in range(1, system.n_segments + 1):
        dyn, at = problem.segments[k - 1], system.row_slice(k)
        state = (x[at], *(y[at] for y in states))
        for d, partial in enumerate(dyn(*state)[1]):
            rows[at] += np.abs(partial) * sizes[d][at]
    return float(np.finfo(float).eps * np.linalg.norm(rows))


def dense_scaled_qr_lstsq(M: np.ndarray, b: np.ndarray, rank_rtol: float = 1e-12):
    """Minimize ||M x - b|| by column-equilibrated, column-pivoted QR.

    Columns are scaled to unit 2-norm before factorization (zero or
    negligible columns keep unit scale so rounding noise is never
    amplified).  Columns whose pivoted R diagonal falls below the rank
    tolerance are dropped and their unknowns set to zero (basic
    solution).  The condition estimate is the largest kept R diagonal
    over the smallest.
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


# --- point rows -------------------------------------------------------------

@dataclass(frozen=True)
class AffineRow:
    """One evaluation y^(d)(x) = coeffs . Xi + offset."""

    coeffs: np.ndarray
    offset: float

    def __call__(self, xi: np.ndarray) -> float:
        return float(self.coeffs @ np.asarray(xi, dtype=float) + self.offset)


def full_width(coeffs: np.ndarray, layout, k: int) -> np.ndarray:
    """Rows of segment k over its window, scattered to every unknown of the layout."""
    out = np.zeros(coeffs.shape[:-1] + (layout.total,))
    out[..., layout.window(k)] = coeffs
    return out


def segment_row(spec, iv, k, layout, y0, yf, x, d=0) -> AffineRow:
    """Segment k's expression for y^(d) at the single point x, over all unknowns."""
    coeffs, offsets = segment_block(spec, iv, k, layout, y0, yf, x, (d,))[d]
    return AffineRow(full_width(coeffs[0], layout, k), float(offsets[0]))


# --- alpha-based two-segment cascade --------------------------------------

def _wide(spec: BasisSpec, skip: int) -> BasisSpec:
    return BasisSpec(spec.family, spec.m + skip, spec.c)


def _support_values(spec: BasisSpec, skip: int):
    """h at both endpoints and c*h' at both endpoints, leading skip dropped."""
    wide = _wide(spec, skip)
    h0 = eval_basis(wide, -1.0, 0)[skip:]
    h1 = eval_basis(wide, 1.0, 0)[skip:]
    dh0 = spec.c * eval_basis(wide, -1.0, 1)[skip:]
    dh1 = spec.c * eval_basis(wide, 1.0, 1)[skip:]
    return h0, h1, dh0, dh1


def _free_rows(spec: BasisSpec, iv: Interval, x: np.ndarray, d: int, skip: int) -> np.ndarray:
    """c^d * h^(d)(z(x)) for each point, shape (len(x), m)."""
    z = map_point(iv, x)
    return (spec.c ** d) * eval_basis(_wide(spec, skip), np.atleast_1d(z), d)[:, skip:]


def _check_cascade_geometry(iv1: Interval, iv2: Interval):
    if iv1.xf != iv2.x0:
        raise ValueError("cascade segments must share the junction abscissa")


def cascade_junction_coeffs(spec1, spec2, iv1, iv2, y0, yf):
    """Junction value y1 as an affine function of (xi1, xi2).

    Returns (w1, w2, b) with y1 = w1.xi1 + w2.xi2 + b, obtained by
    matching first derivatives of the two alpha-based expressions at the
    shared junction.
    """
    _check_cascade_geometry(iv1, iv2)
    x1 = iv1.xf
    # slope of the left final-value switch
    da2_left = closed_form_switching("alpha", 2, iv1, x1, 1)
    da1_right = closed_form_switching("alpha", 1, iv2, iv2.x0, 1)
    da1_left = closed_form_switching("alpha", 1, iv1, x1, 1)
    da2_right = closed_form_switching("alpha", 2, iv2, iv2.x0, 1)
    denom = da2_left - da1_right
    if denom == 0.0:
        raise ZeroDivisionError("degenerate cascade junction (zero switching-slope gap)")
    h1_at_x0, h1_at_x1, _, dh1_at_x1 = _support_values(spec1, CASCADE_SKIP)
    h2_at_x1, h2_at_xf, dh2_at_x1, _ = _support_values(spec2, CASCADE_SKIP)
    w1 = (-dh1_at_x1 + da1_left * h1_at_x0 + da2_left * h1_at_x1) / denom
    w2 = (dh2_at_x1 - da1_right * h2_at_x1 - da2_right * h2_at_xf) / denom
    b = (-da1_left * y0 + da2_right * yf) / denom
    return w1, w2, b


def cascade_junction_value(g1_data, g2_data, iv1, iv2, y0, yf) -> float:
    """The unique junction value making the cascade expressions C1.

    g1_data and g2_data are (BasisSpec, coefficient vector) pairs for the
    two free functions.
    """
    (spec1, xi1), (spec2, xi2) = g1_data, g2_data
    w1, w2, b = cascade_junction_coeffs(spec1, spec2, iv1, iv2, y0, yf)
    return float(w1 @ np.asarray(xi1, float) + w2 @ np.asarray(xi2, float) + b)


def cascade_block(spec1, spec2, iv1, iv2, y0, yf, x, d):
    """Rows of the cascade expression over stacked unknowns (xi1, xi2).

    Each left-segment row depends on xi2 (and vice versa) through the
    eliminated junction value, so the system is dense, not block
    diagonal.
    """
    _check_cascade_geometry(iv1, iv2)
    x = np.atleast_1d(np.asarray(x, dtype=float))
    m1, m2 = spec1.m, spec2.m
    w1, w2, b = cascade_junction_coeffs(spec1, spec2, iv1, iv2, y0, yf)
    coeffs = np.zeros((x.size, m1 + m2))
    offsets = np.zeros(x.size)
    h1_at_x0, h1_at_x1, _, _ = _support_values(spec1, CASCADE_SKIP)
    h2_at_x1, h2_at_xf, _, _ = _support_values(spec2, CASCADE_SKIP)
    left = x <= iv1.xf
    if np.any(left):
        xs = x[left]
        a1 = np.atleast_1d(closed_form_switching("alpha", 1, iv1, xs, d))
        a2 = np.atleast_1d(closed_form_switching("alpha", 2, iv1, xs, d))
        block = np.zeros((xs.size, m1 + m2))
        block[:, :m1] = (_free_rows(spec1, iv1, xs, d, CASCADE_SKIP)
                         - np.outer(a1, h1_at_x0)
                         - np.outer(a2, h1_at_x1))
        block[:, :m1] += np.outer(a2, w1)
        block[:, m1:] = np.outer(a2, w2)
        coeffs[left] = block
        offsets[left] = a1 * y0 + a2 * b
    right = ~left
    if np.any(right):
        xs = x[right]
        a1 = np.atleast_1d(closed_form_switching("alpha", 1, iv2, xs, d))
        a2 = np.atleast_1d(closed_form_switching("alpha", 2, iv2, xs, d))
        block = np.zeros((xs.size, m1 + m2))
        block[:, m1:] = (_free_rows(spec2, iv2, xs, d, CASCADE_SKIP)
                         - np.outer(a1, h2_at_x1)
                         - np.outer(a2, h2_at_xf))
        block[:, m1:] += np.outer(a1, w2)
        block[:, :m1] = np.outer(a1, w1)
        coeffs[right] = block
        offsets[right] = a1 * b + a2 * yf
    return coeffs, offsets


def cascade_eval(g1_data, g2_data, iv1, iv2, y0, yf, x, d=0):
    """Evaluate the cascade expression at x for concrete free functions."""
    (spec1, xi1), (spec2, xi2) = g1_data, g2_data
    coeffs, offsets = cascade_block(spec1, spec2, iv1, iv2, y0, yf, x, d)
    xi = np.concatenate([np.asarray(xi1, float), np.asarray(xi2, float)])
    out = coeffs @ xi + offsets
    return float(out[0]) if np.ndim(x) == 0 else out


# --- Jacobian cross-checks ------------------------------------------------

def _handcoded_boundary_row(spec, iv, layout, x, d, role):
    """Full-length derivative-d row built directly from the table formulas.

    Independent of the expressions module: the support subtractions are
    spelled out with raw basis and switching evaluations.  role is
    "first" or "last" (the two-segment reference problems have no
    interior segments).  The free expansion skips the three leading
    polynomials reproduced by the three-constraint support.
    """
    z = map_point(iv, x)
    c = spec.c
    skip = BOUNDARY_SKIP
    wide = _wide(spec, skip)
    row = np.zeros(layout.total)
    if role == "first":
        b = [closed_form_switching("beta", j, iv, x, d) for j in (1, 2, 3)]
        h_part = (c ** d) * eval_basis(wide, z, d)[skip:] \
            - b[0] * eval_basis(wide, -1.0, 0)[skip:] \
            - b[1] * eval_basis(wide, 1.0, 0)[skip:] \
            - b[2] * c * eval_basis(wide, 1.0, 1)[skip:]
        row[layout.xi_slice(1)] = h_part
        row[layout.junction_value_index(1)] = b[1]
        row[layout.junction_slope_index(1)] = b[2]
    else:
        n = layout.n_segments
        b = [closed_form_switching("beta", j, iv, x, d) for j in (4, 5, 6)]
        h_part = (c ** d) * eval_basis(wide, z, d)[skip:] \
            - b[0] * eval_basis(wide, -1.0, 0)[skip:] \
            - b[1] * c * eval_basis(wide, -1.0, 1)[skip:] \
            - b[2] * eval_basis(wide, 1.0, 0)[skip:]
        row[layout.xi_slice(n)] = h_part
        row[layout.junction_value_index(n - 1)] = b[0]
        row[layout.junction_slope_index(n - 1)] = b[1]
    return row


def reference_jacobian_row(problem, system, k: int, x: float, y: float, dy: float) -> np.ndarray:
    """Hand-coded loss-partial row for the two reference nonlinear problems.

    Implements the closed-form partial expressions for the
    linear-nonlinear and nonlinear-nonlinear sequences at one point in
    segment k (1-based), given the current solution state there.
    """
    layout = system.layout
    spec = spec_of(system, k)
    iv = system.intervals[k - 1]
    role = "first" if k == 1 else "last"
    rows = {d: _handcoded_boundary_row(spec, iv, layout, x, d, role) for d in (0, 1, 2)}
    if problem.name == "linear_nonlinear":
        if k == 1:
            return rows[2] + rows[0]
        return rows[2] + dy * rows[0] + y * rows[1]
    if problem.name == "nonlinear_nonlinear":
        a = 1.0 if k == 1 else 10.0
        return rows[2] - 2.0 * a * dy * rows[1]
    raise ValueError(f"no hand-coded reference Jacobian for problem {problem.name!r}")


def residual_partial_check(problem, k: int, x: float, *, N: int = 20,
                           m: Optional[int] = None, xi: Optional[np.ndarray] = None,
                           seed: int = 0) -> dict:
    """Cross-validate the chain-rule loss partials at one point.

    Compares the chain-rule row dL/dXi = sum_d (dL/dy^(d)) * A^(d)-row
    against central finite differences in Xi and, for the two reference
    nonlinear problems, against the hand-coded closed-form partials.
    Errors are reported relative to the largest row entry (floored at 1).
    """
    if not 1 <= k <= problem.n_segments:
        raise ValueError(f"segment index {k} out of range")
    m_eff = m if m is not None else (problem.default_m or 10)
    system = assemble_all(problem.break_points, N, m_eff, "chebyshev", problem.y0, problem.yf)
    iv = system.intervals[k - 1]
    if not iv.contains(x):
        raise ValueError(f"x={x} not inside segment {k}")
    layout = system.layout
    if xi is None:
        xi = np.random.default_rng(seed).standard_normal(layout.total)
    xi = np.asarray(xi, dtype=float)
    blocks = segment_block(spec_of(system, k), iv, k, layout, problem.y0, problem.yf, x)
    rows = {d: (full_width(coeffs[0], layout, k), offsets[0]) for d, (coeffs, offsets) in blocks.items()}

    def state(vec):
        return tuple(rows[d][0] @ vec + rows[d][1] for d in (0, 1, 2))

    dyn = problem.segments[k - 1]
    xarr = np.asarray([x])

    def loss(vec):
        yv, dyv, d2yv = state(vec)
        return float(dyn(xarr, np.asarray([yv]), np.asarray([dyv]), np.asarray([d2yv]))[0][0])

    yv, dyv, d2yv = state(xi)
    partials = dyn(xarr, np.asarray([yv]), np.asarray([dyv]), np.asarray([d2yv]))[1]
    p0, p1, p2 = (float(np.broadcast_to(p, (1,))[0]) for p in partials)  # a constant partial is broadcast
    chain = p0 * rows[0][0] + p1 * rows[1][0] + p2 * rows[2][0]

    scale = max(1.0, float(np.max(np.abs(chain))))
    fd = np.zeros(layout.total)
    h = 1e-6
    for i in range(layout.total):
        e = np.zeros(layout.total)
        e[i] = h * max(1.0, abs(xi[i]))
        fd[i] = (loss(xi + e) - loss(xi - e)) / (2.0 * e[i])
    result = {"vs_finite_difference": float(np.max(np.abs(fd - chain)) / scale),
              "vs_reference": None,
              "state": (yv, dyv, d2yv)}
    if problem.name in ("linear_nonlinear", "nonlinear_nonlinear"):
        ref = reference_jacobian_row(problem, system, k, x, yv, dyv)
        result["vs_reference"] = float(np.max(np.abs(ref - chain)) / scale)
    return result
