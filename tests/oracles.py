"""Independent constructions the tests check the library against.

* dense_matrix / dense_from_blocks scatter per-segment window blocks to
  full width, and dense_scaled_qr_lstsq solves the full-width system by
  one column-equilibrated, column-pivoted QR: the dense path the block
  solver replaced.
* linear_system: the direct assembly of an all-linear problem's
  least-squares system from its ODE coefficients, the check on the
  Gauss-Newton step that replaced it.  evaluate and all_points read a
  system's values and grid points at every stacked collocation point.
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
from typing import Optional

import numpy as np
import scipy.linalg

from hybvp.assembly import segment_grids
from hybvp.basis import BasisSpec, Interval, eval_basis, map_point
from hybvp.expressions import segment_block
from hybvp.solver import QrDiagnostic
from hybvp.switching import switching_functions

CASCADE_SKIP = 2   # the alpha support pins the value at both ends
BOUNDARY_SKIP = 3  # value at both ends + slope at the junction end


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


def dense_matrix(system, d: int) -> np.ndarray:
    """Full-width A^(d) of a SystemMatrices."""
    n = system.layout.n_segments
    return dense_from_blocks([system.block(k, d)[0] for k in range(1, n + 1)], system.layout)


def dense_offsets(system, d: int) -> np.ndarray:
    """Stacked B^(d) of a SystemMatrices."""
    return np.concatenate([system.block(k, d)[1] for k in range(1, system.layout.n_segments + 1)])


def evaluate(system, xi: np.ndarray, d: int = 0) -> np.ndarray:
    """y^(d) at every stacked grid point of system for a given Xi."""
    out = []
    for k in range(1, system.layout.n_segments + 1):
        A, B = system.block(k, d)
        out.append(A @ xi[system.layout.window(k)] + B)
    return np.concatenate(out)


def all_points(grids) -> np.ndarray:
    """Every segment's collocation points, stacked in segment order."""
    return np.concatenate([g.points for g in grids.grids])


def linear_system(problem, grids, system):
    """(blocks, rhs) of an all-linear problem's collocation system M Xi = rhs.

    Segment k's ODE a2 y'' + a1 y' + a0 y = f gives the window block
    M_k = a2 A2 + a1 A1 + a0 A0 and rhs_k = f - (a2 B2 + a1 B1 + a0 B0).
    The coefficients are read back from the segment: a0, a1 and a2 are
    its state partials, and f is minus its residual at y = y' = y'' = 0.
    """
    blocks, rhs = [], np.empty(grids.total_points)
    for k in range(1, grids.n_segments + 1):
        x = grids.grids[k - 1].points
        dyn = problem.segments[k - 1]
        state = (x, *(np.zeros_like(x),) * 3)
        a0, a1, a2 = (np.broadcast_to(np.asarray(p(*state), dtype=float), x.shape)
                      for p in (dyn.d_y, dyn.d_dy, dyn.d_d2y))
        f = -dyn.residual(*state)
        (A0, B0), (A1, B1), (A2, B2) = (system.block(k, d) for d in (0, 1, 2))
        blocks.append(a2[:, None] * A2 + a1[:, None] * A1 + a0[:, None] * A0)
        rhs[grids.row_slice(k)] = f - (a2 * B2 + a1 * B1 + a0 * B0)
    return blocks, rhs


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


def reference_jacobian_row(problem, grids, k: int, x: float, y: float, dy: float) -> np.ndarray:
    """Hand-coded loss-partial row for the two reference nonlinear problems.

    Implements the closed-form partial expressions for the
    linear-nonlinear and nonlinear-nonlinear sequences at one point in
    segment k (1-based), given the current solution state there.
    """
    layout = grids.layout
    spec = grids.specs[k - 1]
    iv = grids.grids[k - 1].interval
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
    grids = segment_grids(problem.break_points, N, m_eff)
    iv = grids.grids[k - 1].interval
    if not iv.contains(x):
        raise ValueError(f"x={x} not inside segment {k}")
    layout = grids.layout
    if xi is None:
        xi = np.random.default_rng(seed).standard_normal(layout.total)
    xi = np.asarray(xi, dtype=float)
    blocks = segment_block(grids.specs[k - 1], iv, k, layout, problem.y0, problem.yf, x)
    rows = {d: (full_width(coeffs[0], layout, k), offsets[0]) for d, (coeffs, offsets) in blocks.items()}

    def state(vec):
        return tuple(rows[d][0] @ vec + rows[d][1] for d in (0, 1, 2))

    dyn = problem.segments[k - 1]
    xarr = np.asarray([x])

    def loss(vec):
        yv, dyv, d2yv = state(vec)
        return float(dyn.residual(xarr, np.asarray([yv]), np.asarray([dyv]), np.asarray([d2yv]))[0])

    yv, dyv, d2yv = state(xi)
    p0 = float(np.asarray(dyn.d_y(xarr, np.asarray([yv]), np.asarray([dyv]), np.asarray([d2yv])))[0])
    p1 = float(np.asarray(dyn.d_dy(xarr, np.asarray([yv]), np.asarray([dyv]), np.asarray([d2yv])))[0])
    p2 = float(np.asarray(dyn.d_d2y(xarr, np.asarray([yv]), np.asarray([dyv]), np.asarray([d2yv])))[0])
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
        ref = reference_jacobian_row(problem, grids, k, x, yv, dyv)
        result["vs_reference"] = float(np.max(np.abs(ref - chain)) / scale)
    return result
