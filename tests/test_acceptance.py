"""Acceptance gate: the ten reference criteria, one pass/fail line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines.
"""

import time

import numpy as np
import pytest

from hybvp.assembly import assemble_all
from hybvp.basis import Interval
from hybvp.expressions import UnknownLayout
from hybvp.problems import HybridProblem, builtin, generic_linear, nonlinear_dynamics
from hybvp.solver import (
    SolveOptions,
    _jacobian,
    _linearize,
    initial_guess,
    solve,
)
from oracles import (
    FAMILY_CONSTRAINTS,
    BasisSpec,
    all_points,
    alpha,
    beta,
    cascade_block,
    cascade_eval,
    dense_from_blocks,
    dense_matrix,
    dense_scaled_qr_lstsq,
    gamma,
    residual_partial_check,
    segment_row,
)


def _report(num, desc, ok, details):
    print(f"[acceptance {num:02d}] {desc}: {'PASS' if ok else 'FAIL'} ({details})")
    assert ok, f"criterion {num}: {desc} ({details})"


def test_criterion_01_linear_linear_reproduction():
    t0 = time.perf_counter()
    res = solve(builtin("linear_linear"), SolveOptions(N=100, m=8))
    elapsed = time.perf_counter() - t0
    (xj, yj, dyj), = res.junctions
    err = max(res.errors_by_order.values())
    ok = (res.converged
          and res.errors_by_order[0] <= 1e-12
          and res.errors_by_order[1] <= 1e-12
          and res.errors_by_order[2] <= 1e-12
          and abs(yj - 77.0 / 192.0) <= 1e-12
          and abs(dyj - 5.0 / 6.0) <= 1e-12
          and elapsed < 1.0)
    _report(1, "linear-linear sequence, N=100 m=8", ok,
            f"max|err|={err:.2e}, junction ({yj:.12f}, {dyj:.12f}), {elapsed * 1e3:.0f} ms")


def test_criterion_02_linear_nonlinear_reproduction():
    t0 = time.perf_counter()
    res = solve(builtin("linear_nonlinear"),
                SolveOptions(N=100, m=16, init_values=(1.0, -1.0)))
    elapsed = time.perf_counter() - t0
    ok = (res.converged
          and res.residual_norm <= 1e-12
          and res.iterations <= 30
          and res.errors_by_order[0] <= 1e-12
          and elapsed < 5.0)
    _report(2, "linear-nonlinear sequence, N=100 m=16, reference start", ok,
            f"|L|2={res.residual_norm:.2e}, iters={res.iterations}, "
            f"err={res.errors_by_order[0]:.2e}, {elapsed * 1e3:.0f} ms")


def test_criterion_03_nonlinear_nonlinear_reproduction():
    t0 = time.perf_counter()
    res = solve(builtin("nonlinear_nonlinear"),
                SolveOptions(N=100, m=60, init_values=(1.30685, -0.5)))
    elapsed = time.perf_counter() - t0
    ok = (res.converged
          and res.iterations <= 20
          and res.errors_by_order[0] <= 1e-11
          and elapsed < 10.0)
    _report(3, "nonlinear-nonlinear sequence, N=100 m=60, reference start", ok,
            f"iters={res.iterations}, err={res.errors_by_order[0]:.2e}, "
            f"{elapsed * 1e3:.0f} ms")


def test_criterion_04_line_initial_guess_robustness():
    counts = {}
    ok = True
    for name, m in (("linear_nonlinear", 16), ("nonlinear_nonlinear", 60)):
        res = solve(builtin(name), SolveOptions(N=100, m=m, max_iter=50))
        counts[name] = res.iterations
        ok = ok and res.converged and res.iterations <= 50
    _report(4, "line-policy initial guess converges for both nonlinear sequences", ok,
            f"iterations: linear_nonlinear={counts['linear_nonlinear']}, "
            f"nonlinear_nonlinear={counts['nonlinear_nonlinear']}")


def test_criterion_05_switching_identity_suite():
    rng = np.random.default_rng(99)
    sets = {
        "alpha": ([lambda iv, x, d, j=j: alpha(j, iv, x, d) for j in (1, 2)], "alpha"),
        "beta_first": ([lambda iv, x, d, j=j: beta(j, iv, x, d) for j in (1, 2, 3)], "beta_first"),
        "beta_last": ([lambda iv, x, d, j=j: beta(j, iv, x, d) for j in (4, 5, 6)], "beta_last"),
        "gamma": ([lambda iv, x, d, j=j: gamma(j, iv, x, d) for j in (1, 2, 3, 4)], "gamma"),
    }
    worst_identity = 0.0
    count = 0
    while count < 100:
        a, b = np.sort(rng.uniform(-10, 10, 2))
        if b - a < 1e-2:
            continue
        count += 1
        iv = Interval(a, b)
        ends = (iv.x0, iv.xf)
        for fns, cname in sets.values():
            mat = np.array([[fn(iv, ends[end], d) for fn in fns]
                            for d, end in FAMILY_CONSTRAINTS[cname]])
            worst_identity = max(worst_identity, float(np.max(np.abs(mat - np.eye(len(fns))))))
    worst_fd = 0.0
    h = 1e-6
    for _ in range(10):
        a, b = np.sort(rng.uniform(-8, 8, 2))
        if b - a < 0.5:
            continue
        iv = Interval(a, b)
        xs = np.linspace(a + 2 * h, b - 2 * h, 5)
        for fn, indices in ((alpha, (1, 2)), (beta, (1, 2, 3, 4, 5, 6)), (gamma, (1, 2, 3, 4))):
            for j in indices:
                for x in xs:
                    for d in (0, 1):
                        fd = (fn(j, iv, x + h, d) - fn(j, iv, x - h, d)) / (2 * h)
                        an = fn(j, iv, x, d + 1)
                        worst_fd = max(worst_fd, abs(fd - an) / max(1.0, abs(an)))
    ok = worst_identity <= 1e-14 and worst_fd <= 1e-7
    _report(5, "switching-function delta identities and derivative tables", ok,
            f"identity err={worst_identity:.2e}, derivative-vs-FD err={worst_fd:.2e}")


def test_criterion_06_constrained_expression_properties():
    rng = np.random.default_rng(2025)
    worst_boundary = 0.0
    worst_junction = 0.0
    for family in ("chebyshev", "legendre"):
        for _ in range(100):
            n = int(rng.integers(1, 6))
            cuts = np.sort(rng.uniform(-4, 4, n + 1))
            while np.min(np.diff(cuts)) < 0.2:
                cuts = np.sort(rng.uniform(-4, 4, n + 1))
            m = int(rng.integers(3, 7))
            layout = UnknownLayout(ms=(m,) * n)
            y0, yf = rng.standard_normal(2) * 2
            xi = rng.standard_normal(layout.total)

            def row(k, x, d):
                iv = Interval(cuts[k - 1], cuts[k])
                spec = BasisSpec.for_interval(family, m, iv)
                return segment_row(spec, iv, k, layout, y0, yf, x, d)

            worst_boundary = max(worst_boundary,
                                 abs(row(1, cuts[0], 0)(xi) - y0),
                                 abs(row(n, cuts[-1], 0)(xi) - yf))
            for j in range(1, n):
                for d in (0, 1):
                    worst_junction = max(worst_junction,
                                         abs(row(j, cuts[j], d)(xi) - row(j + 1, cuts[j], d)(xi)))
    ok = worst_boundary <= 1e-13 and worst_junction <= 1e-13
    _report(6, "boundary and C1 junction embedding before solving, n=1..5, both families", ok,
            f"boundary err={worst_boundary:.2e}, junction err={worst_junction:.2e}")


def test_criterion_07_jacobian_oracles():
    worst_ref = 0.0
    worst_fd = 0.0
    for name, pts in (("linear_nonlinear", ((1, 0.7), (2, 2.1))),
                      ("nonlinear_nonlinear", ((1, 0.5), (2, 1.9)))):
        p = builtin(name)
        for k, x in pts:
            out = residual_partial_check(p, k, x, m=12)
            worst_ref = max(worst_ref, out["vs_reference"])
            worst_fd = max(worst_fd, out["vs_finite_difference"])
    for k, x in ((1, 0.2), (2, 0.8)):
        out = residual_partial_check(builtin("linear_linear"), k, x)
        worst_fd = max(worst_fd, out["vs_finite_difference"])
    ok = worst_ref <= 1e-13 and worst_fd <= 1e-6
    _report(7, "chain-rule Jacobian vs closed forms and finite differences", ok,
            f"vs closed forms={worst_ref:.2e}, vs FD={worst_fd:.2e}")


def test_criterion_08_cascade_cross_validation():
    problem = builtin("linear_linear")
    iv1 = Interval(0.0, 0.5)
    iv2 = Interval(0.5, 1.0)
    m, N = 8, 100
    s1 = BasisSpec.for_interval("chebyshev", m, iv1)
    s2 = BasisSpec.for_interval("chebyshev", m, iv2)
    x_all = all_points(assemble_all(problem.break_points, N, m, "chebyshev", problem.y0, problem.yf))
    rows, offs = cascade_block(s1, s2, iv1, iv2, 0.0, 1.0, x_all, 2)
    forcing = np.where(x_all <= 0.5, x_all ** 2, x_all ** 2 + 1.0)
    xi, _ = dense_scaled_qr_lstsq(rows, forcing - offs)
    g1 = (s1, xi[:m])
    g2 = (s2, xi[m:])

    res = solve(problem, SolveOptions(N=N, m=m))
    worst = 0.0
    for seg in (iv1, iv2):
        xs = np.linspace(seg.x0, seg.xf, 500)
        casc = cascade_eval(g1, g2, iv1, iv2, 0.0, 1.0, xs, 0)
        param = res.evaluate(xs, 0)
        worst = max(worst, float(np.max(np.abs(casc - param))))
    ok = worst <= 1e-12
    _report(8, "embedded-continuity cascade vs relative-parameter solutions", ok,
            f"pointwise gap={worst:.2e}")


def _nonlinear_chain(break_points):
    segs = []
    for k in range(len(break_points) - 1):
        a = 1.0 + k

        def make(a):
            return nonlinear_dynamics(
                residual=lambda x, y, dy, d2y: d2y - a * dy ** 2,
                d_y=lambda x, y, dy, d2y: np.zeros_like(x),
                d_dy=lambda x, y, dy, d2y: -2.0 * a * dy,
                d_d2y=lambda x, y, dy, d2y: np.ones_like(x),
            )

        segs.append(make(a))
    return HybridProblem(break_points=tuple(break_points), segments=tuple(segs),
                         y0=1.0, yf=0.0, name="chain")


def test_criterion_09_block_structure():
    ok = True
    details = []
    for n, cuts in ((2, [0.0, 0.5, 1.0]), (3, [0.0, 0.4, 0.9, 1.5]), (4, [0.0, 0.3, 0.8, 1.2, 2.0])):
        system = assemble_all(cuts, 12, 5, "chebyshev", 1.0, -1.0)
        layout = system.layout
        problem = _nonlinear_chain(cuts)
        opts = SolveOptions(N=12, m=5)
        xi = initial_guess(problem, opts, layout)
        J = dense_from_blocks(_jacobian(system, _linearize(problem, system, xi)[1]), layout)
        mats = [dense_matrix(system, d) for d in (0, 1, 2)] + [J]
        for mat in mats:
            for k in range(1, n + 1):
                allowed = set(range(layout.xi_slice(k).start, layout.xi_slice(k).stop))
                for j in (k - 1, k):
                    if 1 <= j <= n - 1:
                        allowed |= {layout.junction_value_index(j), layout.junction_slope_index(j)}
                outside = sorted(set(range(layout.total)) - allowed)
                block = mat[system.row_slice(k)][:, outside]
                if not np.all(block == 0.0):
                    ok = False
                    details.append(f"n={n} segment {k} has nonzero padding")
    _report(9, "zero-padding blocks of stacked matrices and Jacobians, n=2..4", ok,
            "; ".join(details) if details else "all padding entries exactly 0.0")


def test_criterion_10_four_segment_generalization():
    cuts = [0.0, 0.25, 0.5, 0.75, 1.0]
    cfg = {
        "break_points": cuts,
        "y0": 0.0,
        "yf": 1.0,
        "segments": [{"a2": [1.0], "f": [float(k), 0.0, 1.0]} for k in range(1, 5)],
    }
    problem = generic_linear(cfg)
    opts = SolveOptions(N=30, m=8)
    res = solve(problem, opts)
    resid = _linearize(problem, res.system, res.xi, floor=False)[0]
    max_resid = float(np.max(np.abs(resid)))
    worst_junction = 0.0
    for j in range(1, 4):
        xj = cuts[j]
        before = np.nextafter(xj, 0.0)
        for d in (0, 1):
            worst_junction = max(worst_junction,
                                 abs(res.evaluate(before, d) - res.evaluate(xj, d)))
    ok = res.converged and max_resid <= 1e-11 and worst_junction <= 1e-13
    _report(10, "four-segment piecewise forcing via the config path", ok,
            f"max collocation residual={max_resid:.2e}, junction gap={worst_junction:.2e}")
