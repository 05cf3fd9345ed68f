import math
from unittest import mock

import numpy as np
import pytest

from hybvp import solver
from hybvp.assembly import assemble_all
from hybvp.expressions import UnknownLayout
from hybvp.problems import (
    HybridProblem,
    builtin,
    generic_linear,
    linear_dynamics,
    nonlinear_dynamics,
)
from hybvp.solver import (
    DIVERGENCE_WINDOW,
    DivergenceError,
    SolveOptions,
    _jacobian,
    _resolve_grids,
    _scaled_qr_lstsq,
    _stacked_residual,
    initial_guess,
    solve,
)
from oracles import (
    dense_from_blocks,
    dense_scaled_qr_lstsq,
    evaluate,
    linear_system,
    residual_partial_check,
)


def _block_lstsq(layout, blocks, b):
    return _scaled_qr_lstsq(blocks, b, layout)


def _dense_lstsq(layout, blocks, b):
    return dense_scaled_qr_lstsq(dense_from_blocks(blocks, layout), b)


SOLVERS = (_block_lstsq, _dense_lstsq)


def _random_blocks(rng, ms, Ns):
    """Random per-segment blocks over each segment's window, and their dense stack."""
    layout = UnknownLayout(ms=ms)
    blocks = [rng.standard_normal((N, layout.window(k).stop - layout.window(k).start))
              for k, N in enumerate(Ns, 1)]
    return layout, blocks, dense_from_blocks(blocks, layout)


def test_lstsq_identity_and_stacked_identity():
    b = np.array([1.0, -2.0, 3.0])
    one = UnknownLayout(ms=(3,))
    # two one-coefficient segments: rows e0, e1, e2 on segment 1 and e3 on
    # segment 2 make the 4 x 4 identity over (xi_1, y_1, y'_1, xi_2)
    two = UnknownLayout(ms=(1, 1))
    b4 = np.array([1.0, -2.0, 3.0, 0.5])
    for lstsq in SOLVERS:
        assert np.array_equal(lstsq(one, [np.eye(3)], b)[0], b)
        M = np.vstack([np.eye(3), np.eye(3)])
        bb = np.concatenate([b, b])
        assert np.allclose(lstsq(one, [M], bb)[0], b, atol=1e-15)
        x, diag = lstsq(two, [np.eye(3), np.array([[0.0, 0.0, 1.0]])], b4)
        assert np.allclose(x, b4, atol=1e-15) and diag.rank == 4


def test_lstsq_is_the_minimizer_among_perturbations():
    rng = np.random.default_rng(12)
    M = rng.standard_normal((50, 10))
    b = rng.standard_normal(50)
    cases = [(UnknownLayout(ms=(10,)), [M], M, b)]
    layout, blocks, dense = _random_blocks(rng, (3, 4, 2, 3), (9, 12, 7, 8))
    cases.append((layout, blocks, dense, rng.standard_normal(dense.shape[0])))
    for lstsq in SOLVERS:
        for layout, blocks, M, b in cases:
            x = lstsq(layout, blocks, b)[0]
            base = np.linalg.norm(M @ x - b)
            for _ in range(100):
                xp = x + rng.standard_normal(x.size) * rng.uniform(1e-6, 1.0)
                assert base <= np.linalg.norm(M @ xp - b) + 1e-12


def test_lstsq_flags_zero_columns_and_zeroes_their_unknowns():
    rng = np.random.default_rng(3)
    M = rng.standard_normal((20, 5))
    M[:, 2] = 0.0
    b = rng.standard_normal(20)
    # three segments with one zeroed local column (segment 2) and one
    # zeroed junction column (y'_2, shared by segments 2 and 3)
    layout, blocks, _ = _random_blocks(rng, (3, 4, 3), (9, 11, 8))
    blocks[1][:, 2 + 1] = 0.0
    blocks[1][:, -1] = 0.0
    blocks[2][:, 1] = 0.0
    dense = dense_from_blocks(blocks, layout)
    zeroed = [layout.xi_slice(2).start + 1, layout.junction_slope_index(2)]
    cases = [(UnknownLayout(ms=(5,)), [M], M, b, [2]),
             (layout, blocks, dense, rng.standard_normal(dense.shape[0]), zeroed)]
    for lstsq in SOLVERS:
        for layout, blocks, M, b, cols in cases:
            x, diag = lstsq(layout, blocks, b)
            assert diag.rank_deficient and diag.rank == M.shape[1] - len(cols)
            assert np.all(x[cols] == 0.0)
            # still minimizes over the remaining columns
            ref = np.linalg.lstsq(np.delete(M, cols, axis=1), b, rcond=None)[0]
            assert np.allclose(np.delete(x, cols), ref, atol=1e-12)


def test_lstsq_rejects_underdetermined_systems():
    for lstsq in SOLVERS:
        with pytest.raises(ValueError):
            lstsq(UnknownLayout(ms=(5,)), [np.ones((3, 5))], np.ones(3))
    # the block solver names the segment with fewer rows than own columns
    layout = UnknownLayout(ms=(2, 3))
    blocks = [np.ones((6, 4)), np.ones((2, 5))]
    with pytest.raises(ValueError, match="segment 2: 2 rows < 3"):
        _block_lstsq(layout, blocks, np.ones(8))


def test_solve_linear_accuracy_and_junction_values():
    res = solve(builtin("linear_linear"), SolveOptions(N=100, m=8))
    assert res.converged and res.iterations == 1
    assert res.errors_by_order[0] <= 1e-12
    assert res.errors_by_order[1] <= 1e-12
    assert res.errors_by_order[2] <= 1e-12
    (xj, yj, dyj), = res.junctions
    assert xj == 0.5
    assert abs(yj - 77.0 / 192.0) <= 1e-12
    assert abs(dyj - 5.0 / 6.0) <= 1e-12


def test_adding_basis_functions_leaves_solution_unchanged():
    p = generic_linear({"break_points": [0, 1], "y0": 0, "yf": 1, "segments": [{"a2": [1]}]})
    xs = np.linspace(0, 1, 101)
    r_small = solve(p, SolveOptions(N=40, m=4))
    r_big = solve(p, SolveOptions(N=40, m=12))
    assert np.max(np.abs(r_small.evaluate(xs) - xs)) <= 1e-12
    assert np.max(np.abs(r_big.evaluate(xs) - r_small.evaluate(xs))) <= 1e-12
    # the extra coefficients are estimated as (numerical) zeros
    assert np.max(np.abs(r_big.segment_coefficients(1)[4:])) <= 1e-12


def test_initial_guess_line_policy_linear_linear():
    p = builtin("linear_linear")
    opts = SolveOptions(N=20, m=5)
    grids = _resolve_grids(p, opts)
    xi = initial_guess(p, opts, grids)
    layout = grids.layout
    assert xi[layout.junction_value_index(1)] == 0.5
    assert xi[layout.junction_slope_index(1)] == 1.0
    assert np.all(xi[layout.xi_slice(1)] == 0.0)
    assert np.all(xi[layout.xi_slice(2)] == 0.0)


def test_initial_guess_explicit_policy_matches_reference_vectors():
    p = builtin("linear_nonlinear")
    opts = SolveOptions(N=20, m=5, init_values=(1.0, -1.0))
    grids = _resolve_grids(p, opts)
    xi = initial_guess(p, opts, grids)
    layout = grids.layout
    expect = np.zeros(layout.total)
    expect[layout.junction_value_index(1)] = 1.0
    expect[layout.junction_slope_index(1)] = -1.0
    assert np.array_equal(xi, expect)

    p = builtin("nonlinear_nonlinear")
    opts = SolveOptions(N=20, m=5, init_values=(1.30685, -0.5))
    grids = _resolve_grids(p, opts)
    xi = initial_guess(p, opts, grids)
    layout = grids.layout
    assert xi[layout.junction_value_index(1)] == 1.30685
    assert xi[layout.junction_slope_index(1)] == -0.5


def test_initial_guess_explicit_arity_checked():
    p = builtin("linear_nonlinear")
    opts = SolveOptions(N=20, m=5, init_values=(1.0,))
    grids = _resolve_grids(p, opts)
    with pytest.raises(ValueError):
        initial_guess(p, opts, grids)


def test_solve_nonlinear_linear_nonlinear_from_reference_start():
    res = solve(builtin("linear_nonlinear"),
                SolveOptions(N=100, m=16, init_values=(1.0, -1.0)))
    assert res.converged
    assert res.iterations <= 30
    assert res.residual_norm <= 1e-12
    assert res.errors_by_order[0] <= 1e-12


def test_solve_nonlinear_nonlinear_nonlinear_from_reference_start():
    res = solve(builtin("nonlinear_nonlinear"),
                SolveOptions(N=100, m=60, init_values=(1.30685, -0.5)))
    assert res.converged
    assert res.iterations <= 20
    assert res.errors_by_order[0] <= 1e-11


_TWO_TERMS = {"break_points": [0.0, 0.3, 1.0], "y0": 1.0, "yf": -0.5,
              "segments": [{"a2": [1.0, 0.5], "a1": [0.0, -2.0], "f": [1.0, 3.0]},
                           {"a2": [2.0], "a0": [-1.0, 0.5], "f": [0.0, 0.0, 1.0]}]}
_THREE_TERMS = (linear_dynamics(lambda x: 1.0 + x, 0.3, lambda x: -np.cos(x), np.exp),
                linear_dynamics(2.0, lambda x: -0.5 * x, -1.0, 1.0))
LINEAR_PROBLEMS = [
    # (problem, whether the Jacobian and Xi equal the oracle's bitwise, as
    # they do with unit-width segments and at most two nonzero coefficients)
    pytest.param(builtin("linear_linear"), True, id="linear_linear"),
    pytest.param(generic_linear(_TWO_TERMS), False, id="two_terms"),
    pytest.param(HybridProblem(break_points=(0.0, 0.4, 1.0), segments=_THREE_TERMS,
                               y0=0.2, yf=-0.7, name="three_terms"), False, id="three_terms"),
]


@pytest.mark.parametrize("p,bitwise", LINEAR_PROBLEMS)
def test_linear_solve_is_one_gauss_newton_step_on_the_direct_system(p, bitwise):
    opts = SolveOptions(N=40, m=20)
    grids = _resolve_grids(p, opts)
    system = assemble_all(grids, p.y0, p.yf)
    blocks, rhs = linear_system(p, grids, system)
    # the Jacobian is the direct matrix at any Xi, bitwise or up to
    # rounding: it scales the summed reference rows by powers of the
    # width, the oracle scales each block before summing
    xi = np.random.default_rng(7).standard_normal(grids.layout.total)
    for J, M in zip(_jacobian(p, grids, system, xi), blocks):
        if bitwise:
            assert np.array_equal(J, M)
        else:
            assert np.max(np.abs(J - M)) <= 1e-15 * np.max(np.abs(M))
    assert np.array_equal(-_stacked_residual(p, grids, system, np.zeros(grids.layout.total)), rhs)

    with mock.patch.object(solver, "_scaled_qr_lstsq", wraps=_scaled_qr_lstsq) as lstsq:
        res = solve(p, opts)
    assert lstsq.call_count == 1
    assert res.converged and res.iterations == 1
    direct = _scaled_qr_lstsq(blocks, rhs, grids.layout)[0]
    if bitwise:
        assert np.array_equal(res.xi, direct)
    else:
        assert np.all(np.abs(res.xi - direct) <= 1e-14 * (1.0 + np.abs(direct)))
    # junction seeds play no part, even ones of the wrong arity
    assert np.array_equal(solve(p, SolveOptions(N=40, m=20, init_values=(5.0,))).xi, res.xi)


def test_non_finite_linear_solve_raises():
    # the forcing is inf on part of the last segment; np.where raises no warning
    overflow = linear_dynamics(1.0, f=lambda x: np.where(x > 0.7, np.inf, 0.0))
    p = HybridProblem(break_points=(0.0, 0.5, 1.0), segments=(linear_dynamics(1.0), overflow),
                      y0=0.0, yf=1.0, name="overflow")
    with pytest.raises(DivergenceError, match="non-finite") as excinfo:
        solve(p, SolveOptions(N=20, m=5))
    assert excinfo.value.trace == []


def _fd_jacobian(problem, grids, system, xi, h=1e-6):
    n = grids.layout.total
    out = np.zeros((grids.total_points, n))
    for i in range(n):
        e = np.zeros(n)
        e[i] = h * max(1.0, abs(xi[i]))
        rp = _stacked_residual(problem, grids, system, xi + e)
        rm = _stacked_residual(problem, grids, system, xi - e)
        out[:, i] = (rp - rm) / (2 * e[i])
    return out


@pytest.mark.parametrize("name", ["linear_linear", "linear_nonlinear", "nonlinear_nonlinear"])
def test_jacobian_matches_finite_differences_at_start_and_solution(name):
    p = builtin(name)
    opts = SolveOptions(N=24, m=8)
    grids = _resolve_grids(p, opts)
    system = assemble_all(grids, p.y0, p.yf)
    states = [initial_guess(p, opts, grids), solve(p, opts).xi]
    for xi in states:
        J = dense_from_blocks(_jacobian(p, grids, system, xi), grids.layout)
        fd = _fd_jacobian(p, grids, system, xi)
        for col in range(J.shape[1]):
            scale = 1.0 + np.max(np.abs(J[:, col]))
            assert np.max(np.abs(fd[:, col] - J[:, col])) <= 1e-6 * scale


def test_jacobian_zero_blocks_bit_exact():
    p = builtin("nonlinear_nonlinear")
    opts = SolveOptions(N=15, m=6)
    grids = _resolve_grids(p, opts)
    system = assemble_all(grids, p.y0, p.yf)
    xi = initial_guess(p, opts, grids)
    layout = grids.layout
    J = dense_from_blocks(_jacobian(p, grids, system, xi), layout)
    assert np.all(J[grids.row_slice(1), layout.xi_slice(2)] == 0.0)
    assert np.all(J[grids.row_slice(2), layout.xi_slice(1)] == 0.0)


def test_converged_solutions_are_c1_at_junctions():
    for name, opts in [
        ("linear_linear", SolveOptions(N=60, m=8)),
        ("linear_nonlinear", SolveOptions(N=60, m=16)),
        ("nonlinear_nonlinear", SolveOptions(N=100, m=60)),
    ]:
        p = builtin(name)
        res = solve(p, opts)
        assert res.converged
        for j in range(1, p.n_segments):
            xj = p.break_points[j]
            before = np.nextafter(xj, p.break_points[0])
            for d in (0, 1):
                left = res.evaluate(before, d)
                right = res.evaluate(xj, d)
                assert abs(left - right) <= 1e-10 * max(1.0, abs(left))


def test_boundary_values_embedded_at_every_iterate():
    p = builtin("nonlinear_nonlinear")
    opts = SolveOptions(N=40, m=20)
    grids = _resolve_grids(p, opts)
    system = assemble_all(grids, p.y0, p.yf)
    xi = initial_guess(p, opts, grids)
    for _ in range(4):
        J = _jacobian(p, grids, system, xi)
        r = _stacked_residual(p, grids, system, xi)
        xi = xi - _scaled_qr_lstsq(J, r, grids.layout)[0]
        y = evaluate(system, xi, 0)
        assert abs(y[0] - p.y0) <= 1e-14 * max(1.0, abs(p.y0))
        assert abs(y[-1] - p.yf) <= 1e-14 * max(1.0, abs(p.yf))


def test_monotone_tail_of_converged_traces():
    for name, opts in [
        ("linear_nonlinear", SolveOptions(N=60, m=16)),
        ("nonlinear_nonlinear", SolveOptions(N=100, m=60)),
    ]:
        res = solve(builtin(name), opts)
        assert res.converged
        tail = res.residual_trace[-3:]
        assert all(a >= b for a, b in zip(tail, tail[1:]))


def test_unconverged_result_is_returned_not_raised():
    res = solve(builtin("nonlinear_nonlinear"), SolveOptions(N=60, m=40, max_iter=2))
    assert not res.converged
    assert res.iterations == 2
    assert len(res.residual_trace) == 2


def test_divergence_raises_with_trace():
    # residual doubles on every evaluation no matter the state: the Newton
    # step can only cancel the previous level, so the trace keeps growing
    counter = {"n": 0}

    def residual(x, y, dy, d2y):
        counter["n"] += 1
        return d2y + (2.0 ** counter["n"]) * (1.0 + x)

    dyn = nonlinear_dynamics(
        residual=residual,
        d_y=lambda x, y, dy, d2y: np.zeros_like(x),
        d_dy=lambda x, y, dy, d2y: np.zeros_like(x),
        d_d2y=lambda x, y, dy, d2y: np.ones_like(x),
    )
    p = HybridProblem(break_points=(0.0, 1.0), segments=(dyn,), y0=0.0, yf=0.0,
                      name="runaway")
    with pytest.raises(DivergenceError) as excinfo:
        solve(p, SolveOptions(N=20, m=5))
    trace = excinfo.value.trace
    assert len(trace) >= DIVERGENCE_WINDOW
    assert trace[-1] > trace[-2] > trace[-3]


def test_options_validation():
    with pytest.raises(ValueError):
        SolveOptions(tol=0.0)
    with pytest.raises(ValueError):
        SolveOptions(max_iter=0)
    with pytest.raises(ValueError):
        solve(builtin("linear_linear"), SolveOptions(N=10, m=8))


def _three_segment_log_problem():
    """y'' = y'^2 on three segments; the global solution is 2 - log(x+1)."""
    def seg():
        return nonlinear_dynamics(
            residual=lambda x, y, dy, d2y: d2y - dy ** 2,
            d_y=lambda x, y, dy, d2y: np.zeros_like(x),
            d_dy=lambda x, y, dy, d2y: -2.0 * dy,
            d_d2y=lambda x, y, dy, d2y: np.ones_like(x),
        )

    return HybridProblem(
        break_points=(0.0, 0.5, 1.2, 2.0),
        segments=(seg(), seg(), seg()),
        y0=2.0,
        yf=2.0 - math.log(3.0),
        name="log_chain",
    )


def test_three_segment_nonlinear_solve_recovers_global_solution():
    p = _three_segment_log_problem()
    res = solve(p, SolveOptions(N=60, m=24))
    assert res.converged
    xs = np.linspace(0.0, 2.0, 801)
    exact = 2.0 - np.log(xs + 1.0)
    assert np.max(np.abs(res.evaluate(xs) - exact)) <= 1e-12
    # interior junction unknowns land on the global solution
    for xj, yj, dyj in res.junctions:
        assert abs(yj - (2.0 - math.log(xj + 1.0))) <= 1e-12
        assert abs(dyj - (-1.0 / (xj + 1.0))) <= 1e-12


def test_middle_segment_jacobian_matches_finite_differences():
    p = _three_segment_log_problem()
    out = residual_partial_check(p, 2, 0.8, m=10)
    assert out["vs_finite_difference"] <= 1e-6
    assert out["vs_reference"] is None


def test_legendre_family_solves_to_the_same_accuracy():
    res = solve(builtin("linear_linear"), SolveOptions(N=60, m=8, family="legendre"))
    assert res.converged
    assert res.errors_by_order[0] <= 1e-12
    assert abs(res.junctions[0][1] - 77.0 / 192.0) <= 1e-12


def test_runtime_of_reference_solves_is_modest():
    import time

    t0 = time.perf_counter()
    solve(builtin("linear_linear"), SolveOptions(N=100, m=8))
    assert time.perf_counter() - t0 < 1.0
