import math
import re
from unittest import mock

import numpy as np
import pytest

from hybvp import solver
from hybvp.basis import FAMILIES
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
    _linearize,
    _scaled_qr_lstsq,
    initial_guess,
    resolve_sizes,
    solve,
)
from oracles import (
    dense_from_blocks,
    dense_scaled_qr_lstsq,
    discretize,
    evaluate,
    linear_system,
    residual_partial_check,
)


def _block_lstsq(layout, blocks, b):
    return _scaled_qr_lstsq(list(blocks), b, layout)  # it consumes the list


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
    layout = discretize(p, opts).layout
    xi = initial_guess(p, opts, layout)
    assert xi[layout.junction_value_index(1)] == 0.5
    assert xi[layout.junction_slope_index(1)] == 1.0
    assert np.all(xi[layout.xi_slice(1)] == 0.0)
    assert np.all(xi[layout.xi_slice(2)] == 0.0)


def test_initial_guess_explicit_policy_matches_reference_vectors():
    p = builtin("linear_nonlinear")
    opts = SolveOptions(N=20, m=5, init_values=(1.0, -1.0))
    layout = discretize(p, opts).layout
    xi = initial_guess(p, opts, layout)
    expect = np.zeros(layout.total)
    expect[layout.junction_value_index(1)] = 1.0
    expect[layout.junction_slope_index(1)] = -1.0
    assert np.array_equal(xi, expect)

    p = builtin("nonlinear_nonlinear")
    opts = SolveOptions(N=20, m=5, init_values=(1.30685, -0.5))
    layout = discretize(p, opts).layout
    xi = initial_guess(p, opts, layout)
    assert xi[layout.junction_value_index(1)] == 1.30685
    assert xi[layout.junction_slope_index(1)] == -0.5


def test_initial_guess_explicit_arity_checked():
    # the count depends on the problem: resolve_sizes checks it, for solve and the CLI alike
    p = builtin("linear_nonlinear")
    opts = SolveOptions(N=20, m=5, init_values=(1.0,))
    message = r"^SolveOptions\.init_values: expected 2 values \(value, slope per junction\), got 1$"
    for call in (resolve_sizes, solve):
        with pytest.raises(ValueError, match=message):
            call(p, opts)


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
    system = discretize(p, opts)
    blocks, rhs = linear_system(p, system)
    # the Jacobian is the direct matrix at any Xi, bitwise or up to
    # rounding: it scales the summed reference rows by powers of the
    # width, the oracle scales each block before summing
    xi = np.random.default_rng(7).standard_normal(system.layout.total)
    for J, M in zip(_jacobian(system, _linearize(p, system, xi)[1]), blocks):
        if bitwise:
            assert np.array_equal(J, M)
        else:
            assert np.max(np.abs(J - M)) <= 1e-15 * np.max(np.abs(M))
    assert np.array_equal(-_linearize(p, system, np.zeros(system.layout.total), floor=False)[0], rhs)

    # from Xi = 0 the one step solves the direct system, whose right-hand side is -L(0)
    zero = SolveOptions(N=40, m=20, init_values=(0.0, 0.0))
    with mock.patch.object(solver, "_scaled_qr_lstsq", wraps=_scaled_qr_lstsq) as lstsq:
        res = solve(p, zero)
    assert lstsq.call_count == 1
    assert res.converged and res.iterations == 1
    direct = _scaled_qr_lstsq(blocks, rhs, system.layout)[0]
    if bitwise:
        assert np.array_equal(res.xi, direct)
    else:
        assert np.all(np.abs(res.xi - direct) <= 1e-14 * (1.0 + np.abs(direct)))
    # from the straight-line seeds the step lands on the same solution, to rounding
    seeded = solve(p, opts)
    assert seeded.converged and seeded.iterations <= 2
    assert np.all(np.abs(seeded.xi - direct) <= 1e-14 * (1.0 + np.abs(direct)))


def test_non_finite_linear_solve_raises():
    # the forcing is inf on part of the last segment; np.where raises no warning
    overflow = linear_dynamics(1.0, f=lambda x: np.where(x > 0.7, np.inf, 0.0))
    p = HybridProblem(break_points=(0.0, 0.5, 1.0), segments=(linear_dynamics(1.0), overflow),
                      y0=0.0, yf=1.0, name="overflow")
    with pytest.raises(DivergenceError, match="non-finite") as excinfo:
        solve(p, SolveOptions(N=20, m=5))
    assert excinfo.value.trace == []


def _counted(calls: list, name: str, fn):
    def wrapped(*args):
        calls.append((name, args))
        return fn(*args)
    return wrapped


def test_a_linearize_pass_evaluates_each_linear_coefficient_once_per_segment():
    # four calls per segment: the residual and the three partials share them
    calls = []
    segments = tuple(linear_dynamics(*(_counted(calls, name, fn) for name, fn in
                                       (("a2", lambda x: 1.0 + x), ("a1", np.sin),
                                        ("a0", np.cos), ("f", np.exp))))
                     for _ in range(3))
    p = HybridProblem((0.0, 0.25, 0.5, 1.0), segments, y0=0.0, yf=1.0)
    system = discretize(p, SolveOptions(N=20, m=6))
    _linearize(p, system, np.zeros(system.layout.total))
    assert [name for name, _ in calls] == ["a2", "a1", "a0", "f"] * 3
    for k in range(1, 4):
        assert all(args[0] is system.points[k - 1] for _, args in calls[4 * (k - 1):4 * k])


def test_nonlinear_dynamics_calls_each_callable_once_per_segment_with_one_state():
    calls = []
    segments = tuple(nonlinear_dynamics(*(_counted(calls, name, fn) for name, fn in
                                          (("residual", lambda x, y, dy, d2y: d2y - dy * dy),
                                           ("d_y", lambda x, y, dy, d2y: np.zeros_like(x)),
                                           ("d_dy", lambda x, y, dy, d2y: -2.0 * dy),
                                           ("d_d2y", lambda x, y, dy, d2y: np.ones_like(x)))))
                     for _ in range(2))
    p = HybridProblem((0.0, 0.5, 1.0), segments, y0=0.0, yf=1.0)
    system = discretize(p, SolveOptions(N=20, m=6))
    _linearize(p, system, initial_guess(p, SolveOptions(), system.layout))
    assert [name for name, _ in calls] == ["residual", "d_y", "d_dy", "d_d2y"] * 2
    for k in (1, 2):
        first, *rest = (args for _, args in calls[4 * (k - 1):4 * k])
        assert first[0] is system.points[k - 1]
        assert all(a is b for args in rest for a, b in zip(args, first))


def _second_segment(**change):
    """y'' = 0 on [0, 0.5], then y'' = 0 posed by nonlinear_dynamics with one callable changed."""
    parts = {"residual": lambda x, y, dy, d2y: d2y,
             "d_y": lambda x, y, dy, d2y: np.zeros_like(x),
             "d_dy": lambda x, y, dy, d2y: np.zeros_like(x),
             "d_d2y": lambda x, y, dy, d2y: np.ones_like(x), **change}
    return HybridProblem((0.0, 0.5, 1.0), (linear_dynamics(1.0), nonlinear_dynamics(**parts)),
                         y0=0.0, yf=1.0)


@pytest.mark.parametrize("family", FAMILIES)
@pytest.mark.parametrize("change,message", [
    # a scalar residual used to be broadcast: converged=True after one step with ||L|| = 0
    ({"residual": lambda x, y, dy, d2y: float(np.sum(d2y))}, r"residual has shape \(\), expected \(20,\)"),
    ({"residual": lambda x, y, dy, d2y: d2y[:-1]}, r"residual has shape \(19,\), expected \(20,\)"),
    ({"d_dy": lambda x, y, dy, d2y: dy[:, None]},
     r"dL/dy' has shape \(20, 1\), expected \(20,\) or a constant"),
    ({"d_d2y": lambda x, y, dy, d2y: np.ones(3)}, r"dL/dy'' has shape \(3,\), expected \(20,\) or a constant"),
], ids=["scalar_residual", "short_residual", "column_partial", "short_partial"])
def test_a_linearize_output_of_the_wrong_shape_names_its_segment(family, change, message):
    with pytest.raises(ValueError, match=rf"^segment 2: {message}$"):
        solve(_second_segment(**change), SolveOptions(N=20, m=4, family=family))


def test_a_linearize_with_two_partials_names_its_segment():
    def two(x, y, dy, d2y):
        return d2y, (0.0, 1.0)

    p = HybridProblem((0.0, 0.5, 1.0), (linear_dynamics(1.0), two), y0=0.0, yf=1.0)
    with pytest.raises(ValueError, match=r"^segment 2: linearize returned 2 partials, expected 3$"):
        solve(p, SolveOptions(N=20, m=4))


@pytest.mark.parametrize("family", FAMILIES)
def test_a_constant_partial_is_broadcast_over_the_points(family):
    opts = SolveOptions(N=20, m=4, family=family)
    constant = solve(_second_segment(d_dy=lambda x, y, dy, d2y: 0.0,
                                     d_d2y=lambda x, y, dy, d2y: 1), opts)
    assert np.array_equal(constant.xi, solve(_second_segment(), opts).xi)


def _fd_jacobian(problem, system, xi, h=1e-6):
    n = system.layout.total
    out = np.zeros((system.total_points, n))
    for i in range(n):
        e = np.zeros(n)
        e[i] = h * max(1.0, abs(xi[i]))
        rp = _linearize(problem, system, xi + e, floor=False)[0]
        rm = _linearize(problem, system, xi - e, floor=False)[0]
        out[:, i] = (rp - rm) / (2 * e[i])
    return out


@pytest.mark.parametrize("name", ["linear_linear", "linear_nonlinear", "nonlinear_nonlinear"])
def test_jacobian_matches_finite_differences_at_start_and_solution(name):
    p = builtin(name)
    opts = SolveOptions(N=24, m=8)
    system = discretize(p, opts)
    states = [initial_guess(p, opts, system.layout), solve(p, opts).xi]
    for xi in states:
        J = dense_from_blocks(_jacobian(system, _linearize(p, system, xi)[1]), system.layout)
        fd = _fd_jacobian(p, system, xi)
        for col in range(J.shape[1]):
            scale = 1.0 + np.max(np.abs(J[:, col]))
            assert np.max(np.abs(fd[:, col] - J[:, col])) <= 1e-6 * scale


def test_jacobian_zero_blocks_bit_exact():
    p = builtin("nonlinear_nonlinear")
    opts = SolveOptions(N=15, m=6)
    system = discretize(p, opts)
    layout = system.layout
    xi = initial_guess(p, opts, layout)
    J = dense_from_blocks(_jacobian(system, _linearize(p, system, xi)[1]), layout)
    assert np.all(J[system.row_slice(1), layout.xi_slice(2)] == 0.0)
    assert np.all(J[system.row_slice(2), layout.xi_slice(1)] == 0.0)


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
    system = discretize(p, opts)
    xi = initial_guess(p, opts, system.layout)
    for _ in range(4):
        r, partials, _ = _linearize(p, system, xi)
        J = _jacobian(system, partials)
        xi = xi - _scaled_qr_lstsq(J, r, system.layout)[0]
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
    # an unknown basis fails where it is given, before any solve
    for family in ("fourier", "Chebyshev", "", None):
        with pytest.raises(ValueError, match=r"^SolveOptions\.family: expected one of "
                                             r"\('chebyshev', 'legendre'\), got "):
            SolveOptions(family=family)
    assert SolveOptions(family="legendre").family == "legendre"
    with pytest.raises(ValueError, match=r"^SolveOptions\.N: need N >= m \+ 4 collocation points "
                                         r"per segment, got N=10, m=8$"):
        solve(builtin("linear_linear"), SolveOptions(N=10, m=8))
    # N and m are never truncated: a bool, a fraction or a size below 1 fails where it is given
    for given, message in ((dict(m=7.9, N=20.6), r"^SolveOptions\.N: must be an integer >= 1, got 20\.6$"),
                           (dict(m=7.9, N=20), r"^SolveOptions\.m: must be an integer >= 1, got 7\.9$"),
                           (dict(m=True, N=10), r"^SolveOptions\.m: must be an integer >= 1, got True$"),
                           (dict(m=4, N=(12, np.float64(12.5))),
                            r"^SolveOptions\.N: must be an integer >= 1, got .*12\.5"),
                           (dict(m=(4, np.bool_(True)), N=12), r"^SolveOptions\.m: must be an integer >= 1"),
                           (dict(m=4, N="12"), r"^SolveOptions\.N: must be an integer >= 1, got '12'$"),
                           (dict(m=4, N=math.nan), r"^SolveOptions\.N: must be an integer >= 1, got nan$"),
                           (dict(m=0), r"^SolveOptions\.m: must be an integer >= 1, got 0$"),
                           (dict(m=(8, -2.0)), r"^SolveOptions\.m: must be an integer >= 1, got -2$")):
        with pytest.raises(ValueError, match=message):
            SolveOptions(**given)
    # an integral float is stored as the int it holds, and a 0-d array as the scalar it holds
    opts = SolveOptions(m=8.0, N=np.float64(20.0))
    assert (opts.N, opts.m) == (20, 8) and type(opts.N) is int and type(opts.m) is int
    res = solve(builtin("linear_linear"), opts)
    assert res.system.layout.ms == (8, 8) and res.system.total_points == 40
    assert np.array_equal(res.xi, solve(builtin("linear_linear"), SolveOptions(m=8, N=20)).xi)
    res = solve(builtin("linear_linear"), SolveOptions(N=np.array(40), m=np.array(8.0)))
    assert res.system.layout.ms == (8, 8) and res.system.total_points == 80
    assert np.array_equal(res.xi, solve(builtin("linear_linear"), SolveOptions(N=40, m=8)).xi)
    # a 1-d array stays one value per segment
    res = solve(builtin("linear_linear"), SolveOptions(N=np.array([40, 30]), m=8))
    assert [len(x) for x in res.system.points] == [40, 30]
    with pytest.raises(ValueError, match=r"^SolveOptions\.N: expected 2 per-segment values, got 1$"):
        solve(builtin("linear_linear"), SolveOptions(N=np.array([40]), m=8))
    with pytest.raises(ValueError, match=r"^SolveOptions\.m: must be an integer >= 1, got True$"):
        SolveOptions(N=40, m=np.array(True))


@pytest.mark.parametrize("value", [math.inf, math.nan, -1.0, True, "1e-13", None])
def test_options_reject_a_tol_that_is_not_a_positive_finite_number(value):
    # an infinite tol used to accept the first step of nonlinear_nonlinear,
    # 0.65 away from the solution, as converged
    with pytest.raises(ValueError, match=r"SolveOptions\.tol: must be a positive finite number"):
        SolveOptions(tol=value)


@pytest.mark.parametrize("value", [2.5, True, "5", 0])
def test_options_reject_a_max_iter_that_is_not_a_positive_integer(value):
    # a float used to fail late, inside solve, with a bare TypeError from range
    with pytest.raises(ValueError, match=r"SolveOptions\.max_iter: must be an integer >= 1"):
        SolveOptions(max_iter=value)
    # an integral value is stored as the int it holds, as for N and m
    for integral in (np.int64(3), 3.0):
        assert type(SolveOptions(max_iter=integral).max_iter) is int
        assert SolveOptions(max_iter=integral).max_iter == 3


@pytest.mark.parametrize("value,shown", [
    (5, "a list of numbers, got 5"), ("12", "a list of numbers, got '12'"),
    ((1.0, math.nan), "a finite number, got nan"), ((1.0, math.inf), "a finite number, got inf"),
    ((True, False), "a finite number, got True"), ([None, 1.0], "a finite number, got None")])
def test_options_reject_seeds_that_are_not_finite_numbers(value, shown):
    # each used to fail late inside solve, after RuntimeWarnings, or to be read as numbers
    with pytest.raises(ValueError, match=r"^SolveOptions\.init_values: expected " + re.escape(shown) + "$"):
        SolveOptions(init_values=value)
    assert SolveOptions(init_values=[1, np.float64(-0.5)]).init_values == (1.0, -0.5)


@pytest.mark.parametrize("default_m", [2.5, -3, True])
def test_a_problem_default_m_gets_the_rule_of_m(default_m):
    # 2.5 used to end in a bare TypeError from numpy's Vandermonde, -3 in an unnamed ValueError
    p = HybridProblem((0.0, 1.0), (linear_dynamics(a2=1.0),), 0.0, 1.0, default_m=default_m)
    with pytest.raises(ValueError, match=r"^HybridProblem\.default_m: must be an integer >= 1, got "
                                         + re.escape(repr(default_m)) + "$"):
        solve(p, SolveOptions(N=20))
    assert solve(p, SolveOptions(N=20, m=4)).converged


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


def test_public_api_holds_only_what_users_call():
    import hybvp

    assert sorted(hybvp.__all__) == [
        "BUILTIN_NAMES", "DivergenceError", "HybridProblem", "SolveOptions", "SolveResult",
        "analytic_value", "builtin", "generic_linear", "linear_dynamics", "nonlinear_dynamics",
        "solve"]
    assert all(hasattr(hybvp, name) for name in hybvp.__all__)
