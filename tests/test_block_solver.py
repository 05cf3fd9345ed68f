"""The block-elimination least-squares solver against the dense oracle.

The dense column-pivoted QR in oracles.py is the path the block solver
replaced; both are backward stable, so on well-conditioned systems
their solutions agree to a few units of rounding times the condition
number.  Generated linear problems are drawn from a well-posed class
(a2 > 0, a0 <= 0, mild advection, segments of width 0.2..1), whose
least-squares conditioning keeps the two solvers within 1e-12; an
oscillatory or near-resonant ODE would be ill-conditioned in both.
"""

import math
import tracemalloc
from unittest import mock

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from hybvp import solver
from hybvp.assembly import assemble_all
from hybvp.basis import FAMILIES
from hybvp.problems import (
    HybridProblem,
    builtin,
    generic_linear,
    linear_dynamics,
    nonlinear_dynamics,
)
from hybvp.solver import SolveOptions, solve
from oracles import (dense_from_blocks, dense_scaled_qr_lstsq, layout_of, system_block,
                     windows_and_roles)

HYPOTHESIS = settings(max_examples=25, deadline=None,
                      suppress_health_check=[HealthCheck.too_slow])


def _dense_lstsq(blocks, rhs, windows, roles):
    return dense_scaled_qr_lstsq(dense_from_blocks(blocks, layout_of(roles)), rhs)


def _recorded_systems(run):
    """(blocks, rhs, layout) of every least-squares solve made by run()."""
    calls = []
    block_lstsq = solver._scaled_qr_lstsq

    def spy(blocks, rhs, windows, roles):
        layout = layout_of(roles)
        assert windows == windows_and_roles(layout)[0]
        calls.append((list(blocks), rhs, layout))  # the solver consumes blocks
        return block_lstsq(blocks, rhs, windows, roles)

    with mock.patch.object(solver, "_scaled_qr_lstsq", spy):
        run()
    return calls


def _assert_agree(blocks, rhs, layout):
    windows, roles = windows_and_roles(layout)
    xb, db = solver._scaled_qr_lstsq(list(blocks), rhs, windows, roles)  # it consumes the list
    xd, dd = _dense_lstsq(blocks, rhs, windows, roles)
    assert np.all(np.abs(xb - xd) <= 1e-12 * (1.0 + np.abs(xd)))
    M = dense_from_blocks(blocks, layout)
    rb, rd = np.linalg.norm(M @ xb - rhs), np.linalg.norm(M @ xd - rhs)
    # relative 1e-10, floored at the rounding level of a residual the
    # data fits exactly
    assert abs(rb - rd) <= 1e-10 * rd + 1e-14 * np.linalg.norm(rhs)
    assert (db.columns, db.rank, db.rank_deficient) == (dd.columns, dd.rank, dd.rank_deficient)
    return xb, db


@st.composite
def geometries(draw):
    n = draw(st.integers(1, 8))
    ms = draw(st.lists(st.integers(3, 10), min_size=n, max_size=n))
    Ns = [m + draw(st.integers(4, 16)) for m in ms]
    family = draw(st.sampled_from(["chebyshev", "legendre"]))
    seed = draw(st.integers(0, 2 ** 32 - 1))
    return n, tuple(ms), tuple(Ns), family, np.random.default_rng(seed)


def _break_points(rng, n):
    return tuple(np.concatenate([[0.0], np.cumsum(rng.uniform(0.2, 1.0, n))]))


def _linear_problem(rng, n):
    segments = []
    for _ in range(n):
        a2, a1, a0 = rng.uniform(0.5, 1.5), rng.uniform(-0.5, 0.5), -rng.uniform(0, 1)
        c = rng.uniform(-1, 1)
        segments.append(linear_dynamics(a2, a1, a0, lambda x, c=c: np.exp(c * x) + np.sin(3 * x)))
    return HybridProblem(break_points=_break_points(rng, n), segments=tuple(segments),
                         y0=rng.normal(), yf=rng.normal(), name="generated_linear")


def _nonlinear_problem(rng, n):
    segments = []
    for _ in range(n):
        a, c = rng.uniform(0.5, 1.5), rng.uniform(-1, 1)
        segments.append(nonlinear_dynamics(
            residual=lambda x, y, dy, d2y, a=a, c=c: d2y - a * dy * dy - np.cos(c * x),
            d_y=lambda x, y, dy, d2y: np.zeros_like(x),
            d_dy=lambda x, y, dy, d2y, a=a: -2.0 * a * dy,
            d_d2y=lambda x, y, dy, d2y: np.ones_like(x)))
    return HybridProblem(break_points=_break_points(rng, n), segments=tuple(segments),
                         y0=rng.uniform(-0.5, 0.5), yf=rng.uniform(-0.5, 0.5),
                         name="generated_nonlinear")


@HYPOTHESIS
@given(geometries())
def test_linear_solve_agrees_with_the_dense_oracle(geometry):
    n, ms, Ns, family, rng = geometry
    problem = _linear_problem(rng, n)
    opts = SolveOptions(N=Ns, m=ms, family=family)
    # the first step's system; a second step, if any, solves for rounding-level corrections
    blocks, rhs, layout = _recorded_systems(lambda: solve(problem, opts))[0]
    xb, db = _assert_agree(blocks, rhs, layout)
    assert not db.rank_deficient

    # one zeroed own column, plus one zeroed junction column when there is one
    k = int(rng.integers(1, n + 1))
    own = layout.own_in_window(k)
    blocks = [b.copy() for b in blocks]
    blocks[k - 1][:, own.start + int(rng.integers(ms[k - 1]))] = 0.0
    zeroed = 1
    if n > 1:
        j = int(rng.integers(1, n))
        col = layout.junction_value_index(j) + int(rng.integers(2))
        for seg in (j, j + 1):
            blocks[seg - 1][:, col - layout.window(seg).start] = 0.0
        zeroed = 2
    x, diag = _assert_agree(blocks, rhs, layout)
    assert diag.rank_deficient and diag.rank == layout.total - zeroed


@HYPOTHESIS
@given(geometries())
def test_gauss_newton_step_agrees_with_the_dense_oracle(geometry):
    n, ms, Ns, family, rng = geometry
    problem = _nonlinear_problem(rng, n)
    opts = SolveOptions(N=Ns, m=ms, family=family, max_iter=1)
    (blocks, rhs, layout), = _recorded_systems(lambda: solve(problem, opts))
    _, diag = _assert_agree(blocks, rhs, layout)
    assert not diag.rank_deficient


def test_well_resolved_linear_problems_converge_in_at_most_two_steps():
    # the first step from the junction seeds lands within rounding of the
    # solution; where its ||L|| sits just above F, a second step takes it
    # below.  A single step from zero left 5 of these 50 unconverged (72 of
    # the first 400 seeds of this draw)
    steps = []
    for seed in range(50):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 9))
        ms = tuple(int(m) for m in rng.integers(20, 41, n))
        Ns = tuple(int(m + rng.integers(4, 31)) for m in ms)
        res = solve(_linear_problem(rng, n), SolveOptions(N=Ns, m=ms, family=FAMILIES[seed % 2]))
        assert res.converged and res.iterations <= 2, seed
        steps.append(res.iterations)
    assert steps.count(1) > steps.count(2)


def test_builtin_solutions_agree_with_the_dense_oracle():
    for name in ("linear_linear", "linear_nonlinear", "nonlinear_nonlinear"):
        problem = builtin(name)
        block = solve(problem)
        with mock.patch.object(solver, "_scaled_qr_lstsq", _dense_lstsq):
            dense = solve(problem)
        assert block.converged and dense.converged
        xs = np.linspace(problem.break_points[0], problem.break_points[-1], 2001)
        for d in (0, 1, 2):
            assert np.max(np.abs(block.evaluate(xs, d) - dense.evaluate(xs, d))) <= 1e-12


def test_errors_by_order_equal_the_per_segment_evaluation_bitwise():
    # each segment against its own closed form on its closed interval: a
    # junction counts from both sides
    for name in ("linear_linear", "linear_nonlinear", "nonlinear_nonlinear"):
        for family in ("chebyshev", "legendre"):
            problem = builtin(name)
            result = solve(problem, SolveOptions(family=family))
            for d in (0, 1, 2):
                worst = 0.0
                for k, iv in enumerate(result.system.intervals, 1):
                    xs = np.linspace(iv.x0, iv.xf, 1000)
                    approx = result.segment_values(k, xs, d)
                    worst = max(worst, float(np.max(np.abs(approx - problem.solution[k - 1][d](xs)))))
                assert result.errors_by_order[d] == worst


def _chain(n):
    return generic_linear({"break_points": np.linspace(0.0, 1.0, n + 1).tolist(), "y0": 0.0, "yf": 1.0,
                           "segments": [{"a2": [1.0], "f": [math.sin(k), 0.0, 1.0]} for k in range(n)]})


def _solve_peak_mib(n):
    problem = _chain(n)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        result = solve(problem, SolveOptions(N=40, m=12))
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert result.converged
    return peak / 2 ** 20


def test_blocks_span_only_each_segment_window():
    system = assemble_all([0.0, 1.0, 2.0, 3.0, 4.0], (9, 10, 11, 12), (3, 4, 5, 6), "chebyshev", 0.0, 1.0)
    widths = [window.stop - window.start for window in system.windows]
    assert widths == [3 + 2, 4 + 4, 5 + 4, 6 + 2]
    for k, N in enumerate((9, 10, 11, 12), 1):
        for d in (0, 1, 2):
            A, B = system_block(system, k, d)
            assert A.shape == (N, widths[k - 1]) and B.shape == (N,)


def test_solve_consumes_the_jacobian_blocks_and_keeps_compact_factors():
    # holding every Jacobian block through the solve, and factors that were
    # views of whole LAPACK work arrays, took this solve to 1.09 MiB
    assert _solve_peak_mib(64) < 0.75
    problem, opts = _chain(64), SolveOptions(N=40, m=12)
    system = assemble_all(problem.break_points, *solver.resolve_sizes(problem, opts), opts.family,
                          problem.y0, problem.yf)
    residual, partials, _ = solver._linearize(problem, system, np.zeros(system.total))
    blocks = solver._jacobian(system, partials)
    solver._scaled_qr_lstsq(blocks, residual, system.windows, system.roles)
    assert len(blocks) == 64 and all(block is None for block in blocks)


def test_solve_memory_is_linear_in_the_segment_count():
    # a dense 64-segment system alone is 2560 x 894 doubles, 17 MiB
    assert _solve_peak_mib(64) < 16.0
    # dense storage and QR grow the peak about 16-fold from 32 to 128 segments
    assert _solve_peak_mib(128) <= 6.0 * _solve_peak_mib(32)
