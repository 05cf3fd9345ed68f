"""SolveResult's one evaluation path: each segment's constrained expression
with the solved unknowns folded in, y^(d) = (g^(d) - S_d phi) + S_d kappa.

The recurrence kernel's point path (oracles.segment_block at arbitrary
x) stays the reference it is compared with.
"""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from hybvp import basis, cli, solver
from hybvp.expressions import reference_block
from hybvp.problems import builtin, generic_linear
from hybvp.solver import SolveOptions, solve
from hybvp.switching import switching_functions
from oracles import per_order_values, segment_block, spec_of

HYPOTHESIS = settings(max_examples=25, deadline=None,
                      suppress_health_check=[HealthCheck.too_slow])
GEOMETRIES = st.tuples(st.lists(st.integers(1, 60), min_size=1, max_size=8),
                       st.sampled_from(["chebyshev", "legendre"]), st.integers(0, 2 ** 32 - 1))


def _solved(ms, family, seed):
    """A solve of y'' = a_k + sin(b_k x) on random segments of width 0.2..2, and its rng."""
    n = len(ms)
    rng = np.random.default_rng(seed)
    break_points = rng.uniform(-1.0, 1.0) + np.concatenate([[0.0], np.cumsum(rng.uniform(0.2, 2.0, n))])
    segments = [{"a2": [1.0], "f": {"poly": [float(rng.normal())],
                                    "terms": [{"fn": "sin", "k": float(rng.uniform(-3.0, 3.0))}]}}
                for _ in range(n)]
    problem = generic_linear({"break_points": break_points.tolist(), "y0": float(rng.normal()),
                              "yf": float(rng.normal()), "segments": segments})
    return solve(problem, SolveOptions(N=tuple(m + 4 for m in ms), m=tuple(ms), family=family)), rng


def _with_random_unknowns(result, rng):
    """result with O(1) junction pairs and coefficients that halve per degree."""
    layout = result.system.layout
    xi = rng.normal(size=layout.total)
    for k in range(1, layout.n_segments + 1):
        own = layout.xi_slice(k)
        xi[own] *= 0.5 ** np.arange(own.stop - own.start)
    return replace(result, xi=xi)


@HYPOTHESIS
@given(GEOMETRIES)
def test_pinned_end_values_come_back_bitwise_from_both_sides(geometry):
    result = _with_random_unknowns(*_solved(*geometry))
    problem, layout = result.problem, result.system.layout
    bp, n = problem.break_points, problem.n_segments
    assert result.segment_values(1, bp[0], 0)[0] == problem.y0
    assert result.segment_values(n, bp[-1], 0)[0] == problem.yf
    for j in range(1, n):
        for d, column in ((0, layout.junction_value_index(j)), (1, layout.junction_slope_index(j))):
            pinned = result.xi[column]
            assert result.segment_values(j, bp[j], d)[0] == pinned
            assert result.segment_values(j + 1, bp[j], d)[0] == pinned


@HYPOTHESIS
@given(GEOMETRIES)
def test_segment_values_agree_with_the_kernel_point_path(geometry):
    """To 1e-12 of the value on a solve; to 1e-12 of the summed terms for any Xi.

    With arbitrary unknowns y^(d) can be a small remainder of large
    cancelling terms, which both paths sum in different orders.
    """
    solved, rng = _solved(*geometry)
    for result, relative_to_terms in ((solved, False), (_with_random_unknowns(solved, rng), True)):
        problem, layout = result.problem, result.system.layout
        for k, iv in enumerate(result.system.intervals, 1):
            xs = np.concatenate([[iv.x0, iv.xf], rng.uniform(iv.x0, iv.xf, 40)])
            blocks = segment_block(spec_of(result.system, k), iv, k, layout, problem.y0, problem.yf, xs)
            local = result.xi[layout.window(k)]
            for d, (coeffs, offsets) in blocks.items():
                kernel = coeffs @ local + offsets
                scale = np.abs(coeffs) @ np.abs(local) + np.abs(offsets) if relative_to_terms \
                    else np.abs(kernel)
                values = result.segment_values(k, xs, d)
                assert np.all(np.abs(values - kernel) <= 1e-12 * np.maximum(1.0, scale))


def test_evaluate_dispatches_each_point_to_its_segment_in_any_order():
    result = solve(builtin("linear_linear"), SolveOptions(N=60, m=8))
    xs = np.random.default_rng(5).permutation(np.linspace(0.0, 1.0, 101))  # 0.5 is a junction
    for d in (0, 1, 2):
        values = result.evaluate(xs, d)
        left = xs <= 0.5
        assert np.array_equal(values[left], result.segment_values(1, xs[left], d))
        assert np.array_equal(values[~left], result.segment_values(2, xs[~left], d))
    assert result.evaluate(np.full((2, 3), 0.25)).shape == (2, 3)
    assert isinstance(result.evaluate(0.25, 1), float)


@pytest.mark.parametrize("x, d", [(-0.1, 0), (1.5, 0), (np.nan, 0), ([0.2, np.nan], 1),
                                  (0.5, -1), (0.5, 3), (0.5, 1.5)])
def test_evaluate_rejects_points_outside_the_domain_and_unknown_orders(x, d):
    result = solve(builtin("linear_linear"), SolveOptions(N=60, m=8))
    with pytest.raises(ValueError):
        result.evaluate(x, d)


def test_range_errors_name_the_segment_and_the_first_point_outside():
    result = solve(builtin("linear_linear"), SolveOptions(N=60, m=8))
    xs = np.linspace(0.6, 1.0, 500)
    xs[[7, 300]] = [0.1, np.nan]
    for x, first in ((xs, r"x\[7\] = 0\.1"), (xs[::-1], r"x\[199\] = nan")):
        with pytest.raises(ValueError, match=rf"^segment 2 {first} outside interval \[0\.5, 1\.0\]$"):
            result.segment_values(2, x)


def test_evaluate_range_errors_name_the_callers_index():
    result = solve(builtin("linear_linear"), SolveOptions(N=60, m=8))
    with pytest.raises(ValueError, match=r"^x\[2\] = 5\.0 outside interval \[0\.0, 1\.0\]$"):
        result.evaluate([0.1, 0.2, 5.0])
    # the index is into x flattened in C order, whatever segment it would land in
    xs = np.full((3, 4), 0.75)
    xs[1, 2] = -0.5
    xs[2, 0] = np.nan
    with pytest.raises(ValueError, match=r"^x\[6\] = -0\.5 outside interval \[0\.0, 1\.0\]$"):
        result.evaluate(xs, 1)
    with pytest.raises(ValueError, match=r"^x\[0\] = nan outside"):
        result.evaluate(np.nan)


@pytest.mark.parametrize("d", [True, False, np.bool_(True)])
def test_evaluate_rejects_a_bool_derivative_order(d):
    # a bool is never a number: True used to run as d = 1
    result = solve(builtin("linear_linear"), SolveOptions(N=60, m=8))
    with pytest.raises(ValueError, match=r"^derivative order must be 0\.\.2, got "):
        result.evaluate(0.1, d)


@pytest.mark.parametrize("d", [True, False, np.bool_(True)])
def test_segment_values_rejects_a_bool_derivative_order(d):
    result = solve(builtin("linear_linear"), SolveOptions(N=60, m=8))
    with pytest.raises(ValueError, match=r"^derivative order must be 0\.\.2, got "):
        result.segment_values(1, 0.1, d)


@pytest.mark.parametrize("d", [1.0, 0.0, np.float64(2.0), "1", None])
def test_evaluate_rejects_a_derivative_order_that_is_not_an_integer(d):
    # 1.0 in range(3) is true: a float order used to fail later with a bare TypeError
    result = solve(builtin("linear_linear"), SolveOptions(N=60, m=8))
    with pytest.raises(ValueError, match=r"^derivative order must be 0\.\.2, got "):
        result.evaluate(0.1, d)
    assert result.evaluate(0.1, np.int64(1)) == result.evaluate(0.1, 1)


@pytest.mark.parametrize("d", [1.0, 0.0, np.float64(2.0), "1", None])
def test_segment_values_rejects_a_derivative_order_that_is_not_an_integer(d):
    result = solve(builtin("linear_linear"), SolveOptions(N=60, m=8))
    with pytest.raises(ValueError, match=r"^derivative order must be 0\.\.2, got "):
        result.segment_values(1, 0.1, d)
    assert np.array_equal(result.segment_values(1, 0.1, np.int64(2)), result.segment_values(1, 0.1, 2))


@pytest.mark.parametrize("d", [7, -1, 1.0, True])
def test_evaluate_checks_the_order_of_an_empty_x(d):
    # an empty x reaches no segment, where the order used to be checked
    result = solve(builtin("linear_linear"), SolveOptions(N=60, m=8))
    with pytest.raises(ValueError, match=r"^derivative order must be 0\.\.2, got "):
        result.evaluate([], d)
    assert result.evaluate([], 2).shape == (0,)


def test_segment_values_rejects_an_unknown_segment():
    result = solve(builtin("linear_linear"), SolveOptions(N=60, m=8))
    for k in (0, 3):
        with pytest.raises(ValueError, match="segment index"):
            result.segment_values(k, 0.5)


def test_solve_leaves_evaluation_and_errors_to_first_use():
    result = solve(builtin("linear_linear"), SolveOptions(N=60, m=8))
    assert {"_series", "errors_by_order", "max_abs_err"}.isdisjoint(vars(result))
    assert result.max_abs_err == max(result.errors_by_order.values()) <= 1e-12
    unknown = generic_linear({"break_points": [0.0, 1.0], "y0": 0.0, "yf": 1.0,
                              "segments": [{"a2": [1.0], "f": [1.0]}]})
    bare = solve(unknown, SolveOptions(N=20, m=4))
    assert bare.errors_by_order is None and bare.max_abs_err is None


def test_evaluation_and_the_cli_table_run_no_basis_recurrence(monkeypatch):
    problem = builtin("nonlinear_nonlinear")
    result = solve(problem)
    calls, misses = [], reference_block.cache_info().misses
    for family, (val, der, vander) in list(basis.SERIES.items()):
        monkeypatch.setitem(basis.SERIES, family,
                            (val, der, lambda *args, vander=vander: calls.append(args) or vander(*args)))
    result.evaluate(np.linspace(0.0, 3.0, 301), 2)
    assert result.max_abs_err <= 1e-12
    cli._solution_table(problem, result, 200)
    assert calls == []
    assert reference_block.cache_info().misses == misses
    reference_block.__wrapped__("chebyshev", 5, 9, True, False)  # the counter does see a Vandermonde
    assert calls


@pytest.mark.parametrize("family", ["chebyshev", "legendre"])
@pytest.mark.parametrize("m", [1, 2, 12, 60])
def test_one_pass_over_all_orders_equals_a_clenshaw_sum_per_order_bitwise(family, m):
    """Compared as bytes, so that -0.0 against 0.0 counts: %.17g writes them differently.

    One segment is the single-segment role; three are first, middle and
    last.  At m = 1 and 2, g'' and g' are short enough for the len(c) <= 2
    branches of chebval and legval.
    """
    for ms in ([m], [m, m, m]):
        solved, rng = _solved(ms, family, m)
        for result in (solved, _with_random_unknowns(solved, rng)):
            bp = result.problem.break_points
            _, table, _ = cli._solution_table(result.problem, result, 37)
            for k, iv in enumerate(result.system.intervals, 1):
                xs = np.concatenate([[iv.x0, iv.xf], rng.uniform(iv.x0, iv.xf, 40)])
                together = result._segment_orders(k, xs, (0, 1, 2))
                backwards = result._segment_orders(k, xs, (2, 1, 0))[::-1]
                grid = np.linspace(bp[k - 1], bp[k], 37)
                for d in (0, 1, 2):
                    expected = per_order_values(result, k, xs, d).tobytes()
                    assert together[d].tobytes() == backwards[d].tobytes() == expected
                    assert result.segment_values(k, xs, d).tobytes() == expected
                    column = table[(k - 1) * 37:k * 37, 2 + d]
                    assert column.tobytes() == result.segment_values(k, grid, d).tobytes()


def test_errors_and_the_cli_table_take_one_switching_pass_per_segment_piece(monkeypatch, tmp_path):
    # each pass evaluates y, y' and y'' together on one segment's closed
    # interval: the CLI's table and its summary's error share one pass
    calls = []
    monkeypatch.setattr(solver, "switching_functions",
                        lambda *args: calls.append(args[-1]) or switching_functions(*args))
    for name in ("linear_linear", "linear_nonlinear", "nonlinear_nonlinear"):
        problem = builtin(name)
        calls.clear()
        assert cli.run(problem, cli.RunConfig(output=str(tmp_path / name))) == 0
        assert calls == [(0, 1, 2)] * problem.n_segments
        result = solve(problem)
        calls.clear()
        assert result.max_abs_err <= 1e-12
        assert calls == [(0, 1, 2)] * problem.n_segments
