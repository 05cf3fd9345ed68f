import math
import re

import numpy as np
import pytest
from numpy.polynomial import polynomial as npoly

from hybvp.basis import FAMILIES
from hybvp.problems import (
    HybridProblem,
    _poly_fn,
    analytic_value,
    builtin,
    generic_linear,
    linear_dynamics,
)
from hybvp.solver import SolveOptions, solve
from oracles import residual_partial_check


def test_builtin_catalog_and_break_points():
    ll = builtin("linear_linear")
    assert ll.break_points == (0.0, 0.5, 1.0)
    assert (ll.y0, ll.yf) == (0.0, 1.0)
    assert ll.default_m == 8

    ln = builtin("linear_nonlinear")
    assert ln.break_points[1] == math.pi / 2 and ln.break_points[2] == math.pi
    assert ln.default_m == 16
    E = math.exp(math.pi / 2)
    assert ln.y0 == 0.9 + 0.1 * E * (5 - 2 * E)
    assert abs(ln.y0 - (-1.32290)) < 1e-5
    assert ln.yf == 1.0 / E

    nn = builtin("nonlinear_nonlinear")
    assert nn.break_points == (0.0, 1.0, 3.0)
    assert nn.y0 == 2.0
    assert nn.yf == 2.0 - math.log(11264.0) / 10.0
    assert nn.default_m == 60

    with pytest.raises(ValueError):
        builtin("spline_spline")


def test_boundary_values_match_analytic_solution_endpoints():
    for name in ("linear_linear", "linear_nonlinear", "nonlinear_nonlinear"):
        p = builtin(name)
        assert abs(analytic_value(p, p.break_points[0], 0) - p.y0) < 1e-13
        assert abs(analytic_value(p, p.break_points[-1], 0) - p.yf) < 1e-13


def test_linear_linear_junction_closed_forms():
    p = builtin("linear_linear")
    assert abs(analytic_value(p, 0.5, 0) - 77.0 / 192.0) < 1e-16
    assert abs(analytic_value(p, 0.5, 1) - 5.0 / 6.0) < 1e-15
    # both pieces agree there (continuity oracle)
    piece2 = p.solution[1][0](0.5)
    assert abs(piece2 - 77.0 / 192.0) < 1e-15


def test_linear_nonlinear_junction_values():
    p = builtin("linear_nonlinear")
    x1 = math.pi / 2
    assert abs(analytic_value(p, x1, 0) - 1.0) < 1e-14
    assert abs(analytic_value(p, x1, 1) - (-1.0)) < 1e-14


def test_nonlinear_nonlinear_junction_values():
    p = builtin("nonlinear_nonlinear")
    assert abs(analytic_value(p, 1.0, 0) - (2.0 - math.log(2.0))) < 1e-14
    assert abs(analytic_value(p, 1.0, 1) - (-0.5)) < 1e-14
    assert abs(analytic_value(p, 1.0, 0) - 1.306853) < 1e-6


def test_analytic_value_guards():
    p = builtin("linear_linear")
    with pytest.raises(ValueError):
        analytic_value(p, 2.0, 0)
    with pytest.raises(ValueError):
        analytic_value(p, 0.5, 3)
    q = generic_linear({"break_points": [0, 1], "y0": 0, "yf": 1, "segments": [{"a2": [1]}]})
    with pytest.raises(ValueError):
        analytic_value(q, 0.5, 0)


@pytest.mark.parametrize("d", [True, False, np.bool_(True)])
def test_analytic_value_rejects_a_bool_derivative_order(d):
    # a bool is never a number: True used to run as d = 1
    with pytest.raises(ValueError, match=rf"^derivative order must be 0\.\.2, got {re.escape(repr(d))}$"):
        analytic_value(builtin("linear_linear"), 0.1, d)


@pytest.mark.parametrize("d", [1.0, 0.0, np.float64(2.0), "1", None])
def test_analytic_value_rejects_a_derivative_order_that_is_not_an_integer(d):
    # 1.0 in (0, 1, 2) is true: a float order used to fail later with a bare TypeError
    p = builtin("linear_linear")
    with pytest.raises(ValueError, match=rf"^derivative order must be 0\.\.2, got {re.escape(repr(d))}$"):
        analytic_value(p, 0.1, d)
    assert analytic_value(p, 0.1, np.int64(1)) == analytic_value(p, 0.1, 1)


@pytest.mark.parametrize("key", ["y0", "yf"])
@pytest.mark.parametrize("value", ["a", None, True, np.array(True), 10 ** 400, [0.5]],
                         ids=["str", "None", "bool", "bool_array", "huge_int", "list"])
def test_problem_names_a_boundary_value_that_is_not_a_number(key, value):
    # "a" and None used to raise a bare TypeError from math.isfinite
    given = {"y0": 0.0, "yf": 1.0, key: value}
    with pytest.raises(ValueError, match=rf"^{key}: expected a number, got "):
        HybridProblem(break_points=(0.0, 1.0), segments=(linear_dynamics(a2=1.0),), **given)
    # a numpy scalar or a 0-d array is the number it holds
    for number in (np.float64(0.5), np.array(0.5), 2):
        HybridProblem(break_points=(0.0, 1.0), segments=(linear_dynamics(a2=1.0),), **{**given, key: number})


@pytest.mark.parametrize("family", FAMILIES)
@pytest.mark.parametrize("at", [0, 1])
def test_problem_names_a_segment_that_is_not_segment_dynamics(family, at):
    # a segment is its linearize callable: anything else is named at construction
    segments = [linear_dynamics(a2=1.0)] * 2
    segments[at] = (linear_dynamics(a2=1.0), True)
    with pytest.raises(ValueError, match=rf"^segments\[{at}\]: expected a linearize callable, got \("):
        HybridProblem((0.0, 0.5, 1.0), tuple(segments), 0.0, 1.0)
    # and a bare residual function, which returns L alone, by the solve
    segments[at] = lambda x, y, dy, d2y: d2y
    problem = HybridProblem((0.0, 0.5, 1.0), tuple(segments), 0.0, 1.0)
    with pytest.raises(ValueError, match=rf"^segment {at + 1}: linearize returned ndarray, expected \(L, "):
        solve(problem, SolveOptions(N=20, m=4, family=family))


@pytest.mark.parametrize("key,value", [
    ("segments", 5), ("segments", linear_dynamics(a2=1.0)), ("segments", (linear_dynamics(a2=1.0),) * 2),
    ("solution", 5), ("solution", lambda x: x)],
    ids=["segments_int", "segments_callable", "segments_count", "solution_int", "solution_callable"])
def test_problem_names_segments_or_solution_that_is_not_a_sequence(key, value):
    # but for the count, each used to raise a bare TypeError from len()
    given = {"segments": (linear_dynamics(a2=1.0),), "solution": None, key: value}
    with pytest.raises(ValueError, match=rf"^{key}: expected one "):
        HybridProblem(break_points=(0.0, 1.0), y0=0.0, yf=1.0, **given)


def test_analytic_value_names_the_first_point_outside_the_domain():
    p = builtin("linear_linear")
    with pytest.raises(ValueError, match=r"x\[1\] = nan outside interval \[0.0, 1.0\]"):
        analytic_value(p, [0.2, math.nan], 0)
    with pytest.raises(ValueError, match=r"x\[0\] = -0.5 outside"):
        analytic_value(p, -0.5, 1)


def test_problem_names_a_malformed_closed_form():
    # either of the first two used to construct, and max_abs_err then raised a bare IndexError
    p = builtin("linear_linear")
    y, dy, d2y = p.solution[0]
    for solution, at in [((p.solution[0],), 1), (((y, dy), p.solution[1]), 0),
                         ((p.solution[0], (y, dy, 0.0)), 1), ((*p.solution, p.solution[1]), 2)]:
        with pytest.raises(ValueError, match=rf"^solution\[{at}\]: expected one \(y, y', y''\) triple "
                                             r"of callables per segment, 2 in all, got "):
            HybridProblem(p.break_points, p.segments, p.y0, p.yf, solution=solution)


@pytest.mark.parametrize("bp,bad", [((0.0, math.nan, 1.0), r"break_points\[1\] = nan"),
                                    ((0.0, math.inf), r"break_points\[1\] = inf"),
                                    ((-math.inf, 0.0), r"break_points\[0\] = -inf")])
def test_problem_rejects_non_finite_break_points(bp, bad):
    segments = (linear_dynamics(a2=1.0),) * (len(bp) - 1)
    with pytest.raises(ValueError, match=bad + " is not finite"):
        HybridProblem(break_points=bp, segments=segments, y0=0.0, yf=1.0)
    with pytest.raises(ValueError, match=bad):
        generic_linear({"break_points": list(bp), "y0": 0, "yf": 1,
                        "segments": [{"a2": [1]}] * (len(bp) - 1)})



@pytest.mark.parametrize("bp", [[0, None, 1], [0, "a", 1]])
def test_config_break_points_that_are_not_numbers_are_named(bp):
    with pytest.raises(ValueError, match="break_points: expected numbers"):
        generic_linear({"break_points": bp, "y0": 0, "yf": 1, "segments": [{"a2": [1]}] * 2})


@pytest.mark.parametrize("change,path", [
    ({"break_points": [False, True]}, r"break_points: expected numbers, got \[False, True\]"),
    ({"y0": True}, r"y0: expected a number, got True"),
    ({"yf": False}, r"yf: expected a number, got False"),
    ({"segments": [{"a2": [True]}]}, r"segments\[0\]\.a2\[0\]: expected a number, got True"),
    ({"segments": [{"a2": [1], "a0": [0, False]}]}, r"segments\[0\]\.a0\[1\]: expected a number"),
    ({"segments": [{"a2": [1], "f": [True]}]}, r"segments\[0\]\.f\[0\]: expected a number"),
    ({"segments": [{"a2": [1], "f": {"poly": [1, True]}}]}, r"segments\[0\]\.f\.poly\[1\]"),
    ({"segments": [{"a2": [1], "f": {"terms": [{"fn": "sin", "mul": True}]}}]},
     r"segments\[0\]\.f\.terms\[0\]\.mul: expected a number, got True"),
    # an integer beyond the float range used to end in an uncaught OverflowError
    ({"yf": 10 ** 400}, r"yf: expected a number, got 1000"),
    ({"break_points": [0, 10 ** 400]}, r"break_points: expected numbers"),
    ({"segments": [{"a2": [1], "a1": [10 ** 400]}]}, r"segments\[0\]\.a1\[0\]: expected a number"),
])
def test_config_booleans_and_out_of_range_integers_are_not_numbers(change, path):
    # {"break_points": [false, true], "y0": true} used to build a problem on [0, 1] with y0 = 1
    config = {"break_points": [0, 1], "y0": 0, "yf": 1, "segments": [{"a2": [1]}], **change}
    with pytest.raises(ValueError, match=path):
        generic_linear(config)


@pytest.mark.parametrize("name", ["linear_linear", "linear_nonlinear", "nonlinear_nonlinear"])
def test_analytic_solutions_satisfy_their_residuals(name):
    p = builtin(name)
    for k in range(1, p.n_segments + 1):
        xs = np.linspace(p.break_points[k - 1], p.break_points[k], 1000)
        y, dy, d2y = (p.solution[k - 1][d](xs) for d in (0, 1, 2))
        resid = p.segments[k - 1](xs, y, dy, d2y)[0]
        assert np.max(np.abs(resid)) <= 1e-12, f"{name} segment {k}"


@pytest.mark.parametrize("name", ["linear_linear", "linear_nonlinear", "nonlinear_nonlinear"])
def test_analytic_solutions_are_c1_at_junctions(name):
    p = builtin(name)
    for j in range(1, p.n_segments):
        xj = p.break_points[j]
        for d in (0, 1):
            left = p.solution[j - 1][d](xj)
            right = p.solution[j][d](xj)
            assert abs(left - right) <= 1e-13 * max(1.0, abs(left))


def test_linear_partials_do_not_depend_on_state():
    p = builtin("linear_linear")
    rng = np.random.default_rng(0)
    x = np.array([0.25])
    for dyn in p.segments:
        s1 = rng.standard_normal(3)
        s2 = rng.standard_normal(3)
        for d in (0, 1, 2):
            a = dyn(x, np.array([s1[0]]), np.array([s1[1]]), np.array([s1[2]]))[1][d]
            b = dyn(x, np.array([s2[0]]), np.array([s2[1]]), np.array([s2[2]]))[1][d]
            assert np.array_equal(a, b)


def test_nonlinear_partial_factors_from_the_closed_forms():
    nn = builtin("nonlinear_nonlinear")
    x = np.array([2.0])
    y, dy, d2y = np.array([1.0]), np.array([-0.25]), np.array([0.5])
    # second segment: d(residual)/d(y') = -2 * 10 * y' = -20 y'
    assert nn.segments[1](x, y, dy, d2y)[1][1][0] == -20.0 * dy[0]
    assert nn.segments[0](x, y, dy, d2y)[1][1][0] == -2.0 * dy[0]

    ln = builtin("linear_nonlinear")
    assert ln.segments[1](x, y, dy, d2y)[1][0][0] == dy[0]
    assert ln.segments[1](x, y, dy, d2y)[1][1][0] == y[0]


_LL_CONFIG = {
    "break_points": [0.0, 0.5, 1.0],
    "y0": 0.0,
    "yf": 1.0,
    "segments": [
        {"a2": [1.0], "f": [0.0, 0.0, 1.0]},
        {"a2": [1.0], "f": [1.0, 0.0, 1.0]},
    ],
}


def test_generic_linear_reproduces_builtin_solution():
    custom = generic_linear(_LL_CONFIG)
    ref = builtin("linear_linear")
    opts = SolveOptions(N=60, m=8)
    r1 = solve(custom, opts)
    r2 = solve(ref, opts)
    assert np.max(np.abs(r1.xi - r2.xi)) <= 1e-13
    xs = np.linspace(0, 1, 301)
    assert np.max(np.abs(r1.evaluate(xs) - r2.evaluate(xs))) <= 1e-13


def test_generic_linear_single_segment_line():
    p = generic_linear({"break_points": [0, 1], "y0": 0, "yf": 1, "segments": [{"a2": [1]}]})
    res = solve(p, SolveOptions(N=30, m=6))
    xs = np.linspace(0, 1, 101)
    assert np.max(np.abs(res.evaluate(xs) - xs)) < 1e-13


def test_generic_linear_harmonic_oscillator_hits_sine():
    p = generic_linear({
        "break_points": [0.0, math.pi / 2],
        "y0": 0.0,
        "yf": 1.0,
        "segments": [{"a2": [1.0], "a0": [1.0]}],
    })
    res = solve(p, SolveOptions(N=60, m=14))
    xs = np.linspace(0, math.pi / 2, 500)
    assert np.max(np.abs(res.evaluate(xs) - np.sin(xs))) < 1e-10


def test_generic_linear_forcing_terms():
    p = generic_linear({
        "break_points": [0.0, 1.0],
        "y0": 1.0,
        "yf": math.e,
        "segments": [{"a2": [1.0], "f": {"poly": [0.0], "terms": [{"fn": "exp", "k": 1.0, "mul": 1.0}]}}],
    })
    res = solve(p, SolveOptions(N=50, m=14))
    xs = np.linspace(0, 1, 200)
    assert np.max(np.abs(res.evaluate(xs) - np.exp(xs))) < 1e-12


def test_generic_linear_validation_messages():
    with pytest.raises(ValueError, match="break_points not strictly increasing"):
        generic_linear({**_LL_CONFIG, "break_points": [0.0, 1.0, 0.5]})
    with pytest.raises(ValueError, match="count mismatch"):
        generic_linear({**_LL_CONFIG, "segments": _LL_CONFIG["segments"][:1]})
    bad = {**_LL_CONFIG, "segments": [{"a2": [0.0], "f": [0.0]}, {"a2": [1.0]}]}
    with pytest.raises(ValueError, match=r"segments\[0\].a2: leading coefficient identically zero"):
        generic_linear(bad)
    bad = {**_LL_CONFIG, "segments": [{"a2": [1.0], "f": {"poly": [0], "terms": [{"fn": "tanh"}]}},
                                      {"a2": [1.0]}]}
    with pytest.raises(ValueError, match="unknown forcing term"):
        generic_linear(bad)
    with pytest.raises(ValueError, match="non-finite"):
        generic_linear({**_LL_CONFIG, "y0": math.inf})
    with pytest.raises(ValueError, match=r"segments\[1\].a1"):
        generic_linear({**_LL_CONFIG,
                        "segments": [{"a2": [1.0]}, {"a2": [1.0], "a1": [math.nan]}]})


def test_residual_partial_check_linear_problem():
    p = builtin("linear_linear")
    out = residual_partial_check(p, 1, 0.3)
    assert out["vs_finite_difference"] <= 1e-7
    out = residual_partial_check(p, 2, 0.9)
    assert out["vs_finite_difference"] <= 1e-7


@pytest.mark.parametrize("name,k,x", [
    ("linear_nonlinear", 1, 0.7),
    ("linear_nonlinear", 2, 2.0),
    ("nonlinear_nonlinear", 1, 0.4),
    ("nonlinear_nonlinear", 2, 2.2),
])
def test_residual_partial_check_against_closed_forms(name, k, x):
    p = builtin(name)
    out = residual_partial_check(p, k, x, m=12)
    assert out["vs_finite_difference"] <= 1e-6
    assert out["vs_reference"] is not None
    assert out["vs_reference"] <= 1e-13


def test_residual_partial_check_guards():
    p = builtin("linear_linear")
    with pytest.raises(ValueError):
        residual_partial_check(p, 3, 0.1)
    with pytest.raises(ValueError):
        residual_partial_check(p, 1, 0.9)


def test_linear_dynamics_residual_identity():
    rng = np.random.default_rng(1)
    dyn = linear_dynamics(a2=lambda x: 1 + x, a1=2.0, a0=lambda x: x ** 2, f=lambda x: np.sin(x))
    x = rng.uniform(0, 1, 20)
    y, dy, d2y = rng.standard_normal((3, 20))
    expect = (1 + x) * d2y + 2.0 * dy + x ** 2 * y - np.sin(x)
    assert np.allclose(dyn(x, y, dy, d2y)[0], expect, rtol=0, atol=1e-15)


@pytest.mark.parametrize("length", range(1, 9))
def test_poly_fn_is_bitwise_polyval(length):
    # coefficients spanning 24 decades, with signed zeros among them
    rng = np.random.default_rng(length)
    coeffs = rng.standard_normal(length) * 10.0 ** rng.integers(-12, 13, length)
    coeffs[1::3] = -0.0
    coeffs[2::5] = 0.0
    fn = _poly_fn(coeffs.tolist(), "c")
    x = np.concatenate([[0.0, -0.0, -1.0, 1.0, -2.5, 1e-300, -1e30], rng.uniform(-3.0, 3.0, 38)])
    for points in (x, x.reshape(5, 9), x.tolist(), np.array(-0.0), -0.75, np.float64(2.0)):
        got, want = fn(points), npoly.polyval(np.asarray(points, dtype=float), coeffs)
        assert type(got) is type(want) and np.shape(got) == np.shape(want)
        assert np.asarray(got).tobytes() == np.asarray(want).tobytes()
