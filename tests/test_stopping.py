"""The Gauss-Newton stopping rule ||L|| <= max(tol, F), F the rounding floor of L."""

import numpy as np
import pytest

from hybvp import assembly
from hybvp.basis import FAMILIES
from hybvp.problems import HybridProblem, builtin, generic_linear, nonlinear_dynamics
from hybvp.solver import (
    DivergenceError,
    SolveOptions,
    _jacobian,
    _linearize,
    _scaled_qr_lstsq,
    initial_guess,
    solve,
)
from oracles import discretize, rounding_floor


def _scaled(problem: HybridProblem, s: float) -> HybridProblem:
    """problem with its residual and all three partials multiplied by s."""
    def times(linearize):
        def scaled(*state):
            L, partials = linearize(*state)
            return s * L, tuple(s * p for p in partials)
        return scaled

    segments = tuple(times(dyn) for dyn in problem.segments)
    return HybridProblem(problem.break_points, segments, problem.y0, problem.yf,
                         name=problem.name, solution=problem.solution, default_m=problem.default_m)


def _manufactured_chain(n: int, seed: int):
    """y'' - a_k y'^2 = f_k on n equal segments of [0, 1], and its closed form.

    The solution sin(2x)/2 + cosh(x) + sum_j q_j max(x - x_j, 0)^2 / 2 is
    C1, with a jump q_j in y'' at junction x_j.  Returns the problem and
    exact(k, x, d), the d-th derivative on segment k (0-based).
    """
    rng = np.random.default_rng(seed)
    bp = np.linspace(0.0, 1.0, n + 1)
    a = rng.uniform(0.5, 1.5, n)
    q = rng.uniform(-1.0, 1.0, n - 1)

    def exact(k, x, d):
        x = np.asarray(x, dtype=float)
        r = x[:, None] - bp[1:k + 1]  # the junctions left of segment k
        jumps = (0.5 * (r * r) @ q[:k], r @ q[:k], np.full_like(x, q[:k].sum()))[d]
        base = (0.5 * np.sin(2 * x) + np.cosh(x), np.cos(2 * x) + np.sinh(x),
                -2.0 * np.sin(2 * x) + np.cosh(x))[d]
        return base + jumps

    def segment(k):
        ak = float(a[k])

        def residual(x, y, dy, d2y):
            return d2y - ak * dy * dy - (exact(k, x, 2) - ak * exact(k, x, 1) ** 2)

        return nonlinear_dynamics(residual,
                                  d_y=lambda x, y, dy, d2y: np.zeros_like(x),
                                  d_dy=lambda x, y, dy, d2y: -2.0 * ak * dy,
                                  d_d2y=lambda x, y, dy, d2y: np.ones_like(x))

    problem = HybridProblem(tuple(bp), tuple(segment(k) for k in range(n)),
                            y0=float(exact(0, [0.0], 0)[0]), yf=float(exact(n - 1, [1.0], 0)[0]),
                            name=f"chain_{n}_{seed}")
    return problem, exact


def _iterates(problem, opts, steps):
    """The system and the Gauss-Newton iterates from the start, taken by hand."""
    system = discretize(problem, opts)
    xi = initial_guess(problem, opts, system.layout)
    out = [xi]
    for _ in range(steps):
        residual, partials, _ = _linearize(problem, system, xi)
        xi = xi - _scaled_qr_lstsq(_jacobian(system, partials), residual, system.layout)[0]
        out.append(xi)
    return system, out


@pytest.mark.parametrize("problem,opts", [
    (builtin("linear_linear"), SolveOptions(N=30, m=8)),
    (builtin("linear_nonlinear"), SolveOptions(N=40, m=16, family="legendre")),
    (builtin("nonlinear_nonlinear"), SolveOptions(N=50, m=30)),
    (_manufactured_chain(6, 3)[0], SolveOptions(N=20, m=8)),
], ids=["linear_linear", "linear_nonlinear", "nonlinear_nonlinear", "chain_6"])
def test_floor_matches_the_dense_formula(problem, opts):
    system, iterates = _iterates(problem, opts, 4)
    for xi in iterates:
        floor = _linearize(problem, system, xi)[2]
        dense = rounding_floor(problem, system, xi)
        assert floor > 0.0
        assert abs(floor - dense) <= 1e-12 * dense


def test_single_segment_floor_bounds_the_dense_formula():
    # one segment pins y0 and yf: the floor bounds the offsets' rounding by
    # |E_d| |(y0, yf)|, which is at least |B^(d)| = |E_d (y0, yf)|
    problem = HybridProblem((0.0, 2.0), builtin("nonlinear_nonlinear").segments[:1],
                            y0=1.5, yf=-0.5)
    system, iterates = _iterates(problem, SolveOptions(N=30, m=12), 3)
    for xi in iterates:
        floor = _linearize(problem, system, xi)[2]
        dense = rounding_floor(problem, system, xi)
        assert dense * (1.0 - 1e-12) <= floor <= 2.0 * dense


@pytest.mark.parametrize("family", ["chebyshev", "legendre"])
def test_built_ins_keep_their_step_counts_and_record_the_threshold(family):
    for name, steps in (("linear_linear", 1), ("linear_nonlinear", 7), ("nonlinear_nonlinear", 6)):
        problem = builtin(name)
        res = solve(problem, SolveOptions(family=family))
        assert res.converged and res.iterations == steps, name
        assert res.residual_norm <= res.tolerance
        # one rule for linear and nonlinear problems: max(tol, F) at the last iterate
        assert res.tolerance == max(1e-13, _linearize(problem, res.system, res.xi)[2]), name


def _linear_chain(n: int, seed: int) -> HybridProblem:
    """y'' = x^2 + c_k on n equal segments of [0, 1], y(0) = 0, y(1) = 1, from a config."""
    c = np.random.default_rng(seed).uniform(-2.0, 2.0, n)
    return generic_linear({"break_points": np.linspace(0.0, 1.0, n + 1).tolist(),
                           "y0": 0.0, "yf": 1.0,
                           "segments": [{"a2": [1.0], "f": [float(ck), 0.0, 1.0]} for ck in c]})


@pytest.mark.parametrize("problem,opts", [
    (builtin("linear_linear"), SolveOptions()),
    (builtin("linear_linear"), SolveOptions(family="legendre")),
    (_linear_chain(64, 5), SolveOptions(N=40, m=12)),
], ids=["linear_linear-chebyshev", "linear_linear-legendre", "chain_64"])
def test_a_linear_solve_is_tested_against_its_rounding_floor(problem, opts):
    res = solve(problem, opts)
    floor = _linearize(problem, res.system, res.xi)[2]
    dense = rounding_floor(problem, res.system, res.xi)
    assert abs(floor - dense) <= 1e-12 * dense
    assert res.converged is True and res.iterations == 1  # a bool, not an np.bool_, where F > tol
    assert res.tolerance == max(opts.tol, floor)
    if problem.n_segments == 64:
        # the floor, not tol, is the threshold, and far below the old
        # 1e-12 (1 + ||L(0)||) = 5.2e-8
        assert opts.tol < res.tolerance < 1e-9


@pytest.mark.parametrize("family", FAMILIES)
def test_an_under_resolved_linear_solve_is_not_converged(family):
    # y'' = e^{2x}, then 1 + x^2: at m = 9 the exponential's series is cut off
    # where ||L|| = 3.9e-12, about 170 F; the old linear threshold, 4.3e-11,
    # called it converged
    problem = generic_linear({
        "break_points": [0.0, 0.5, 1.0], "y0": 0.0, "yf": 1.0,
        "segments": [{"a2": [1.0], "f": {"poly": [0.0], "terms": [{"fn": "exp", "k": 2.0}]}},
                     {"a2": [1.0], "f": [1.0, 0.0, 1.0]}]})
    res = solve(problem, SolveOptions(N=40, m=9, family=family))
    floor = _linearize(problem, res.system, res.xi)[2]
    # the first step reaches the least-squares minimum; the second moves
    # ||L|| by no more than F, so the solve stops there as a stall
    assert not res.converged and res.iterations == 2
    assert abs(res.residual_trace[1] - res.residual_trace[0]) <= floor
    assert res.tolerance == max(1e-13, floor)
    assert res.residual_norm > 100 * floor


@pytest.mark.parametrize("family", FAMILIES)
@pytest.mark.parametrize("name,steps", [("linear_nonlinear", 7), ("nonlinear_nonlinear", 6)])
def test_an_m_sweep_stops_every_stall_early(family, name, steps):
    # below m = 16 (linear_nonlinear) or 60 (nonlinear_nonlinear) the residual
    # at the least-squares minimum is discretization error, far above F: these
    # runs used all 50 steps, and one (Legendre nonlinear_nonlinear, m = 24)
    # raised DivergenceError after 17
    problem = builtin(name)
    for m in (4, 8, 12, 16, 24, 32, 40, 48, 60, 72, 84, 96):
        try:
            res = solve(problem, SolveOptions(N=100, m=m, family=family))
        except DivergenceError as exc:
            pytest.fail(f"m={m}: diverged after {len(exc.trace)} steps: {exc}")
        assert res.iterations <= 12, m
        if res.converged:
            assert res.iterations == steps, m
        else:
            # the last step moved ||L|| by no more than its rounding floor
            trace = res.residual_trace
            assert abs(trace[-1] - trace[-2]) <= _linearize(problem, res.system, res.xi)[2], m


def test_an_unconverged_result_records_the_threshold_it_missed():
    res = solve(builtin("nonlinear_nonlinear"), SolveOptions(N=60, m=40, max_iter=2))
    assert not res.converged
    assert res.residual_norm > res.tolerance >= 1e-13


@pytest.mark.parametrize("scale", [1e-4, 1.0, 1e4])
def test_convergence_does_not_depend_on_the_scale_of_the_residual(scale):
    base = solve(builtin("nonlinear_nonlinear"))
    res = solve(_scaled(builtin("nonlinear_nonlinear"), scale))
    assert res.converged and res.iterations == 6
    assert np.max(np.abs(res.xi - base.xi)) <= 1e-12
    assert res.max_abs_err <= 1e-13


@pytest.mark.parametrize("n", [16, 64])
@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_manufactured_nonlinear_chains_stop_at_their_floor(n, seed):
    problem, exact = _manufactured_chain(n, seed)
    try:
        res = solve(problem, SolveOptions(N=30, m=12))
    except DivergenceError as exc:
        pytest.fail(f"diverged after {len(exc.trace)} steps: {exc}")
    assert res.converged and res.iterations <= 8
    # the floor grows with the number of segments; the tol does not
    assert res.tolerance > 1e-13
    bp = problem.break_points
    for k in range(n):
        xs = bp[k] + (np.arange(200) + 0.5) / 200 * (bp[k + 1] - bp[k])
        for d in (0, 1, 2):
            err = np.max(np.abs(res.segment_values(k + 1, xs, d) - exact(k, xs, d)))
            assert err <= 1e-10, (k, d, err)


def test_each_segment_role_is_looked_up_once_per_solve(monkeypatch):
    # the floor's magnitudes come from the role's cached bounds, resolved at
    # assembly: not once per segment per iterate
    calls = []
    bounds = assembly.reference_bounds
    monkeypatch.setattr(assembly, "reference_bounds", lambda *role: calls.append(role) or bounds(*role))
    problem = _manufactured_chain(16, 0)[0]
    res = solve(problem, SolveOptions(N=30, m=12))
    assert res.converged and res.iterations > 1
    assert len(calls) == problem.n_segments
    assert [role[3:] for role in calls] == [(k == 1, k == 16) for k in range(1, 17)]
