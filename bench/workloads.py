"""Seeded workload inputs, the operation each workload times, and its checks.

Every answer is checked against a closed form that this file owns, so a
defect in the library's own reference solutions cannot hide here.  Checks
count failures instead of stopping the run.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

WORKLOADS = ("reference", "chain_linear", "chain_nonlinear")

EVAL_POINTS = 1000   # closed-form check points per segment, off the collocation grid
ACCURACY_TOL = 1e-8  # worst absolute error in y, y', y'' an answer may have
C1_TOL = 1e-9        # largest left/right jump of y or y' at a junction
POOL = 8             # distinct seeded problems per chain workload, solved in turn

CHAIN_LINEAR = dict(segments=64, N=40, m=12)
CHAIN_NONLINEAR = dict(segments=16, N=30, m=12)
REFERENCE_PROBLEMS = ("linear_linear", "linear_nonlinear", "nonlinear_nonlinear")


# Failure reasons that mean a returned answer is wrong.  The others, an op
# that raised or reported converged=False, fail the op without a wrong number.
WRONG_ANSWER = {"inaccurate", "c1_broken", "table", "check_raised"}


@dataclass
class Outcome:
    """Checks of one operation; reasons is empty when the op succeeded."""

    answered: bool = True
    max_err: float = 0.0
    reasons: list = field(default_factory=list)

    @property
    def failed(self) -> bool:
        return bool(self.reasons)

    @property
    def wrong(self) -> bool:
        return bool(WRONG_ANSWER.intersection(self.reasons))

    def fail(self, reason: str):
        if reason not in self.reasons:
            self.reasons.append(reason)


# --- closed forms ---------------------------------------------------------

class PiecewiseSolution:
    """y = base(x) + a_k x^2 + b_k x + c_k on segment k (0-based)."""

    def __init__(self, break_points, base, quad):
        self.break_points = np.asarray(break_points, dtype=float)
        self.base = base          # (y, y', y'') callables of x
        self.quad = np.asarray(quad, dtype=float)  # shape (n_segments, 3)

    @property
    def n_segments(self) -> int:
        return len(self.break_points) - 1

    def segment_value(self, k: int, x, d: int):
        a, b, c = self.quad[k]
        x = np.asarray(x, dtype=float)
        poly = (a * x * x + b * x + c, 2.0 * a * x + b, 2.0 * a + 0.0 * x)[d]
        return self.base[d](x) + poly


def c1_quadratics(break_points, second) -> np.ndarray:
    """Quadratics with y'' = second[k] on segment k, C1 across junctions, zero at x = 0."""
    quad = np.empty((len(second), 3))
    quad[0] = (0.5 * second[0], 0.0, 0.0)
    for k in range(1, len(second)):
        x = break_points[k]
        a_prev, b_prev, c_prev = quad[k - 1]
        a = 0.5 * second[k]
        b = b_prev + 2.0 * (a_prev - a) * x
        c = c_prev + (a_prev - a) * x * x + (b_prev - b) * x
        quad[k] = (a, b, c)
    return quad


def _reference_solutions():
    """Closed forms of the paper's three built-in problems, per segment (y, y', y'')."""
    E = math.exp(math.pi / 2.0)
    log2 = math.log(2.0)
    return {
        "linear_linear": (
            (0.0, 0.5, 1.0),
            ((lambda x: x ** 4 / 12 + 19 * x / 24, lambda x: x ** 3 / 3 + 19 / 24, lambda x: x ** 2),
             (lambda x: x ** 4 / 12 + x ** 2 / 2 + 7 * x / 24 + 0.125,
              lambda x: x ** 3 / 3 + x + 7 / 24, lambda x: x ** 2 + 1.0)),
        ),
        "linear_nonlinear": (
            (0.0, math.pi / 2, math.pi),
            ((lambda x: -0.2 * E * E * np.exp(-2 * x) + 0.5 * E * np.exp(-x)
                 + (9 * np.cos(x) + 7 * np.sin(x)) / 10,
              lambda x: 0.4 * E * E * np.exp(-2 * x) - 0.5 * E * np.exp(-x)
                 + (7 * np.cos(x) - 9 * np.sin(x)) / 10,
              lambda x: -0.8 * E * E * np.exp(-2 * x) + 0.5 * E * np.exp(-x)
                 - (9 * np.cos(x) + 7 * np.sin(x)) / 10),
             (lambda x: E * np.exp(-x), lambda x: -E * np.exp(-x), lambda x: E * np.exp(-x))),
        ),
        "nonlinear_nonlinear": (
            (0.0, 1.0, 3.0),
            ((lambda x: 2 - np.log(x + 1), lambda x: -1 / (x + 1), lambda x: 1 / (x + 1) ** 2),
             (lambda x: 2 - 0.9 * log2 - 0.1 * np.log(10 * x - 8),
              lambda x: -1 / (10 * x - 8), lambda x: 10 / (10 * x - 8) ** 2)),
        ),
    }


# --- checks ---------------------------------------------------------------

def check_points(x0: float, xf: float) -> np.ndarray:
    """EVAL_POINTS cell midpoints of [x0, xf]: interior and off the Lobatto grid."""
    return x0 + (np.arange(EVAL_POINTS) + 0.5) / EVAL_POINTS * (xf - x0)


def check_chain(result, solution: PiecewiseSolution) -> Outcome:
    """Closed-form error and junction C1 of a SolveResult (or an exception)."""
    if isinstance(result, Exception):
        return Outcome(answered=False, max_err=math.inf, reasons=["raised"])
    out = Outcome()
    if not result.converged:
        out.fail("not_converged")
    bp = solution.break_points
    xs = np.concatenate([check_points(bp[k], bp[k + 1]) for k in range(solution.n_segments)])
    seg = np.repeat(np.arange(solution.n_segments), EVAL_POINTS)
    for d in (0, 1, 2):
        exact = np.empty_like(xs)
        for k in range(solution.n_segments):
            mask = seg == k
            exact[mask] = solution.segment_value(k, xs[mask], d)
        err = float(np.max(np.abs(result.evaluate(xs, d) - exact)))
        out.max_err = max(out.max_err, err if math.isfinite(err) else math.inf)
    if not out.max_err <= ACCURACY_TOL:
        out.fail("inaccurate")
    if not junction_jump(result.evaluate, bp) <= C1_TOL:
        out.fail("c1_broken")
    return out


def junction_jump(evaluate, break_points) -> float:
    """Largest |left - right| of y and y' over the interior junctions.

    evaluate(x, d) uses the left segment at a junction.  The right limit
    comes from a second-order Taylor step back from a point a tiny
    distance h inside the right segment, exact to O(h^3).
    """
    bp = np.asarray(break_points, dtype=float)
    xj = bp[1:-1]
    if xj.size == 0:
        return 0.0
    xr = xj + np.diff(bp)[1:] * 2.0 ** -20
    h = xr - xj
    y, dy, d2y = (np.atleast_1d(evaluate(xr, d)) for d in (0, 1, 2))
    right = (y - h * dy + 0.5 * h * h * d2y, dy - h * d2y)
    left = (np.atleast_1d(evaluate(xj, 0)), np.atleast_1d(evaluate(xj, 1)))
    jump = max(float(np.max(np.abs(lv - rv))) for lv, rv in zip(left, right))
    return jump if math.isfinite(jump) else math.inf


def check_reference(name: str, status, outdir: Path) -> Outcome:
    """Check one CLI run from its exit status, summary.json and solution.csv.

    The files are removed afterwards so a later run cannot pass on stale
    output.  Table rows at segment ends sit on the collocation grid (and
    the CLI evaluates a junction row with the left segment, so y'' there
    is the left limit); they are checked for C1 against summary.json
    junctions, and the interior rows against the closed form.
    """
    if isinstance(status, Exception):
        return Outcome(answered=False, max_err=math.inf, reasons=["raised"])
    out = Outcome()
    if status == 1:
        out.fail("not_converged")
    elif status != 0:
        out.fail("raised")
    summary_path, table_path = outdir / "summary.json", outdir / "solution.csv"
    try:
        summary = json.loads(summary_path.read_text())
        with table_path.open(newline="") as fh:
            rows = list(csv.reader(fh))
    except (OSError, ValueError):
        out.answered, out.max_err = False, math.inf
        if status == 0:
            out.fail("table")
        return out
    finally:
        summary_path.unlink(missing_ok=True)
        table_path.unlink(missing_ok=True)
    if summary.get("converged") is not True:
        out.fail("not_converged")
    break_points, exact = _REFERENCE[name]
    n = len(exact)
    header, body = rows[0], rows[1:]
    if len(body) != n * EVAL_POINTS or header[:5] != ["segment_index", "x", "y", "dy", "d2y"]:
        out.answered, out.max_err = False, math.inf
        out.fail("table")
        return out
    table = np.array([[float(v) for v in r[:5]] for r in body]).reshape(n, EVAL_POINTS, 5)
    for k in range(n):
        seg = table[k]
        if not np.all(seg[:, 0] == k + 1):
            out.fail("table")
        inner = seg[1:-1]
        for d in (0, 1, 2):
            err = float(np.max(np.abs(inner[:, 2 + d] - exact[k][d](inner[:, 1]))))
            out.max_err = max(out.max_err, err if math.isfinite(err) else math.inf)
    jump = 0.0
    junctions = summary.get("junctions", [])
    if len(junctions) != n - 1:
        out.fail("table")
    for j, junction in enumerate(junctions):
        left, right = table[j, -1], table[j + 1, 0]
        if left[1] != break_points[j + 1] or right[1] != break_points[j + 1]:
            out.fail("table")
        for col, key in ((2, "y"), (3, "dy")):
            jump = max(jump, abs(left[col] - right[col]), abs(left[col] - junction[key]))
    if not out.max_err <= ACCURACY_TOL:
        out.fail("inaccurate")
    if not jump <= C1_TOL:
        out.fail("c1_broken")
    return out


_REFERENCE = _reference_solutions()


# --- workload inputs ------------------------------------------------------

def _digest(payload) -> str:
    return hashlib.sha256(json.dumps(payload, sort_keys=True).encode()).hexdigest()[:16]


def chain_residual(a, forcing, x, y, dy, d2y):
    return d2y - a * dy * dy - forcing(x)


def chain_d_y(a, x, y, dy, d2y):
    return np.zeros_like(x)


def chain_d_dy(a, x, y, dy, d2y):
    return -2.0 * a * dy


def chain_d_d2y(a, x, y, dy, d2y):
    return np.ones_like(x)


def _chain_dynamics(hybvp, a: float, forcing):
    # The callables look the chain_* functions up at call time, so a tracer
    # can wrap them as module attributes.
    return hybvp.nonlinear_dynamics(
        residual=lambda x, y, dy, d2y: chain_residual(a, forcing, x, y, dy, d2y),
        d_y=lambda x, y, dy, d2y: chain_d_y(a, x, y, dy, d2y),
        d_dy=lambda x, y, dy, d2y: chain_d_dy(a, x, y, dy, d2y),
        d_d2y=lambda x, y, dy, d2y: chain_d_d2y(a, x, y, dy, d2y),
    )


def chain_linear_inputs(hybvp, rng):
    """y'' = x^2 + c_k on 64 equal segments of [0, 1], y(0) = 0, y(1) = 1."""
    n = CHAIN_LINEAR["segments"]
    bp = np.linspace(0.0, 1.0, n + 1)
    c = rng.uniform(-2.0, 2.0, n)
    config = {
        "name": "chain_linear",
        "break_points": bp.tolist(),
        "y0": 0.0,
        "yf": 1.0,
        "segments": [{"a2": [1.0], "f": [float(ck), 0.0, 1.0]} for ck in c],
    }
    base = (lambda x: x ** 4 / 12.0, lambda x: x ** 3 / 3.0, lambda x: x * x)
    quad = c1_quadratics(bp, c)
    # shift b_k by a common slope so that y(1) = 1 (y(0) = 0 already holds)
    a, b, c_last = quad[-1]
    quad[:, 1] += 1.0 - (1.0 / 12.0 + a + b + c_last)
    return hybvp.generic_linear(config), PiecewiseSolution(bp, base, quad), c.tolist()


def chain_nonlinear_inputs(hybvp, rng):
    """y'' - a_k y'^2 = f_k on 16 equal segments of [0, 1].

    The manufactured solution sin(2x) + x + sum_j q_j max(x - x_j, 0)^2 / 2
    is C1 with a jump q_j in y'' at every junction x_j.
    """
    n = CHAIN_NONLINEAR["segments"]
    bp = np.linspace(0.0, 1.0, n + 1)
    a = rng.uniform(0.5, 1.5, n)
    q = rng.uniform(-1.0, 1.0, n - 1)
    base = (lambda x: np.sin(2 * x) + x, lambda x: 2 * np.cos(2 * x) + 1.0, lambda x: -4 * np.sin(2 * x))
    solution = PiecewiseSolution(bp, base, c1_quadratics(bp, np.concatenate([[0.0], np.cumsum(q)])))

    def forcing_of(k):
        ak = float(a[k])
        return lambda x: solution.segment_value(k, x, 2) - ak * solution.segment_value(k, x, 1) ** 2

    problem = hybvp.HybridProblem(
        break_points=tuple(bp),
        segments=tuple(_chain_dynamics(hybvp, float(a[k]), forcing_of(k)) for k in range(n)),
        y0=float(solution.segment_value(0, 0.0, 0)),
        yf=float(solution.segment_value(n - 1, 1.0, 0)),
        name="chain_nonlinear",
    )
    return problem, solution, {"a": a.tolist(), "q": q.tolist()}


# --- workloads ------------------------------------------------------------

class ReferenceWorkload:
    """One op: the CLI in-process on each of the paper's three built-ins."""

    def __init__(self, hybvp, seed: int, outdir: Path):
        self.hybvp = hybvp
        self.outdir = outdir
        self.argv = [["--problem", p, "--output", str(outdir / p)] for p in REFERENCE_PROBLEMS]
        # The built-ins are fixed by the paper; the seed selects nothing.
        self.digest = _digest({"seed": seed, "problems": REFERENCE_PROBLEMS})

    def run_op(self, i: int):
        return [self.hybvp.cli.main(argv) for argv in self.argv]

    def check(self, i: int, out) -> Outcome:
        if isinstance(out, Exception):
            return Outcome(answered=False, max_err=math.inf, reasons=["raised"])
        total = Outcome()
        for name, status in zip(REFERENCE_PROBLEMS, out):
            one = check_reference(name, status, self.outdir / name)
            total.answered &= one.answered
            total.max_err = max(total.max_err, one.max_err)
            for reason in one.reasons:
                total.fail(reason)
        return total


class ChainWorkload:
    """One op: one solve of the next problem from a seeded pool."""

    def __init__(self, hybvp, name: str, seed: int):
        self.hybvp = hybvp
        rng = np.random.default_rng(seed)
        make, sizes = ((chain_linear_inputs, CHAIN_LINEAR) if name == "chain_linear"
                       else (chain_nonlinear_inputs, CHAIN_NONLINEAR))
        self.pool = [make(hybvp, rng) for _ in range(POOL)]
        self.options = hybvp.SolveOptions(N=sizes["N"], m=sizes["m"])
        self.digest = _digest({"seed": seed, "sizes": sizes, "inputs": [p[2] for p in self.pool]})

    def run_op(self, i: int):
        return self.hybvp.solver.solve(self.pool[i % POOL][0], self.options)

    def check(self, i: int, out) -> Outcome:
        return check_chain(out, self.pool[i % POOL][1])


def attempt(op, *args):
    """op(*args), or the exception it raised: a failed op is counted, never fatal."""
    try:
        return op(*args)
    except Exception as exc:
        return exc


def make(name: str, hybvp, seed: int, outdir: Path):
    if name == "reference":
        return ReferenceWorkload(hybvp, seed, outdir)
    if name in WORKLOADS:
        return ChainWorkload(hybvp, name, seed)
    raise ValueError(f"unknown workload {name!r}; choose from {WORKLOADS}")
