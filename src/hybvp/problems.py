"""Hybrid boundary-value problem definitions.

A problem is an ordered list of second-order ODE segments over break
points x0 < x1 < ... < xf with boundary values y(x0) and y(xf).  A
segment is one callable, linearize(x, y, y', y''), that returns its
residual L and the three partials dL/dy, dL/dy', dL/dy'' used to build
Gauss-Newton Jacobians by the chain rule: L has the shape of the points
x, and each partial has it too or is a constant.  Linear and nonlinear
segments are posed alike (linear_dynamics, nonlinear_dynamics); the
solver treats every problem the same way.  Three classic test sequences
with closed-form solutions are built in, plus a constructor for
user-posed piecewise linear ODEs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .basis import MAX_DERIVATIVE, Interval, _is_number, _is_order

Array = np.ndarray
StateFn = Callable[[Array, Array, Array, Array], Array]
# a segment: linearize(x, y, dy, d2y) -> (L, (dL/dy, dL/dy', dL/dy''))
Linearize = Callable[[Array, Array, Array, Array], tuple]

BUILTIN_NAMES = ("linear_linear", "linear_nonlinear", "nonlinear_nonlinear")


def linear_dynamics(a2, a1=0.0, a0=0.0, f=0.0) -> Linearize:
    """Segment a2(x) y'' + a1(x) y' + a0(x) y = f(x).

    Coefficients may be constants or callables of x; each callable is
    evaluated once per linearize call, and (a0, a1, a2) are the partials.
    """
    a2f, a1f, a0f, ff = (c if callable(c) else (lambda x, v=float(c): v) for c in (a2, a1, a0, f))

    def linearize(x, y, dy, d2y):
        c2, c1, c0 = a2f(x), a1f(x), a0f(x)
        return c2 * d2y + c1 * dy + c0 * y - ff(x), (c0, c1, c2)

    return linearize


def nonlinear_dynamics(residual: StateFn, d_y: StateFn, d_dy: StateFn, d_d2y: StateFn) -> Linearize:
    """Segment with a user-supplied nonlinear residual and partials, each called once per linearize."""
    def linearize(*state):
        return residual(*state), (d_y(*state), d_dy(*state), d_d2y(*state))

    return linearize


def _break_points(values) -> tuple[float, ...]:
    """values as floats; raises naming break_points unless finite and strictly increasing."""
    try:
        items = tuple(values)
    except TypeError:
        items = (None,)
    if not all(_is_number(b) for b in items):
        raise ValueError(f"break_points: expected numbers, got {values!r}")
    bp = tuple(float(b) for b in items)
    if len(bp) < 2:
        raise ValueError("break_points: need at least two values")
    for i, b in enumerate(bp):
        if not math.isfinite(b):
            raise ValueError(f"break_points[{i}] = {b!r} is not finite")
    if any(a >= b for a, b in zip(bp, bp[1:])):
        raise ValueError("break_points not strictly increasing")
    return bp


@dataclass(frozen=True)
class HybridProblem:
    """Piecewise second-order two-point BVP with C1 junctions."""

    break_points: tuple[float, ...]
    segments: tuple[Linearize, ...]
    y0: float
    yf: float
    name: str = ""
    # per-segment (y, y', y'') closed-form callables, when known
    solution: Optional[tuple] = None
    default_m: Optional[int] = None

    def __post_init__(self):
        bp = _break_points(self.break_points)
        object.__setattr__(self, "break_points", bp)
        if not isinstance(self.segments, (tuple, list)) or len(self.segments) != len(bp) - 1:
            raise ValueError(f"segments: expected one linearize callable per break-point interval, "
                             f"{len(bp) - 1} in all, got {self.segments!r}")
        for i, seg in enumerate(self.segments):
            if not callable(seg):
                raise ValueError(f"segments[{i}]: expected a linearize callable, got {seg!r}")
        for key in ("y0", "yf"):
            value = getattr(self, key)  # a 0-d array counts as the number it holds
            if np.ndim(value) != 0 or not _is_number(np.asarray(value).item()):
                raise ValueError(f"{key}: expected a number, got {value!r}")
            if not math.isfinite(value):
                raise ValueError(f"{key}: non-finite boundary value {value!r}")
            object.__setattr__(self, key, float(value))
        if not (self.solution is None or isinstance(self.solution, (tuple, list))):
            raise ValueError(f"solution: expected one (y, y', y'') triple of callables per segment, "
                             f"{self.n_segments} in all, got {self.solution!r}")
        for i in range(0 if self.solution is None else max(len(self.solution), self.n_segments)):
            triple = self.solution[i] if i < len(self.solution) else None
            if i >= self.n_segments or not (isinstance(triple, (tuple, list)) and len(triple) == 3
                                            and all(map(callable, triple))):
                raise ValueError(f"solution[{i}]: expected one (y, y', y'') triple of callables per "
                                 f"segment, {self.n_segments} in all, got {triple!r}")

    @property
    def n_segments(self) -> int:
        return len(self.segments)

    def split(self, x: np.ndarray) -> list:
        """Per segment k with points of x (1-d, in the domain): (k, their indices); junctions go left."""
        bp = self.break_points
        Interval(bp[0], bp[-1]).check(x, "x")
        seg = np.searchsorted(bp[1:-1], x, side="left")
        order = np.argsort(seg, kind="stable")
        cuts = np.searchsorted(seg[order], range(1, self.n_segments))
        return [(k, at) for k, at in enumerate(np.split(order, cuts), 1) if at.size]


def analytic_value(problem: HybridProblem, x, d: int = 0):
    """Closed-form solution value or derivative (d = 0..2) at x, a junction from the left segment."""
    if problem.solution is None:
        raise ValueError(f"problem {problem.name!r} has no analytic solution attached")
    if not _is_order(d):
        raise ValueError(f"derivative order must be 0..{MAX_DERIVATIVE}, got {d!r}")
    xs = np.asarray(x, dtype=float)
    flat, out = xs.ravel(), np.empty(xs.size)
    for k, at in problem.split(flat):
        out[at] = problem.solution[k - 1][d](flat[at])
    return float(out[0]) if xs.ndim == 0 else out.reshape(xs.shape)


def builtin(name: str) -> HybridProblem:
    """One of the three built-in hybrid sequences with known solutions."""
    if name == "linear_linear":
        return _linear_linear()
    if name == "linear_nonlinear":
        return _linear_nonlinear()
    if name == "nonlinear_nonlinear":
        return _nonlinear_nonlinear()
    raise ValueError(f"unknown builtin problem {name!r}; choose from {BUILTIN_NAMES}")


def _linear_linear() -> HybridProblem:
    # y'' = x^2 + a with a = 0 then 1, switching at x = 0.5
    seg1 = linear_dynamics(a2=1.0, f=lambda x: x ** 2)
    seg2 = linear_dynamics(a2=1.0, f=lambda x: x ** 2 + 1.0)
    sol = (
        (lambda x: x ** 4 / 12.0 + 19.0 * x / 24.0,
         lambda x: x ** 3 / 3.0 + 19.0 / 24.0,
         lambda x: x ** 2),
        (lambda x: x ** 4 / 12.0 + x ** 2 / 2.0 + 7.0 * x / 24.0 + 0.125,
         lambda x: x ** 3 / 3.0 + x + 7.0 / 24.0,
         lambda x: x ** 2 + 1.0),
    )
    return HybridProblem(
        break_points=(0.0, 0.5, 1.0),
        segments=(seg1, seg2),
        y0=0.0,
        yf=1.0,
        name="linear_linear",
        solution=sol,
        default_m=8,
    )


def _linear_nonlinear() -> HybridProblem:
    # y'' + y * y'^a = E e^{-x} - E^2 e^{-2x} with a = 0 then 1,
    # switching at x = pi/2, where E = e^{pi/2}.
    E = math.exp(math.pi / 2.0)

    def forcing(x):
        return E * np.exp(-x) - E * E * np.exp(-2.0 * x)

    def linearize2(x, y, dy, d2y):
        return d2y + y * dy - forcing(x), (dy, y, 1.0)

    seg1, seg2 = linear_dynamics(a2=1.0, a0=1.0, f=forcing), linearize2
    sol = (
        (lambda x: -0.2 * E * E * np.exp(-2.0 * x) + 0.5 * E * np.exp(-x)
            + (9.0 * np.cos(x) + 7.0 * np.sin(x)) / 10.0,
         lambda x: 0.4 * E * E * np.exp(-2.0 * x) - 0.5 * E * np.exp(-x)
            + (7.0 * np.cos(x) - 9.0 * np.sin(x)) / 10.0,
         lambda x: -0.8 * E * E * np.exp(-2.0 * x) + 0.5 * E * np.exp(-x)
            - (9.0 * np.cos(x) + 7.0 * np.sin(x)) / 10.0),
        (lambda x: E * np.exp(-x),
         lambda x: -E * np.exp(-x),
         lambda x: E * np.exp(-x)),
    )
    return HybridProblem(
        break_points=(0.0, math.pi / 2.0, math.pi),
        segments=(seg1, seg2),
        y0=0.9 + 0.1 * E * (5.0 - 2.0 * E),
        yf=1.0 / E,
        name="linear_nonlinear",
        solution=sol,
        default_m=16,
    )


def _nonlinear_nonlinear() -> HybridProblem:
    # y'' - a y'^2 = 0 with a = 1 then 10, switching at x = 1
    def make_segment(a):
        return lambda x, y, dy, d2y: (d2y - a * dy ** 2, (0.0, -2.0 * a * dy, 1.0))

    log2 = math.log(2.0)
    sol = (
        (lambda x: 2.0 - np.log(x + 1.0),
         lambda x: -1.0 / (x + 1.0),
         lambda x: 1.0 / (x + 1.0) ** 2),
        (lambda x: 2.0 - 0.9 * log2 - 0.1 * np.log(10.0 * x - 8.0),
         lambda x: -1.0 / (10.0 * x - 8.0),
         lambda x: 10.0 / (10.0 * x - 8.0) ** 2),
    )
    return HybridProblem(
        break_points=(0.0, 1.0, 3.0),
        segments=(make_segment(1.0), make_segment(10.0)),
        y0=2.0,
        yf=2.0 - math.log(11264.0) / 10.0,
        name="nonlinear_nonlinear",
        solution=sol,
        default_m=60,
    )


# --- user-posed piecewise linear problems --------------------------------

_FORCING_FNS = {"exp": np.exp, "sin": np.sin, "cos": np.cos}


def _poly_fn(coeffs: Sequence[float], path: str) -> Callable[[Array], Array]:
    if not isinstance(coeffs, (list, tuple, np.ndarray)) or len(coeffs) == 0:
        raise ValueError(f"{path}: expected a non-empty list of polynomial coefficients")
    for i, c in enumerate(coeffs):
        if not _is_number(c):
            raise ValueError(f"{path}[{i}]: expected a number, got {c!r}")
    arr = np.asarray(coeffs, dtype=float)
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{path}: non-finite coefficient")
    ascending = arr.tolist()

    def poly(x):
        # Horner's rule in numpy.polynomial.polynomial.polyval's order:
        # bitwise equal to it, without its per-call set-up
        x = np.asarray(x, dtype=float)
        out = ascending[-1] + x * 0
        for c in ascending[-2::-1]:
            out = c + out * x
        return out

    return poly


def _forcing_fn(spec_entry, path: str) -> Callable[[Array], Array]:
    """Forcing as ascending-power polynomial plus optional named terms.

    Named terms are {"fn": "exp"|"sin"|"cos", "k": wavenumber, "mul":
    multiplier}, contributing mul * fn(k * x).
    """
    if isinstance(spec_entry, dict):
        poly = _poly_fn(spec_entry.get("poly", [0.0]), f"{path}.poly")
        terms = []
        for j, term in enumerate(spec_entry.get("terms", [])):
            tpath = f"{path}.terms[{j}]"
            if not isinstance(term, dict):
                raise ValueError(f"{tpath}: expected a mapping with fn/k/mul")
            fn_name = term.get("fn")
            if fn_name not in _FORCING_FNS:
                raise ValueError(f"{tpath}.fn: unknown forcing term {fn_name!r} "
                                 f"(supported: {sorted(_FORCING_FNS)})")
            k, mul = (term.get(key, 1.0) for key in ("k", "mul"))
            for key, value in (("k", k), ("mul", mul)):
                if not _is_number(value):
                    raise ValueError(f"{tpath}.{key}: expected a number, got {value!r}")
            if not (math.isfinite(k) and math.isfinite(mul)):
                raise ValueError(f"{tpath}: non-finite term parameter")
            terms.append((_FORCING_FNS[fn_name], float(k), float(mul)))

        def f(x):
            x = np.asarray(x, dtype=float)
            out = poly(x)
            for fn, kk, mm in terms:
                out = out + mm * fn(kk * x)
            return out

        return f
    return _poly_fn(spec_entry, path)


def generic_linear(config: dict) -> HybridProblem:
    """Build a piecewise linear problem from a plain config mapping.

    Expected keys: break_points, y0, yf, and segments, a list of
    {"a2": [...], "a1": [...], "a0": [...], "f": ...} with ascending
    polynomial coefficients (a1, a0, f optional, default zero; f may
    also be a {"poly": ..., "terms": ...} mapping).
    """
    bp = _break_points(config.get("break_points"))
    seg_cfgs = config.get("segments")
    if not isinstance(seg_cfgs, (list, tuple)):
        raise ValueError("segments: expected a list of segment mappings")
    if len(seg_cfgs) != len(bp) - 1:
        raise ValueError(f"segments: count mismatch, {len(bp) - 1} intervals "
                         f"but {len(seg_cfgs)} segments")

    segments = []
    for i, seg in enumerate(seg_cfgs):
        path = f"segments[{i}]"
        if not isinstance(seg, dict):
            raise ValueError(f"{path}: expected a mapping with a2/a1/a0/f entries")
        if "a2" not in seg:
            raise ValueError(f"{path}.a2: required")
        a2 = _poly_fn(seg["a2"], f"{path}.a2")
        if not np.any(np.asarray(seg["a2"], dtype=float) != 0.0):
            raise ValueError(f"{path}.a2: leading coefficient identically zero "
                             "(problem is not second order)")
        a1 = _poly_fn(seg.get("a1", [0.0]), f"{path}.a1")
        a0 = _poly_fn(seg.get("a0", [0.0]), f"{path}.a0")
        f = _forcing_fn(seg.get("f", [0.0]), f"{path}.f")
        segments.append(linear_dynamics(a2=a2, a1=a1, a0=a0, f=f))
    return HybridProblem(
        break_points=bp,
        segments=tuple(segments),
        y0=config.get("y0"),  # HybridProblem checks both: a missing one is None
        yf=config.get("yf"),
        name=str(config.get("name", "generic_linear")),
    )

