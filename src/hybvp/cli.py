"""Command-line front end: solve a problem, write tables and a summary.

Problems come either from the built-in catalog (--problem) or from a
JSON config file (--config) describing a piecewise linear ODE.  Outputs
are a solution table (CSV or JSON), a JSON run summary, and optional
plot-ready data files.  All numbers are serialized with 17 significant
digits so files round-trip exactly.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Optional

import numpy as np

from .basis import FAMILIES
from .problems import BUILTIN_NAMES, HybridProblem, builtin, generic_linear
from .solver import DivergenceError, SolveOptions, SolveResult, resolve_sizes, solve


@dataclass(frozen=True)
class RunConfig:
    """Resolved run settings after merging config file and CLI flags."""

    N: int | tuple = 100
    m: Optional[int | tuple] = None
    basis: str = "chebyshev"
    tol: float = 1e-13
    max_iter: int = 50
    init: Optional[tuple] = None
    eval_points: int = 1000
    format: str = "csv"
    output: str = "."
    emit_plot_data: bool = False

    def __post_init__(self):
        if self.basis not in FAMILIES:
            raise ValueError(f"solver.basis: expected one of {FAMILIES}, got {self.basis!r}")
        if self.format not in ("csv", "json"):
            raise ValueError(f"solver.format: expected 'csv' or 'json', got {self.format!r}")
        if not self.tol > 0:
            raise ValueError(f"solver.tol: must be positive, got {self.tol!r}")
        if self.max_iter < 1:
            raise ValueError(f"solver.max_iter: must be at least 1, got {self.max_iter!r}")
        if self.eval_points < 2:
            raise ValueError(f"solver.eval_points: need at least 2 points per segment, "
                             f"got {self.eval_points}")

    def solve_options(self) -> SolveOptions:
        return SolveOptions(N=self.N, m=self.m, family=self.basis, tol=self.tol,
                            max_iter=self.max_iter, init_values=self.init)


def _to_json(obj, indent=0) -> str:
    """JSON text with floats in 17 significant digits (json.dumps re-rounds).

    17 digits round-trip every float64 exactly.  JSON has no inf or nan,
    so a non-finite float is written as null.
    """
    pad = " " * indent
    if isinstance(obj, dict):
        items = ",\n".join(f'{pad}  {json.dumps(k)}: {_to_json(v, indent + 2)}'
                           for k, v in obj.items())
        return "{\n" + items + "\n" + pad + "}"
    if isinstance(obj, (list, tuple)):
        return "[" + ", ".join(_to_json(v) for v in obj) + "]"
    if isinstance(obj, bool) or obj is None:
        return json.dumps(obj)
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return format(float(obj), ".17g") if math.isfinite(obj) else "null"
    return json.dumps(obj)


def _parse_number_list(text: str, path: str):
    try:
        values = tuple(float(v) for v in text.split(","))
        if all(math.isfinite(v) for v in values):
            return values
    except ValueError:
        pass
    raise ValueError(f"{path}: expected comma-separated finite numbers, got {text!r}")


def _integer(value, key: str) -> int:
    """A number with an integral value (not a bool) as int; else an error naming solver.<key>."""
    integral = isinstance(value, int) or (isinstance(value, float) and value.is_integer())
    if isinstance(value, bool) or not integral:
        raise ValueError(f"solver.{key}: expected an integer, got {value!r}")
    return int(value)


def _number(value, key: str) -> float:
    """A finite number (not a bool) as float; else an error naming solver.<key>."""
    # the comparison also rejects nan and integers beyond the float range
    if isinstance(value, bool) or not isinstance(value, (int, float)) \
            or not abs(value) <= sys.float_info.max:
        raise ValueError(f"solver.{key}: expected a finite number, got {value!r}")
    return float(value)


def _string(value, key: str) -> str:
    if not isinstance(value, str):
        raise ValueError(f"solver.{key}: expected a string, got {value!r}")
    return value


def _flag(value, key: str) -> bool:
    if not isinstance(value, bool):
        raise ValueError(f"solver.{key}: expected true or false, got {value!r}")
    return value


def _integers(value, key: str):
    """An integer, or a list of them (one per segment) as a tuple."""
    return tuple(_integer(v, key) for v in value) if isinstance(value, list) else _integer(value, key)


def _numbers(value, key: str) -> tuple:
    """A list of finite numbers, or their comma-separated text, as a tuple."""
    if isinstance(value, str):
        return _parse_number_list(value, f"solver.{key}")
    if not isinstance(value, list):
        raise ValueError(f"solver.{key}: expected a list of numbers, got {value!r}")
    return tuple(_number(v, key) for v in value)


# the "solver" keys of a config file, each with the check that converts its value
_SOLVER_KEYS = {"N": _integers, "m": _integers, "basis": _string, "tol": _number,
                "max_iter": _integer, "init": _numbers, "eval_points": _integer,
                "format": _string, "output": _string, "emit_plot_data": _flag}


def _scalar_or_tuple(values: tuple, key: str):
    ints = tuple(_integer(v, key) for v in values)
    return ints[0] if len(ints) == 1 else ints


def parse_config(path) -> tuple[HybridProblem, RunConfig]:
    """Load a JSON problem/config file.

    The file carries the piecewise linear problem (break_points,
    segments, y0, yf; see problems.generic_linear) plus an optional
    "solver" mapping with any of: N, m, basis, tol, max_iter, init,
    eval_points, format, output, emit_plot_data.
    """
    p = Path(path)
    if not p.is_file():
        raise ValueError(f"config file not found: {path}")
    try:
        raw = json.loads(p.read_text())
    except json.JSONDecodeError as exc:
        raise ValueError(f"config is not valid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise ValueError("config root must be a JSON object")
    problem = generic_linear(raw)
    solver_cfg = raw.get("solver", {})
    if not isinstance(solver_cfg, dict):
        raise ValueError("solver: expected a mapping of solver options")
    unknown = set(solver_cfg) - set(_SOLVER_KEYS)
    if unknown:
        raise ValueError(f"solver.{sorted(unknown)[0]}: unknown option")
    return problem, RunConfig(**{key: _SOLVER_KEYS[key](value, key)
                                 for key, value in solver_cfg.items()})


def _solution_table(problem: HybridProblem, result: SolveResult, eval_points: int):
    """Per-segment evaluation table as (column names, float array of one row per point).

    Each segment's rows, its junction end points included, come from
    that segment's own expression and closed form.
    """
    has_exact = problem.solution is not None
    columns = ["segment_index", "x", "y", "dy", "d2y"]
    if has_exact:
        columns += ["y_exact", "abs_err", "dy_exact", "abs_err_dy"]
    bp = problem.break_points
    segments = []
    for k in range(1, problem.n_segments + 1):
        xs = np.linspace(bp[k - 1], bp[k], eval_points)
        y, dy, d2y = (result.segment_values(k, xs, d) for d in (0, 1, 2))
        cols = [np.full(eval_points, float(k)), xs, y, dy, d2y]
        if has_exact:
            ye, dye = (problem.solution[k - 1][d](xs) for d in (0, 1))
            cols += [ye, np.abs(y - ye), dye, np.abs(dy - dye)]
        segments.append(np.column_stack(cols))
    return columns, np.concatenate(segments)


def _write_table(path: Path, columns, table: np.ndarray, fmt: str):
    """Write table (one row per point) as CSV or JSON, every number with 17 digits."""
    if fmt == "csv":
        # %.17g also writes the integral segment index without a fraction
        np.savetxt(path, table, fmt="%.17g", delimiter=",", header=",".join(columns), comments="")
    else:
        path.write_text(_to_json({"columns": list(columns), "rows": table.tolist()}) + "\n")


def run(problem: HybridProblem, cfg: RunConfig) -> int:
    """Solve and write artifacts; returns the process exit status."""
    opts = cfg.solve_options()
    Ns, ms = resolve_sizes(problem, opts)
    seeds = 2 * (problem.n_segments - 1)
    # an all-linear solve starts from zero and never reads the seeds
    if cfg.init is not None and not problem.is_linear and len(cfg.init) != seeds:
        raise ValueError(f"solver.init: expected {seeds} values (value, slope per junction), "
                         f"got {len(cfg.init)}")
    outdir = Path(cfg.output)
    outdir.mkdir(parents=True, exist_ok=True)
    t0 = time.perf_counter()
    result = None
    trace = []
    converged = False
    try:
        result = solve(problem, opts)
        trace = list(result.residual_trace)
        converged = result.converged
    except DivergenceError as exc:
        trace = list(exc.trace)
    wall_ms = (time.perf_counter() - t0) * 1000.0

    junctions = []
    max_abs_err = None
    if result is not None:
        junctions = [{"x": x, "y": y, "dy": dy} for x, y, dy in result.junctions]
        max_abs_err = result.max_abs_err
    summary = {
        "problem": problem.name,
        "n_segments": problem.n_segments,
        "N": Ns[0] if len(set(Ns)) == 1 else Ns,
        "m": ms[0] if len(set(ms)) == 1 else ms,
        "iterations": len(trace),
        "converged": converged,
        "residual_trace": trace,
        "junctions": junctions,
        "max_abs_err": max_abs_err,
        "wall_time_ms": wall_ms,
    }
    (outdir / "summary.json").write_text(_to_json(summary) + "\n")

    if result is not None:
        ext = "csv" if cfg.format == "csv" else "json"
        columns, table = _solution_table(problem, result, cfg.eval_points)
        _write_table(outdir / f"solution.{ext}", columns, table, cfg.format)
        if cfg.emit_plot_data:
            _write_table(outdir / f"plot_solution.{ext}", columns[1:5], table[:, 1:5], cfg.format)
            if problem.solution is not None:
                picked = [1, 6, 8]  # x, abs_err, abs_err_dy
                _write_table(outdir / f"plot_error.{ext}", [columns[i] for i in picked],
                             table[:, picked], cfg.format)
    return 0 if converged else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hybvp",
        description="Least-squares solver for piecewise second-order two-point BVPs "
                    "with analytically embedded C1 continuity.",
        epilog="Command-line flags take precedence over values in the config file.")
    src = parser.add_mutually_exclusive_group(required=True)
    src.add_argument("--problem", choices=BUILTIN_NAMES, help="built-in problem name")
    src.add_argument("--config", metavar="PATH", help="JSON problem/config file")
    parser.add_argument("--N", metavar="N[,N2,...]", help="collocation points per segment")
    parser.add_argument("--m", metavar="M[,M2,...]", help="basis functions per segment")
    parser.add_argument("--basis", choices=("chebyshev", "legendre"), help="basis family")
    parser.add_argument("--tol", type=float, help="residual 2-norm convergence threshold")
    parser.add_argument("--max-iter", type=int, help="iteration cap for nonlinear solves")
    parser.add_argument("--init", metavar="v1,d1[,v2,d2,...]",
                        help="junction (value, slope) seeds for nonlinear solves "
                             "(default: the straight line between the boundary values)")
    parser.add_argument("--output", metavar="DIR", help="output directory (default: .)")
    parser.add_argument("--format", choices=("csv", "json"), help="table format (default: csv)")
    parser.add_argument("--emit-plot-data", action="store_true", default=None,
                        help="also write plot-ready data files")
    parser.add_argument("--eval-points", type=int,
                        help="evaluation grid density per segment (default: 1000)")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.config:
            problem, cfg = parse_config(args.config)
        else:
            problem = builtin(args.problem)
            cfg = RunConfig()
        overrides = {}
        if args.N is not None:
            overrides["N"] = _scalar_or_tuple(_parse_number_list(args.N, "--N"), "N")
        if args.m is not None:
            overrides["m"] = _scalar_or_tuple(_parse_number_list(args.m, "--m"), "m")
        if args.basis is not None:
            overrides["basis"] = args.basis
        if args.tol is not None:
            overrides["tol"] = _number(args.tol, "tol")
        if args.max_iter is not None:
            overrides["max_iter"] = args.max_iter
        if args.init is not None:
            overrides["init"] = _parse_number_list(args.init, "--init")
        if args.output is not None:
            overrides["output"] = args.output
        if args.format is not None:
            overrides["format"] = args.format
        if args.emit_plot_data is not None:
            overrides["emit_plot_data"] = True
        if args.eval_points is not None:
            overrides["eval_points"] = args.eval_points
        cfg = replace(cfg, **overrides)
        return run(problem, cfg)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
