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

from .problems import BUILTIN_NAMES, HybridProblem, builtin, generic_linear
from .solver import DivergenceError, SolveOptions, SolveResult, evaluate_segment, solve

_SOLVER_KEYS = {"N", "m", "basis", "tol", "max_iter", "init_policy", "init",
                "eval_points", "format", "output", "emit_plot_data"}


@dataclass(frozen=True)
class RunConfig:
    """Resolved run settings after merging config file and CLI flags."""

    N: int | tuple = 100
    m: Optional[int | tuple] = None
    basis: str = "chebyshev"
    tol: float = 1e-13
    max_iter: int = 50
    init_policy: str = "line"
    init: Optional[tuple] = None
    eval_points: int = 1000
    format: str = "csv"
    output: str = "."
    emit_plot_data: bool = False

    def solve_options(self) -> SolveOptions:
        return SolveOptions(N=self.N, m=self.m, family=self.basis, tol=self.tol,
                            max_iter=self.max_iter, init_policy=self.init_policy,
                            init_values=self.init)


def _fmt(value) -> str:
    """17-significant-digit decimal text; round-trip exact for float64."""
    if isinstance(value, float):
        if math.isnan(value) or math.isinf(value):
            return repr(value)
        return format(value, ".17g")
    return str(value)


def _to_json(obj, indent=0) -> str:
    """JSON text with floats rendered by _fmt (json.dumps re-rounds)."""
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
        return _fmt(float(obj))
    return json.dumps(obj)


def _parse_number_list(text: str, path: str):
    try:
        return tuple(float(v) for v in str(text).split(","))
    except ValueError as exc:
        raise ValueError(f"{path}: expected comma-separated numbers, got {text!r}") from exc


def _scalar_or_tuple(values: tuple):
    return int(values[0]) if len(values) == 1 else tuple(int(v) for v in values)


def parse_config(path) -> tuple[HybridProblem, RunConfig]:
    """Load a JSON problem/config file.

    The file carries the piecewise linear problem (break_points,
    segments, y0, yf; see problems.generic_linear) plus an optional
    "solver" mapping with any of: N, m, basis, tol, max_iter,
    init_policy, init, eval_points, format, output, emit_plot_data.
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
    unknown = set(solver_cfg) - _SOLVER_KEYS
    if unknown:
        raise ValueError(f"solver.{sorted(unknown)[0]}: unknown option")
    kwargs = {}
    for key in ("N", "m"):
        if key in solver_cfg:
            v = solver_cfg[key]
            kwargs[key] = tuple(int(u) for u in v) if isinstance(v, list) else int(v)
    if "basis" in solver_cfg:
        kwargs["basis"] = str(solver_cfg["basis"])
    if "tol" in solver_cfg:
        kwargs["tol"] = float(solver_cfg["tol"])
    if "max_iter" in solver_cfg:
        kwargs["max_iter"] = int(solver_cfg["max_iter"])
    if "init_policy" in solver_cfg:
        kwargs["init_policy"] = str(solver_cfg["init_policy"])
    if "init" in solver_cfg:
        init = solver_cfg["init"]
        kwargs["init"] = tuple(float(v) for v in init) if isinstance(init, list) \
            else _parse_number_list(init, "solver.init")
    if "eval_points" in solver_cfg:
        kwargs["eval_points"] = int(solver_cfg["eval_points"])
    if "format" in solver_cfg:
        kwargs["format"] = str(solver_cfg["format"])
    if "output" in solver_cfg:
        kwargs["output"] = str(solver_cfg["output"])
    if "emit_plot_data" in solver_cfg:
        kwargs["emit_plot_data"] = bool(solver_cfg["emit_plot_data"])
    return problem, RunConfig(**kwargs)


def _solution_table(problem: HybridProblem, result: SolveResult, eval_points: int):
    """Per-segment evaluation table as (column names, row lists).

    Each segment's rows, its junction end points included, come from
    that segment's own expression and closed form.
    """
    has_exact = problem.solution is not None
    columns = ["segment_index", "x", "y", "dy", "d2y"]
    if has_exact:
        columns += ["y_exact", "abs_err", "dy_exact", "abs_err_dy"]
    rows = []
    bp = problem.break_points
    for k in range(1, problem.n_segments + 1):
        xs = np.linspace(bp[k - 1], bp[k], eval_points)
        y, dy, d2y = (evaluate_segment(problem, result.grids, result.xi, k, xs, d)
                      for d in (0, 1, 2))
        if has_exact:
            ye, dye = (problem.solution[k - 1][d](xs) for d in (0, 1))
            for i, x in enumerate(xs):
                rows.append([k, x, y[i], dy[i], d2y[i],
                             ye[i], abs(y[i] - ye[i]), dye[i], abs(dy[i] - dye[i])])
        else:
            for i, x in enumerate(xs):
                rows.append([k, x, y[i], dy[i], d2y[i]])
    return columns, rows


def _write_table(path: Path, columns, rows, fmt: str):
    if fmt == "csv":
        lines = [",".join(columns)]
        lines += [",".join(_fmt(v) for v in row) for row in rows]
        path.write_text("\n".join(lines) + "\n")
    else:
        path.write_text(_to_json({"columns": list(columns), "rows": [list(r) for r in rows]}) + "\n")


def run(problem: HybridProblem, cfg: RunConfig) -> int:
    """Solve and write artifacts; returns the process exit status."""
    outdir = Path(cfg.output)
    outdir.mkdir(parents=True, exist_ok=True)
    t0 = time.perf_counter()
    result = None
    trace = []
    converged = False
    try:
        result = solve(problem, cfg.solve_options())
        trace = list(result.residual_trace)
        converged = result.converged
    except DivergenceError as exc:
        trace = list(exc.trace)
    wall_ms = (time.perf_counter() - t0) * 1000.0

    junctions = []
    max_abs_err = None
    if result is not None:
        grids_n = [g.n for g in result.grids.grids]
        grids_m = [s.m for s in result.grids.specs]
        junctions = [{"x": x, "y": y, "dy": dy} for x, y, dy in result.junctions]
        max_abs_err = result.max_abs_err
    else:
        # solve aborted before producing a result: report the request
        grids_n = list(cfg.N) if isinstance(cfg.N, tuple) else [cfg.N] * problem.n_segments
        m_req = cfg.m if cfg.m is not None else problem.default_m
        grids_m = (list(m_req) if isinstance(m_req, tuple)
                   else [m_req] * problem.n_segments if m_req is not None else None)
    summary = {
        "problem": problem.name,
        "n_segments": problem.n_segments,
        "N": grids_n[0] if grids_n and len(set(grids_n)) == 1 else grids_n,
        "m": (grids_m[0] if grids_m and len(set(grids_m)) == 1 else grids_m)
             if grids_m is not None else None,
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
        columns, rows = _solution_table(problem, result, cfg.eval_points)
        _write_table(outdir / f"solution.{ext}", columns, rows, cfg.format)
        if cfg.emit_plot_data:
            _write_table(outdir / f"plot_solution.{ext}",
                         ["x", "y", "dy", "d2y"],
                         [[r[1], r[2], r[3], r[4]] for r in rows], cfg.format)
            if problem.solution is not None:
                _write_table(outdir / f"plot_error.{ext}",
                             ["x", "abs_err", "abs_err_dy"],
                             [[r[1], r[6], r[8]] for r in rows], cfg.format)
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
                        help="explicit junction (value, slope) initial guesses")
    parser.add_argument("--init-policy", choices=("line", "explicit"),
                        help="initial guess policy (default: line; --init implies explicit)")
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
            overrides["N"] = _scalar_or_tuple(_parse_number_list(args.N, "--N"))
        if args.m is not None:
            overrides["m"] = _scalar_or_tuple(_parse_number_list(args.m, "--m"))
        if args.basis is not None:
            overrides["basis"] = args.basis
        if args.tol is not None:
            overrides["tol"] = args.tol
        if args.max_iter is not None:
            overrides["max_iter"] = args.max_iter
        if args.init is not None:
            overrides["init"] = _parse_number_list(args.init, "--init")
            overrides["init_policy"] = args.init_policy or "explicit"
        elif args.init_policy is not None:
            overrides["init_policy"] = args.init_policy
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
