"""Command-line front end: solve a problem, write tables and a summary.

Problems come either from the built-in catalog (--problem) or from a
JSON config file (--config) describing a piecewise linear ODE.  Every
run option is one entry of _OPTIONS: a "solver" key of the config file
and the flag "--" + key (with "_" written "-"), both checked by the
same function, the one SolveOptions applies to its own fields.
Outputs are a solution table (CSV or JSON) and a JSON run summary.
All numbers are serialized with 17 significant digits so files
round-trip exactly.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .basis import FAMILIES
from .problems import BUILTIN_NAMES, HybridProblem, builtin, generic_linear
from .solver import (CHECKS, EVAL_POINTS, DivergenceError, SolveOptions, SolveResult, _integer,
                     _one_of, resolve_sizes, solve)

FORMATS = ("csv", "json")


@dataclass(frozen=True)
class RunConfig:
    """A run: the solve's options, and the points per segment, format and directory of its table."""

    options: SolveOptions = SolveOptions()
    eval_points: int = EVAL_POINTS
    format: str = "csv"
    output: str = "."


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


def _as_numbers(text: str):
    """Comma-separated text as a list of floats, or the text itself if it does not read so."""
    try:
        return [float(v) for v in text.split(",")]
    except ValueError:
        return text


def _string(value, name: str) -> str:
    if not isinstance(value, str):
        raise ValueError(f"{name}: expected a string, got {value!r}")
    return value


def _seed_text(value, name: str):
    """SolveOptions' seed check, on a list of numbers or their comma-separated text."""
    return CHECKS["init_values"](_as_numbers(value) if isinstance(value, str) else value, name)


# every run option, a "solver" key of the config file and the flag "--" + key with "_"
# written "-", as (field, check, flag metavar, flag help): field is a SolveOptions field or
# one of RunConfig's own, and check(value, "solver." + key) returns its value or raises.
_OPTIONS = {
    "N": ("N", CHECKS["N"], "N[,N2,...]", "collocation points per segment"),
    "m": ("m", CHECKS["m"], "M[,M2,...]", "basis functions per segment"),
    "basis": ("family", CHECKS["family"], "{" + ",".join(FAMILIES) + "}", "basis family"),
    "tol": ("tol", CHECKS["tol"], "TOL", "residual 2-norm convergence threshold"),
    "max_iter": ("max_iter", CHECKS["max_iter"], "MAX_ITER",
                 f"Gauss-Newton step cap (default: {SolveOptions.max_iter})"),
    "init": ("init_values", _seed_text, "v1,d1[,v2,d2,...]",
             "junction (value, slope) seeds that every solve starts from "
             "(default: the straight line between the boundary values)"),
    "eval_points": ("eval_points", lambda value, name: _integer(value, name, 2), "EVAL_POINTS",
                    "points per segment of the solution table, over which the summary's "
                    f"max_abs_err is taken (default: {RunConfig.eval_points})"),
    "format": ("format", lambda value, name: _one_of(value, name, FORMATS),
               "{" + ",".join(FORMATS) + "}", f"table format (default: {RunConfig.format})"),
    "output": ("output", _string, "DIR", f"output directory (default: {RunConfig.output})"),
}
_TEXT_OPTIONS = ("basis", "init", "format", "output")  # whose flag text goes to the check as is
_NAMES = {field: "solver." + key for key, (field, *_) in _OPTIONS.items()}  # for resolve_sizes


def _settings(values: dict, cfg: RunConfig = RunConfig()) -> RunConfig:
    """cfg with run options (key -> raw value) set, each checked as solver.<key>."""
    unknown = set(values) - set(_OPTIONS)
    if unknown:
        raise ValueError(f"solver.{sorted(unknown)[0]}: unknown option")
    fields = {_OPTIONS[key][0]: _OPTIONS[key][1](value, "solver." + key)
              for key, value in values.items()}
    options = {field: fields.pop(field) for field in CHECKS if field in fields}
    return replace(cfg, options=replace(cfg.options, **options), **fields)


def _flag_value(text: str, key: str):
    """A flag's text as the value its config key would carry: a number or a
    list of numbers for a numeric option whose text reads as such, else the text."""
    if key in _TEXT_OPTIONS:
        return text
    values = _as_numbers(text)  # text that is not numbers fails the check as in a config
    return values[0] if isinstance(values, list) and len(values) == 1 else values


def parse_config(path) -> tuple[HybridProblem, RunConfig]:
    """Load a JSON problem/config file.

    The file carries the piecewise linear problem (break_points,
    segments, y0, yf; see problems.generic_linear) plus an optional
    "solver" mapping with any of the keys of _OPTIONS.
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
    return problem, _settings(solver_cfg)


def _solution_table(problem: HybridProblem, result: SolveResult, eval_points: int):
    """Per-segment evaluation table as (column names, float array of one row per point, error).

    Each segment's rows, its junction end points included, come from one
    pass of its own y, y', y'' and closed form.  error is max |y^(d) - exact|
    over the rows and d = 0..2: NaN if any is, None without a closed form.
    """
    has_exact = problem.solution is not None
    columns = ["segment_index", "x", "y", "dy", "d2y"]
    if has_exact:
        columns += ["y_exact", "abs_err", "dy_exact", "abs_err_dy"]
    segments, worst = [], 0.0 if has_exact else None
    for k, iv in enumerate(result.system.intervals, 1):
        xs = np.linspace(iv.x0, iv.xf, eval_points)
        y, dy, d2y = result._segment_orders(k, xs, (0, 1, 2))
        cols = [np.full(eval_points, float(k)), xs, y, dy, d2y]
        if has_exact:
            exact = problem.solution[k - 1]
            ye, dye = (np.broadcast_to(exact[d](xs), xs.shape) for d in (0, 1))  # a constant too
            err, err_dy = np.abs(y - ye), np.abs(dy - dye)
            cols += [ye, err, dye, err_dy]
            # y'' exact is not kept: alive through the stacking, it would raise the peak memory
            worst = float(np.max([worst, err.max(), err_dy.max(), np.abs(d2y - exact[2](xs)).max()]))
        segments.append(np.column_stack(cols))
    return columns, np.concatenate(segments), worst


def _write_table(path: Path, columns, table: np.ndarray, fmt: str):
    """Write table (one row per point) as CSV or JSON, every number with 17 digits."""
    if fmt == "csv":
        # np.savetxt's bytes (%.17g writes the integral segment index without a fraction), one
        # % per 32 rows: no per-row loop, and the whole table's text is never held at once
        row = ",".join(["%.17g"] * len(columns)) + "\n"
        with open(path, "w") as out:
            out.write(",".join(columns) + "\n")
            for start in range(0, len(table), 32):
                chunk = table[start:start + 32]
                out.write((row * len(chunk)) % tuple(chunk.ravel().tolist()))
    else:
        path.write_text(_to_json({"columns": list(columns), "rows": table.tolist()}) + "\n")


def run(problem: HybridProblem, cfg: RunConfig) -> int:
    """Solve and write artifacts; returns the process exit status."""
    Ns, ms = resolve_sizes(problem, cfg.options, _NAMES)
    outdir = Path(cfg.output)
    outdir.mkdir(parents=True, exist_ok=True)
    t0 = time.perf_counter()
    result = None
    trace = []
    converged = False
    tolerance = None  # a solve that raised tested no threshold it could report
    try:
        result = solve(problem, cfg.options)
        trace = list(result.residual_trace)
        converged = result.converged
        tolerance = result.tolerance
    except DivergenceError as exc:
        trace = list(exc.trace)
    wall_ms = (time.perf_counter() - t0) * 1000.0

    junctions = []
    max_abs_err = None
    if result is not None:
        junctions = [{"x": x, "y": y, "dy": dy} for x, y, dy in result.junctions]
        columns, table, max_abs_err = _solution_table(problem, result, cfg.eval_points)
        _write_table(outdir / f"solution.{cfg.format}", columns, table, cfg.format)
    summary = {
        "problem": problem.name,
        "n_segments": problem.n_segments,
        "N": Ns[0] if len(set(Ns)) == 1 else Ns,
        "m": ms[0] if len(set(ms)) == 1 else ms,
        "iterations": len(trace),
        "converged": converged,
        "tolerance": tolerance,
        "residual_trace": trace,
        "junctions": junctions,
        "max_abs_err": max_abs_err,
        "wall_time_ms": wall_ms,
    }
    (outdir / "summary.json").write_text(_to_json(summary) + "\n")
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
    for key, (_, _, metavar, text) in _OPTIONS.items():
        parser.add_argument("--" + key.replace("_", "-"), metavar=metavar, help=text)
    return parser


_PARSER = build_parser()  # built once: a parser costs about 1 ms to build


def main(argv=None) -> int:
    args = _PARSER.parse_args(argv)
    try:
        if args.config:
            problem, cfg = parse_config(args.config)
        else:
            problem = builtin(args.problem)
            cfg = RunConfig()
        flags = {key: _flag_value(text, key) for key, text in vars(args).items()
                 if key in _OPTIONS and text is not None}
        return run(problem, _settings(flags, cfg))
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
