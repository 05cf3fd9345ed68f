"""Span recorder that times hybvp's layers from outside the library.

Each hook replaces a module attribute through which one layer calls the
next (for example ``hybvp.solver._scaled_qr_lstsq``) with a wrapper that
records a span: name, op id, parent span, start and end.  Spans stay in
memory until the run ends.  A hook whose target no longer exists is
reported as absent, so renaming a private function never stops the
benchmark.
"""

from __future__ import annotations

import functools
import importlib
import time
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path

import numpy as np

_BLOCKS = ("single_bvp_block", "first_segment_block", "middle_segment_block", "last_segment_block")


def _arg(args, kwargs, index: int, name: str):
    return kwargs[name] if name in kwargs else args[index]


def _matrices(args, kwargs, out):
    A = out.A
    return {"bytes": sum(a.nbytes for a in A), "nnz": sum(int(np.count_nonzero(a)) for a in A),
            "cells": sum(a.size for a in A)}


def _block(args, kwargs, out):
    coeffs = out[0]
    return {"nnz": int(np.count_nonzero(coeffs)), "cells": coeffs.size}


def _lstsq(args, kwargs, out):
    M = np.asarray(_arg(args, kwargs, 0, "M"))
    p, q = M.shape
    return {"flop": 2.0 * q * q * (p - q / 3.0), "nnz": int(np.count_nonzero(M)), "cells": M.size,
            "rank_deficient": int(bool(out[1].rank_deficient))}


def _points(args, kwargs, out):
    return {"points": int(np.size(_arg(args, kwargs, 3, "x")))}


def _written(args, kwargs, out):
    return {"bytes": Path(_arg(args, kwargs, 0, "path")).stat().st_size,
            "rows": len(_arg(args, kwargs, 2, "rows"))}


# (module, attribute, span name, measure of the call's arguments and result)
HOOKS = (
    ("hybvp.cli", "main", "cli.main", None),
    ("hybvp.cli", "run", "cli.run", None),
    ("hybvp.cli", "solve", "solver.solve", None),
    ("hybvp.cli", "analytic_value", "problems.analytic", None),
    ("hybvp.cli", "_solution_table", "cli.table", None),
    ("hybvp.cli", "_write_table", "cli.write", _written),
    ("hybvp.solver", "solve", "solver.solve", None),
    ("hybvp.solver", "solve_linear", "solver.solve", None),
    ("hybvp.solver", "solve_nonlinear", "solver.solve", None),
    ("hybvp.solver", "segment_grids", "assembly.grids", None),
    ("hybvp.solver", "assemble_all", "assembly.assemble", _matrices),
    ("hybvp.solver", "_scaled_qr_lstsq", "solver.lstsq", _lstsq),
    ("hybvp.solver", "_stacked_residual", "solver.residual", None),
    ("hybvp.solver", "_jacobian", "solver.jacobian", None),
    ("hybvp.solver", "_finalize", "solver.finalize", None),
    ("hybvp.solver", "evaluate_solution", "solver.evaluate", _points),
    ("hybvp.solver", "analytic_value", "problems.analytic", None),
    *(("hybvp.solver", b, "expressions.block", _block) for b in _BLOCKS),
    *(("hybvp.assembly", b, "expressions.block", _block) for b in _BLOCKS),
    ("hybvp.expressions", "eval_basis", "basis.eval", None),
    *(("hybvp.expressions", f, "switching.eval", None) for f in ("alpha", "beta", "gamma")),
    *(("workloads", f, "problems.callback", None)
      for f in ("chain_residual", "chain_d_y", "chain_d_dy", "chain_d_d2y")),
)

# per-layer metric -> span names whose self time it sums
SELF_MS = {
    "assembly.assemble_ms": ("assembly.assemble",),
    "assembly.grids_ms": ("assembly.grids",),
    "expressions.block_ms": ("expressions.block",),
    "basis.eval_ms": ("basis.eval",),
    "switching.eval_ms": ("switching.eval",),
    "solver.lstsq_ms": ("solver.lstsq",),
    "solver.jacobian_ms": ("solver.jacobian",),
    "solver.residual_ms": ("solver.residual",),
    "solver.evaluate_ms": ("solver.evaluate",),
    "solver.finalize_ms": ("solver.finalize",),
    "solver.self_ms": ("solver.solve",),
    "problems.analytic_ms": ("problems.analytic",),
    "problems.callback_ms": ("problems.callback",),
    "cli.table_ms": ("cli.table",),
    "cli.write_ms": ("cli.write",),
    "cli.self_ms": ("cli.main", "cli.run"),
}
CALLS = {
    "expressions.block_calls": "expressions.block",
    "basis.eval_calls": "basis.eval",
    "switching.eval_calls": "switching.eval",
    "solver.lstsq_calls": "solver.lstsq",
    "solver.gn_iters": "solver.jacobian",   # one Jacobian per Gauss-Newton iteration
}


@dataclass(frozen=True)
class Span:
    op: int
    sid: int
    parent: int
    name: str
    t0: float
    t1: float
    attrs: dict


class Recorder:
    """Installs the hooks around one op at a time and keeps every span."""

    ROOT = "op"

    def __init__(self):
        self.spans: list[Span] = []
        self.absent: list[str] = []
        self.measure_errors: dict[str, int] = defaultdict(int)
        self._stack = [0]
        self._next_sid = 1
        self._op = 0
        self._targets = []
        for module_name, attr, span, measure in HOOKS:
            try:
                module = importlib.import_module(module_name)
            except ImportError:
                module = None
            if module is None or not callable(getattr(module, attr, None)):
                self.absent.append(f"{module_name}.{attr}")
            else:
                self._targets.append((module, attr, span, measure))

    def run(self, op_id: int, fn, *args):
        """Call fn(*args) as op op_id with every hook installed."""
        self._op = op_id
        installed = []
        for module, attr, span, measure in self._targets:
            original = getattr(module, attr)
            installed.append((module, attr, original))
            setattr(module, attr, self._wrap(original, span, measure))
        try:
            return self._wrap(fn, self.ROOT, None)(*args)
        finally:
            for module, attr, original in reversed(installed):
                setattr(module, attr, original)

    def _wrap(self, fn, name: str, measure):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = self._stack[-1]
            sid = self._next_sid
            self._next_sid += 1
            self._stack.append(sid)
            attrs = {}
            t0 = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                self._stack.pop()
                self.spans.append(Span(self._op, sid, parent, name, t0, t1, attrs))
            if measure is not None:
                try:
                    attrs.update(measure(args, kwargs, out))
                except Exception:  # a changed signature must not stop the run
                    self.measure_errors[name] += 1
            return out

        return wrapper

    def layer_metrics(self) -> dict:
        """Per-op means of self times, call counts and measured work."""
        child = defaultdict(float)
        for s in self.spans:
            child[s.parent] += s.t1 - s.t0
        self_ms = defaultdict(float)
        calls = defaultdict(int)
        attrs = defaultdict(float)
        for s in self.spans:
            self_ms[s.name] += (s.t1 - s.t0 - child[s.sid]) * 1e3
            calls[s.name] += 1
            for key, value in s.attrs.items():
                attrs[s.name, key] += value
        ops = max(calls[self.ROOT], 1)
        op_ms = sum((s.t1 - s.t0) * 1e3 for s in self.spans if s.name == self.ROOT)

        def ratio(name, num, den):
            return attrs[name, num] / attrs[name, den] if attrs[name, den] else 0.0

        out = {metric: sum(self_ms[n] for n in names) / ops for metric, names in SELF_MS.items()}
        out.update({metric: calls[name] / ops for metric, name in CALLS.items()})
        out.update({
            "assembly.matrix_mib": attrs["assembly.assemble", "bytes"] / 2 ** 20 / ops,
            "assembly.nonzero_frac": ratio("assembly.assemble", "nnz", "cells"),
            "expressions.cells": attrs["expressions.block", "cells"] / ops,
            "expressions.nonzero_frac": ratio("expressions.block", "nnz", "cells"),
            "solver.lstsq_gflop": attrs["solver.lstsq", "flop"] / 1e9 / ops,
            "solver.lstsq_density": ratio("solver.lstsq", "nnz", "cells"),
            "solver.rank_deficient": attrs["solver.lstsq", "rank_deficient"] / ops,
            "solver.evaluate_points": attrs["solver.evaluate", "points"] / ops,
            "cli.bytes_written": attrs["cli.write", "bytes"] / ops,
            "cli.rows_written": attrs["cli.write", "rows"] / ops,
            "trace.op_ms": op_ms / ops,
            "trace.accounted_frac": sum(self_ms[n] for names in SELF_MS.values() for n in names)
                                    / op_ms if op_ms else 0.0,
        })
        return out
