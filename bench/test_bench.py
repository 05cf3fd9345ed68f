"""Tests of the benchmark itself.

Run from the repository root with:  python -m pytest bench
"""

import json
import subprocess
import sys

import numpy as np
import pytest

import common
import workloads

hybvp = common.import_hybvp()
SPEC = json.loads((common.ROOT / "BENCHMARK.json").read_text())


def _run(workload: str, trace: int) -> dict:
    done = subprocess.run(
        [sys.executable, str(common.ROOT / "bench" / "run.py"), "--workload", workload,
         "--seed", "7", "--seconds", "0.01", "--trace", str(trace)],
        capture_output=True, text=True, timeout=300, check=True, cwd=common.ROOT)
    return json.loads(done.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_every_metric_is_emitted_with_its_unit(workload, trace):
    result = _run(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1
    assert 0 <= result["failed"] <= result["attempted"]
    wanted = SPEC["per_layer" if trace else "end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in wanted}
    assert all(np.isfinite(m["value"]) for m in result["metrics"].values())


def test_workloads_match_benchmark_json():
    assert tuple(w["name"] for w in SPEC["workloads"]) == workloads.WORKLOADS


def test_inputs_follow_the_seed():
    digest = lambda seed: workloads.make("chain_nonlinear", hybvp, seed, common.OUTPUT_DIR).digest
    assert digest(3) == digest(3)
    assert digest(3) != digest(4)


class _ClosedForm:
    """A stand-in SolveResult that evaluates a closed form, left segment at junctions."""

    def __init__(self, solution, shift=0.0, from_segment=None, converged=True):
        self.solution, self.shift, self.from_segment = solution, shift, from_segment
        self.converged = converged

    def evaluate(self, x, d=0):
        x = np.atleast_1d(np.asarray(x, dtype=float))
        seg = np.searchsorted(self.solution.break_points[1:-1], x, side="left")
        out = np.empty_like(x)
        for k in np.unique(seg):
            mask = seg == k
            out[mask] = self.solution.segment_value(k, x[mask], d)
            if self.from_segment is not None and k >= self.from_segment and d == 0:
                out[mask] += self.shift
        return out


@pytest.fixture(scope="module")
def chain():
    return workloads.make("chain_nonlinear", hybvp, 0, common.OUTPUT_DIR)


def test_closed_form_passes_the_checks(chain):
    outcome = chain.check(0, _ClosedForm(chain.pool[0][1]))
    assert outcome.reasons == []
    assert outcome.max_err < 1e-12


def test_solver_answer_is_accurate_and_c1(chain):
    outcome = chain.check(0, chain.run_op(0))
    assert outcome.answered
    assert outcome.max_err < workloads.ACCURACY_TOL
    assert not {"inaccurate", "c1_broken"} & set(outcome.reasons)


def test_perturbed_solution_is_counted_as_failed(chain):
    perturbed = _ClosedForm(chain.pool[0][1], shift=1e-6, from_segment=8)
    assert set(chain.check(0, perturbed).reasons) == {"inaccurate", "c1_broken"}


def test_unconverged_and_raised_ops_are_counted_as_failed(chain):
    assert chain.check(0, _ClosedForm(chain.pool[0][1], converged=False)).reasons == ["not_converged"]
    raised = chain.check(0, hybvp.DivergenceError("diverged", []))
    assert raised.failed and not raised.answered and not raised.wrong


def _perturb_table(path, row, column, delta):
    lines = path.read_text().splitlines()
    cells = lines[row].split(",")
    cells[column] = repr(float(cells[column]) + delta)
    lines[row] = ",".join(cells)
    path.write_text("\n".join(lines) + "\n")


@pytest.mark.parametrize("row, reason", [(500, "inaccurate"), (1000, "c1_broken")])
def test_perturbed_cli_table_is_counted_as_failed(tmp_path, row, reason):
    outdir = tmp_path / "linear_linear"
    status = hybvp.cli.main(["--problem", "linear_linear", "--output", str(outdir)])
    _perturb_table(outdir / "solution.csv", row, 2, 1e-6)   # column 2 is y
    assert reason in workloads.check_reference("linear_linear", status, outdir).reasons


def test_cli_table_of_the_builtins_passes_the_checks(tmp_path):
    workload = workloads.make("reference", hybvp, 0, tmp_path)
    outcome = workload.check(0, workload.run_op(0))
    assert outcome.reasons == []
    assert not any(tmp_path.rglob("solution.csv"))
