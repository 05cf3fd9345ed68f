import json
import math

import numpy as np
import pytest

from hybvp.cli import RunConfig, build_parser, main, parse_config, run
from hybvp.expressions import segment_block
from hybvp.problems import builtin
from hybvp.solver import SolveOptions, solve, solve_linear

_LL_JSON = {
    "name": "discontinuous_forcing",
    "break_points": [0.0, 0.5, 1.0],
    "y0": 0.0,
    "yf": 1.0,
    "segments": [
        {"a2": [1.0], "f": [0.0, 0.0, 1.0]},
        {"a2": [1.0], "f": [1.0, 0.0, 1.0]},
    ],
    "solver": {"N": 80, "m": 8, "tol": 1e-13},
}


def _write_config(tmp_path, payload=_LL_JSON):
    path = tmp_path / "problem.json"
    path.write_text(json.dumps(payload))
    return path


def test_parse_config_reproduces_builtin_problem(tmp_path):
    path = _write_config(tmp_path)
    problem, cfg = parse_config(path)
    assert problem.break_points == (0.0, 0.5, 1.0)
    assert cfg.N == 80 and cfg.m == 8 and cfg.tol == 1e-13
    res_cfg = solve_linear(problem, cfg.solve_options())
    res_ref = solve_linear(builtin("linear_linear"), SolveOptions(N=80, m=8))
    xs = np.linspace(0, 1, 201)
    assert np.max(np.abs(res_cfg.evaluate(xs) - res_ref.evaluate(xs))) <= 1e-13


def test_parse_config_error_paths(tmp_path):
    bad = dict(_LL_JSON, break_points=[0.0, 1.0, 0.5])
    with pytest.raises(ValueError, match="break_points not strictly increasing"):
        parse_config(_write_config(tmp_path, bad))

    bad = dict(_LL_JSON, segments=[{"a2": [0.0]}, {"a2": [1.0]}])
    with pytest.raises(ValueError, match="leading coefficient identically zero"):
        parse_config(_write_config(tmp_path, bad))

    bad = dict(_LL_JSON, solver={"points": 10})
    with pytest.raises(ValueError, match="solver.points: unknown option"):
        parse_config(_write_config(tmp_path, bad))

    with pytest.raises(ValueError, match="not found"):
        parse_config(tmp_path / "missing.json")

    (tmp_path / "broken.json").write_text("{not json")
    with pytest.raises(ValueError, match="not valid JSON"):
        parse_config(tmp_path / "broken.json")


@pytest.mark.parametrize("key,value", [
    ("format", "xml"), ("eval_points", 0), ("eval_points", 1), ("eval_points", 20.5),
    ("emit_plot_data", "false"), ("emit_plot_data", 1), ("N", 40.9), ("N", True),
    ("m", [8, 8.5]), ("max_iter", 2.5)])
def test_main_rejects_bad_solver_values(tmp_path, capsys, key, value):
    payload = dict(_LL_JSON, solver=dict(_LL_JSON["solver"], **{key: value}))
    out = tmp_path / "out"
    status = main(["--config", str(_write_config(tmp_path, payload)), "--output", str(out)])
    assert status == 2
    assert f"solver.{key}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("flag,value,key", [("--eval-points", "0", "eval_points"),
                                            ("--eval-points", "1", "eval_points"),
                                            ("--N", "40.9", "N"), ("--m", "8,8.5", "m")])
def test_bad_flag_values_are_rejected(tmp_path, capsys, flag, value, key):
    out = tmp_path / "out"
    status = main(["--problem", "linear_linear", "--output", str(out), flag, value])
    assert status == 2
    assert f"solver.{key}" in capsys.readouterr().err
    assert not out.exists()


def test_integral_floats_are_accepted(tmp_path):
    payload = dict(_LL_JSON, solver={"N": 80.0, "m": [8.0, 9], "max_iter": 3.0,
                                     "eval_points": 20.0, "emit_plot_data": False})
    _, cfg = parse_config(_write_config(tmp_path, payload))
    assert (cfg.N, cfg.m, cfg.max_iter, cfg.eval_points) == (80, (8, 9), 3, 20)
    assert all(type(v) is int for v in (cfg.N, *cfg.m, cfg.max_iter, cfg.eval_points))


def test_run_writes_tables_and_summary(tmp_path):
    problem = builtin("linear_linear")
    cfg = RunConfig(N=100, m=8, output=str(tmp_path), eval_points=200, emit_plot_data=True)
    status = run(problem, cfg)
    assert status == 0

    table = (tmp_path / "solution.csv").read_text().splitlines()
    header = table[0].split(",")
    assert header == ["segment_index", "x", "y", "dy", "d2y",
                      "y_exact", "abs_err", "dy_exact", "abs_err_dy"]
    errs = [float(line.split(",")[6]) for line in table[1:]]
    assert max(errs) <= 1e-12
    assert len(table) - 1 == 2 * 200

    summary = json.loads((tmp_path / "summary.json").read_text())
    assert set(summary) == {"problem", "n_segments", "N", "m", "iterations", "converged",
                            "residual_trace", "junctions", "max_abs_err", "wall_time_ms"}
    assert summary["problem"] == "linear_linear"
    assert summary["n_segments"] == 2
    assert summary["N"] == 100 and summary["m"] == 8
    assert summary["converged"] is True
    assert summary["iterations"] == len(summary["residual_trace"]) == 1
    assert abs(summary["junctions"][0]["y"] - 77.0 / 192.0) < 1e-12

    assert (tmp_path / "plot_solution.csv").is_file()
    assert (tmp_path / "plot_error.csv").is_file()


def test_solution_table_equals_the_per_order_evaluation(tmp_path):
    """One kernel call per segment gives the bytes of one call per order."""
    problem = builtin("linear_nonlinear")
    run(problem, RunConfig(output=str(tmp_path), eval_points=200))
    result = solve(problem)
    rows = [line.split(",") for line in (tmp_path / "solution.csv").read_text().splitlines()[1:]]
    layout = result.grids.layout
    for k in (1, 2):
        iv = result.grids.grids[k - 1].interval
        xs = np.linspace(iv.x0, iv.xf, 200)
        for d in (0, 1, 2):
            coeffs, offsets = segment_block(result.grids.specs[k - 1], iv, k, layout,
                                            problem.y0, problem.yf, xs, (d,))[d]
            values = coeffs @ result.xi[layout.window(k)] + offsets
            column = [row[2 + d] for row in rows[(k - 1) * 200:k * 200]]
            assert column == [format(v, ".17g") for v in values]


def test_junction_rows_use_their_own_segment(tmp_path):
    """The first row of segment 2 sits on the junction: y'' is the right limit."""
    problem = builtin("linear_linear")
    run(problem, RunConfig(N=100, m=8, output=str(tmp_path), eval_points=50))
    rows = [line.split(",") for line in (tmp_path / "solution.csv").read_text().splitlines()[1:]]
    left, right = rows[49], rows[50]
    assert left[:2] == ["1", "0.5"] and right[:2] == ["2", "0.5"]
    assert abs(float(left[4]) - 0.25) <= 1e-10   # x^2 at the junction
    assert abs(float(right[4]) - 1.25) <= 1e-10  # x^2 + 1 at the junction
    assert right[2:4] == left[2:4]               # y and y' are continuous bit for bit
    assert right[5] == format(problem.solution[1][0](0.5), ".17g")


def test_run_outputs_are_deterministic(tmp_path):
    problem = builtin("linear_linear")
    out1, out2 = tmp_path / "a", tmp_path / "b"
    for out in (out1, out2):
        run(problem, RunConfig(N=60, m=8, output=str(out), eval_points=50, emit_plot_data=True))
    for name in ("solution.csv", "plot_solution.csv", "plot_error.csv"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


def test_serialized_numbers_round_trip_exactly(tmp_path):
    problem = builtin("linear_linear")
    cfg = RunConfig(N=60, m=8, output=str(tmp_path), eval_points=30)
    run(problem, cfg)
    lines = (tmp_path / "solution.csv").read_text().splitlines()[1:]
    assert lines
    for line in lines:
        for field in line.split(",")[1:]:
            # parse-and-reformat reproduces the text: no precision was lost
            assert format(float(field), ".17g") == field
    # and the exact junction value survives the text round trip
    res = solve_linear(problem, cfg.solve_options())
    y_mid = res.evaluate(np.array([0.5]))[0]
    assert float(format(y_mid, ".17g")) == y_mid


def test_json_table_format(tmp_path):
    problem = builtin("nonlinear_nonlinear")
    cfg = RunConfig(output=str(tmp_path), format="json", eval_points=20,
                    init_policy="explicit", init=(1.30685, -0.5))
    status = run(problem, cfg)
    assert status == 0
    table = json.loads((tmp_path / "solution.json").read_text())
    assert table["columns"][0] == "segment_index"
    assert len(table["rows"]) == 40
    summary = json.loads((tmp_path / "summary.json").read_text())
    assert abs(summary["junctions"][0]["y"] - (2.0 - math.log(2.0))) <= 1e-9


def test_unconverged_run_still_writes_summary(tmp_path):
    problem = builtin("nonlinear_nonlinear")
    cfg = RunConfig(N=100, m=60, max_iter=1, output=str(tmp_path))
    status = run(problem, cfg)
    assert status == 1
    summary = json.loads((tmp_path / "summary.json").read_text())
    assert summary["converged"] is False
    assert summary["iterations"] == 1


def test_main_end_to_end_with_flags(tmp_path):
    status = main(["--problem", "linear_nonlinear", "--N", "100", "--m", "16",
                   "--init", "1,-1", "--output", str(tmp_path), "--eval-points", "50"])
    assert status == 0
    summary = json.loads((tmp_path / "summary.json").read_text())
    assert summary["converged"] is True
    assert summary["iterations"] <= 30


def test_main_flag_overrides_config(tmp_path):
    cfg_path = _write_config(tmp_path)
    out = tmp_path / "out"
    status = main(["--config", str(cfg_path), "--m", "10", "--output", str(out),
                   "--eval-points", "20"])
    assert status == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["m"] == 10
    assert summary["N"] == 80  # from the config file


def test_main_reports_config_errors(tmp_path, capsys):
    bad = dict(_LL_JSON, segments=[{"a2": [0.0]}, {"a2": [1.0]}])
    path = _write_config(tmp_path, bad)
    status = main(["--config", str(path)])
    assert status == 2
    assert "leading coefficient" in capsys.readouterr().err


def test_parser_rejects_missing_problem_source():
    with pytest.raises(SystemExit):
        build_parser().parse_args([])


def test_basis_flag_reaches_the_solver(tmp_path):
    status = main(["--problem", "linear_linear", "--basis", "legendre",
                   "--output", str(tmp_path), "--eval-points", "20"])
    assert status == 0
    summary = json.loads((tmp_path / "summary.json").read_text())
    assert summary["converged"] is True
    assert summary["max_abs_err"] <= 1e-12


def test_per_segment_overrides(tmp_path):
    status = main(["--problem", "linear_linear", "--N", "40,60", "--m", "6,9",
                   "--output", str(tmp_path), "--eval-points", "10"])
    assert status == 0
    summary = json.loads((tmp_path / "summary.json").read_text())
    assert summary["N"] == [40, 60]
    assert summary["m"] == [6, 9]
