import json
import math
import tracemalloc
from dataclasses import fields, replace

import numpy as np
import pytest

from hybvp import cli
from hybvp.cli import (_OPTIONS, RunConfig, _flag_value, _settings, _write_table, build_parser,
                       main, parse_config, run)
from hybvp.problems import HybridProblem, builtin, linear_dynamics, nonlinear_dynamics
from hybvp.solver import SolveOptions, _linearize, solve
from oracles import layout_of, segment_block, spec_of

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
    assert cfg.options == SolveOptions(N=80, m=8, tol=1e-13)
    res_cfg = solve(problem, cfg.options)
    res_ref = solve(builtin("linear_linear"), SolveOptions(N=80, m=8))
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
    ("m", [8, 8.5]), ("max_iter", 2.5), ("tol", [1e-13]), ("tol", True), ("tol", "abc"),
    ("tol", math.inf), pytest.param("tol", 10 ** 400, id="tol-int-beyond-float"),
    ("init", [None, 1]), ("init", [True, 1]), ("init", [math.nan, 1]), ("init", "1,inf"),
    ("init", 1.0), ("basis", 1), ("format", ["csv"]), ("output", [1]),
    ("init_policy", "line"), ("basis", "foo"), ("emit_plot_data", True)])
def test_main_rejects_bad_solver_values(tmp_path, capsys, key, value):
    payload = dict(_LL_JSON, solver=dict(_LL_JSON["solver"], **{key: value}))
    out = tmp_path / "out"
    status = main(["--config", str(_write_config(tmp_path, payload)), "--output", str(out)])
    assert status == 2
    assert f"solver.{key}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("flag,value,key", [("--eval-points", "0", "eval_points"),
                                            ("--eval-points", "1", "eval_points"),
                                            ("--N", "40.9", "N"), ("--m", "8,8.5", "m"),
                                            ("--tol", "inf", "tol"), ("--tol", "nan", "tol"),
                                            ("--basis", "foo", "basis"),
                                            ("--format", "xml", "format"),
                                            ("--max-iter", "2.5", "max_iter"),
                                            ("--eval-points", "1.5", "eval_points"),
                                            ("--tol", "abc", "tol")])
def test_bad_flag_values_are_rejected(tmp_path, capsys, flag, value, key):
    out = tmp_path / "out"
    status = main(["--problem", "linear_linear", "--output", str(out), flag, value])
    assert status == 2
    assert f"solver.{key}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("key,value,flag", [
    ("basis", "foo", "foo"), ("format", "xml", "xml"), ("max_iter", 2.5, "2.5"),
    ("eval_points", 1.5, "1.5"), ("tol", "abc", "abc"), ("tol", 0, "0"), ("N", 40.9, "40.9"),
    ("m", [8, 8.5], "8,8.5"), ("init", [1, math.inf], "1,inf")])
def test_a_bad_value_gets_the_same_message_from_its_flag_and_its_key(tmp_path, capsys, key,
                                                                    value, flag):
    messages = []
    path = tmp_path / "problem.json"
    for solver, flags in (({key: value}, []), ({}, ["--" + key.replace("_", "-"), flag])):
        path.write_text(json.dumps(dict(_LL_JSON, solver=solver)))
        assert main(["--config", str(path), "--output", str(tmp_path / "out")] + flags) == 2
        messages.append(capsys.readouterr().err)
    assert messages[0] == messages[1]
    assert messages[0].startswith(f"error: solver.{key}: ")


@pytest.mark.parametrize("argv,key", [
    (["--problem", "linear_nonlinear", "--init", "1,2,3"], "init"),
    (["--problem", "nonlinear_nonlinear", "--init", "1"], "init"),
    (["--problem", "linear_linear", "--tol", "0"], "tol"),
    (["--problem", "linear_linear", "--tol=-1e-3"], "tol"),
    (["--problem", "linear_linear", "--max-iter", "0"], "max_iter"),
    # the sizes: m below 1, N below m + 4 and a per-segment count that is not the problem's
    (["--problem", "linear_linear", "--m", "0"], "m"),
    (["--problem", "linear_linear", "--m=-2"], "m"),
    (["--problem", "linear_linear", "--N", "3"], "N"),
    (["--problem", "linear_linear", "--N", "40,60,70"], "N")])
def test_bad_solver_settings_are_rejected_before_any_output(tmp_path, capsys, argv, key):
    out = tmp_path / "out"
    status = main(argv + ["--output", str(out)])
    assert status == 2
    assert capsys.readouterr().err.startswith(f"error: solver.{key}: ")
    assert not out.exists()


def test_linear_problems_check_the_init_seeds(tmp_path, capsys):
    # every solve starts from the seeds, so a linear one checks their arity too
    out = tmp_path / "out"
    assert main(["--problem", "linear_linear", "--init", "1,2,3", "--output", str(out)]) == 2
    assert "solver.init: expected 2 values" in capsys.readouterr().err
    assert not out.exists()
    assert main(["--problem", "linear_linear", "--init", "1,2", "--output", str(out),
                 "--eval-points", "10"]) == 0
    assert json.loads((out / "summary.json").read_text())["converged"] is True


def test_a_run_tested_against_its_floor_writes_a_strict_summary(tmp_path):
    # four segments put F above tol; converged used to be an np.bool_, and
    # writing the summary raised TypeError
    payload = {"break_points": [0.0, 0.25, 0.5, 0.75, 1.0], "y0": 0.0, "yf": 1.0,
               "segments": [{"a2": [1.0], "f": [float(k % 3), 0.0, 1.0]} for k in range(4)],
               "solver": {"N": 20, "m": 8}}
    out = tmp_path / "out"
    assert main(["--config", str(_write_config(tmp_path, payload)), "--output", str(out),
                 "--eval-points", "10"]) == 0
    summary = json.loads((out / "summary.json").read_text(), parse_constant=_reject_constant)
    assert summary["converged"] is True and summary["tolerance"] > 1e-13


def _reject_constant(name):
    raise ValueError(f"non-standard JSON constant {name}")


def test_summary_stays_strict_json_when_the_residual_turns_non_finite(tmp_path):
    calls = []

    def residual(x, y, dy, d2y):
        calls.append(1)
        return d2y + y ** 2 - (1.0 if len(calls) == 1 else np.inf)

    dyn = nonlinear_dynamics(residual, d_y=lambda x, y, dy, d2y: 2.0 * y,
                             d_dy=lambda x, y, dy, d2y: np.zeros_like(x),
                             d_d2y=lambda x, y, dy, d2y: np.ones_like(x))
    problem = HybridProblem(break_points=(0.0, 1.0), segments=(dyn,), y0=0.0, yf=0.5,
                            name="blow_up")
    status = run(problem, RunConfig(SolveOptions(N=20, m=5), output=str(tmp_path)))
    assert status == 1
    summary = json.loads((tmp_path / "summary.json").read_text(),
                         parse_constant=_reject_constant)
    assert summary["converged"] is False
    assert summary["residual_trace"] == [None]
    assert summary["tolerance"] is None


def test_integral_floats_are_accepted(tmp_path):
    payload = dict(_LL_JSON, solver={"N": 80.0, "m": [8.0, 9], "max_iter": 3.0,
                                     "eval_points": 20.0})
    _, cfg = parse_config(_write_config(tmp_path, payload))
    opts = cfg.options
    assert (opts.N, opts.m, opts.max_iter, cfg.eval_points) == (80, (8, 9), 3, 20)
    assert all(type(v) is int for v in (opts.N, *opts.m, opts.max_iter, cfg.eval_points))


def test_non_finite_forcing_fails_the_run(tmp_path):
    # exp(800 x) overflows to inf for x > 0.89; errstate silences numpy's warning
    payload = dict(_LL_JSON, segments=[{"a2": [1.0]},
                                       {"a2": [1.0], "f": {"terms": [{"fn": "exp", "k": 800.0}]}}],
                   solver={})
    with np.errstate(over="ignore"):
        status = main(["--config", str(_write_config(tmp_path, payload)),
                       "--output", str(tmp_path / "out")])
    assert status == 1
    summary = json.loads((tmp_path / "out" / "summary.json").read_text())
    assert summary["converged"] is False
    # the sizes the solver resolved: the default N and the fallback m
    assert (summary["N"], summary["m"]) == (100, 16)
    assert not (tmp_path / "out" / "solution.csv").exists()


def test_run_writes_tables_and_summary(tmp_path):
    problem = builtin("linear_linear")
    cfg = RunConfig(SolveOptions(N=100, m=8), output=str(tmp_path), eval_points=200)
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
                            "tolerance", "residual_trace", "junctions", "max_abs_err",
                            "wall_time_ms"}
    assert summary["problem"] == "linear_linear"
    assert summary["n_segments"] == 2
    assert summary["N"] == 100 and summary["m"] == 8
    assert summary["converged"] is True
    assert summary["iterations"] == len(summary["residual_trace"]) == 1
    # the threshold, max(tol, F) at the solution, and the residual under it
    res = solve(problem, cfg.options)
    assert summary["tolerance"] == max(1e-13, _linearize(problem, res.system, res.xi)[2])
    assert summary["residual_trace"][-1] <= summary["tolerance"]
    assert abs(summary["junctions"][0]["y"] - 77.0 / 192.0) < 1e-12

    assert sorted(p.name for p in tmp_path.iterdir()) == ["solution.csv", "summary.json"]


def test_solution_table_equals_the_per_order_evaluation(tmp_path):
    """The table holds the segment evaluator's values bit for bit, and the kernel's to rounding."""
    problem = builtin("linear_nonlinear")
    run(problem, RunConfig(output=str(tmp_path), eval_points=200))
    result = solve(problem)
    rows = [line.split(",") for line in (tmp_path / "solution.csv").read_text().splitlines()[1:]]
    layout = layout_of(result.system.roles)
    for k in (1, 2):
        iv = result.system.intervals[k - 1]
        xs = np.linspace(iv.x0, iv.xf, 200)
        for d in (0, 1, 2):
            column = [row[2 + d] for row in rows[(k - 1) * 200:k * 200]]
            assert column == [format(v, ".17g") for v in result.segment_values(k, xs, d)]
            coeffs, offsets = segment_block(spec_of(result.system, k), iv, k, layout,
                                            problem.y0, problem.yf, xs, (d,))[d]
            kernel = coeffs @ result.xi[layout.window(k)] + offsets
            table = np.array([float(v) for v in column])
            assert np.all(np.abs(table - kernel) <= 1e-13 * np.maximum(1.0, np.abs(kernel)))


@pytest.mark.parametrize("family", ["chebyshev", "legendre"])
@pytest.mark.parametrize("name", ["linear_linear", "linear_nonlinear", "nonlinear_nonlinear"])
def test_the_summary_error_is_max_abs_err_bitwise_at_the_default_eval_points(tmp_path, name, family):
    problem = builtin(name)
    run(problem, RunConfig(SolveOptions(family=family), output=str(tmp_path)))
    summary = json.loads((tmp_path / "summary.json").read_text())
    assert summary["max_abs_err"] == solve(problem, SolveOptions(family=family)).max_abs_err


@pytest.mark.parametrize("d", [0, 1, 2])
def test_a_nan_error_is_not_dropped(tmp_path, d):
    # a NaN used to lose every max against the error so far: max_abs_err read 2.9e-15
    problem = builtin("linear_linear")
    second = list(problem.solution[1])
    exact = second[d]
    second[d] = lambda x: np.where(x > 0.9, math.nan, exact(x))
    problem = replace(problem, solution=(problem.solution[0], tuple(second)))
    result = solve(problem)
    assert math.isnan(result.errors_by_order[d]) and math.isnan(result.max_abs_err)
    assert all(err <= 1e-12 for order, err in result.errors_by_order.items() if order != d)
    run(problem, RunConfig(output=str(tmp_path)))
    assert json.loads((tmp_path / "summary.json").read_text())["max_abs_err"] is None


def test_a_constant_closed_form_fills_its_table_column(tmp_path):
    # y' = 1 written as a constant used to fail the table's column stacking, and the run exited 2
    problem = HybridProblem((0.0, 1.0), (linear_dynamics(a2=1.0),), 0.0, 1.0,
                            solution=((lambda x: x, lambda x: 1.0, lambda x: 0.0),))
    cfg = RunConfig(SolveOptions(N=20, m=4), output=str(tmp_path), eval_points=5)
    assert run(problem, cfg) == 0
    rows = [line.split(",") for line in (tmp_path / "solution.csv").read_text().splitlines()[1:]]
    assert [row[7] for row in rows] == ["1"] * 5
    assert json.loads((tmp_path / "summary.json").read_text())["max_abs_err"] <= 1e-14


def test_junction_rows_use_their_own_segment(tmp_path):
    """The first row of segment 2 sits on the junction: y'' is the right limit."""
    problem = builtin("linear_linear")
    run(problem, RunConfig(SolveOptions(N=100, m=8), output=str(tmp_path), eval_points=50))
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
        run(problem, RunConfig(SolveOptions(N=60, m=8), output=str(out), eval_points=50))
    assert (out1 / "solution.csv").read_bytes() == (out2 / "solution.csv").read_bytes()


def test_serialized_numbers_round_trip_exactly(tmp_path):
    problem = builtin("linear_linear")
    cfg = RunConfig(SolveOptions(N=60, m=8), output=str(tmp_path), eval_points=30)
    run(problem, cfg)
    lines = (tmp_path / "solution.csv").read_text().splitlines()[1:]
    assert lines
    for line in lines:
        for field in line.split(",")[1:]:
            # parse-and-reformat reproduces the text: no precision was lost
            assert format(float(field), ".17g") == field
    # and the exact junction value survives the text round trip
    res = solve(problem, cfg.options)
    y_mid = res.evaluate(np.array([0.5]))[0]
    assert float(format(y_mid, ".17g")) == y_mid


def test_json_table_format(tmp_path):
    problem = builtin("nonlinear_nonlinear")
    cfg = RunConfig(SolveOptions(init_values=(1.30685, -0.5)), output=str(tmp_path), format="json",
                    eval_points=20)
    status = run(problem, cfg)
    assert status == 0
    table = json.loads((tmp_path / "solution.json").read_text())
    assert table["columns"][0] == "segment_index"
    assert len(table["rows"]) == 40
    summary = json.loads((tmp_path / "summary.json").read_text())
    assert abs(summary["junctions"][0]["y"] - (2.0 - math.log(2.0))) <= 1e-9


def test_unconverged_run_still_writes_summary(tmp_path):
    problem = builtin("nonlinear_nonlinear")
    cfg = RunConfig(SolveOptions(N=100, m=60, max_iter=1), output=str(tmp_path))
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


def test_main_reuses_one_parser_and_no_flag_outlives_its_run(tmp_path, monkeypatch):
    monkeypatch.setattr(cli, "build_parser", lambda: pytest.fail("main built a parser"))
    first, second = tmp_path / "first", tmp_path / "second"
    assert main(["--problem", "linear_linear", "--basis", "legendre", "--m", "10",
                 "--format", "json", "--output", str(first), "--eval-points", "20"]) == 0
    assert main(["--problem", "nonlinear_nonlinear", "--output", str(second),
                 "--eval-points", "20"]) == 0
    assert sorted(p.name for p in first.iterdir()) == ["solution.json", "summary.json"]
    assert sorted(p.name for p in second.iterdir()) == ["solution.csv", "summary.json"]
    for out, name, opts in ((first, "linear_linear", SolveOptions(m=10, family="legendre")),
                            (second, "nonlinear_nonlinear", SolveOptions())):
        summary = json.loads((out / "summary.json").read_text())
        res = solve(builtin(name), opts)
        assert summary["problem"] == name and summary["m"] == layout_of(res.system.roles).ms[0]
        # the second run's defaults, basis included, are not the first run's flags
        assert summary["residual_trace"] == res.residual_trace
        assert summary["converged"] is True and summary["max_abs_err"] <= 1e-13


def test_an_under_resolved_config_exits_unconverged(tmp_path):
    # y'' = e^{2x}, then 1 + x^2: m = 9 leaves ||L|| = 3.9e-12, about 170 times
    # its rounding floor, which the old linear threshold of 4.3e-11 passed
    payload = {
        "break_points": [0.0, 0.5, 1.0], "y0": 0.0, "yf": 1.0,
        "segments": [{"a2": [1.0], "f": {"poly": [0.0], "terms": [{"fn": "exp", "k": 2.0}]}},
                     {"a2": [1.0], "f": [1.0, 0.0, 1.0]}],
        "solver": {"N": 40, "m": 9},
    }
    out = tmp_path / "out"
    assert main(["--config", str(_write_config(tmp_path, payload)), "--output", str(out),
                 "--eval-points", "20"]) == 1
    summary = json.loads((out / "summary.json").read_text())
    # the second step stalls at the least-squares minimum the first one reached
    assert summary["converged"] is False and summary["iterations"] == 2
    assert summary["tolerance"] == 1e-13
    assert summary["residual_trace"][-1] > 10 * summary["tolerance"]
    assert (out / "solution.csv").is_file()


def _without_wall_time(path):
    return [line for line in path.read_text().splitlines() if "wall_time_ms" not in line]


# one (config value, flag text) pair per run option
_SAME_SETTING = [
    ("N", [60, 70], "60,70"), ("m", 9, "9"), ("basis", "legendre", "legendre"),
    ("tol", 1e-12, "1e-12"), ("max_iter", 4, "4"), ("init", [0.4, 0.9], "0.4,0.9"),
    ("eval_points", 25, "25"), ("format", "json", "json"), ("output", "run", "run")]


def test_every_option_sets_one_solve_options_or_run_config_field_and_has_a_flag_case():
    # the CLI-only fields are RunConfig's own; its options field holds the rest
    run_fields = {f.name for f in fields(RunConfig)} - {"options"}
    targets = [field for field, *_ in _OPTIONS.values()]
    assert sorted(targets) == sorted({f.name for f in fields(SolveOptions)} | run_fields)
    assert set(_OPTIONS) == {c[0] for c in _SAME_SETTING}


@pytest.mark.parametrize("key,value,flag", _SAME_SETTING)
def test_flag_and_config_key_give_the_same_run(tmp_path, monkeypatch, key, value, flag):
    """Each option reads the same from its config key as from its flag, and writes the same files."""
    assert _settings({key: value}) == _settings({key: _flag_value(flag, key)})
    outs = []
    for side in ("file", "flag"):
        out = tmp_path / side
        out.mkdir()
        monkeypatch.chdir(out)  # the default output directory, "." (and "run" below it)
        solver = {"eval_points": 30, **({key: value} if side == "file" else {})}
        path = tmp_path / f"{side}.json"
        path.write_text(json.dumps(dict(_LL_JSON, solver=solver)))
        flags = ["--" + key.replace("_", "-"), flag] if side == "flag" else []
        assert main(["--config", str(path)] + flags) == 0
        outs.append(out / value if key == "output" else out)
    names = sorted(p.name for p in outs[0].iterdir())
    assert names == sorted(p.name for p in outs[1].iterdir()) == \
        sorted(["summary.json", "solution." + (value if key == "format" else "csv")])
    for name in names:
        assert _without_wall_time(outs[0] / name) == _without_wall_time(outs[1] / name)


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


def _awkward_table(rows: int, cols: int) -> np.ndarray:
    """Random floats with every special value and integral values mixed in."""
    rng = np.random.default_rng(rows)
    table = rng.normal(size=(rows, cols)) * 10.0 ** rng.integers(-300, 300, size=(rows, cols))
    table[:, 0] = np.arange(rows) % 7
    specials = [np.nan, np.inf, -np.inf, -0.0, 0.0, 5e-324, -5e-324, 1e300, 1.0, -3.0, 2.0 ** 53]
    cells = rng.choice(rows * cols, size=min(rows * cols, 4 * len(specials)), replace=False)
    table.flat[cells] = np.resize(specials, cells.size)
    return table


@pytest.mark.parametrize("rows", [1, 31, 32, 33, 2000])
def test_csv_writer_writes_the_bytes_of_savetxt(tmp_path, rows):
    columns = ["segment_index", "x", "y", "dy", "d2y", "y_exact", "abs_err", "dy_exact", "abs_err_dy"]
    for cols in (5, 9):
        table = _awkward_table(rows, cols)
        _write_table(tmp_path / "table.csv", columns[:cols], table, "csv")
        np.savetxt(tmp_path / "oracle.csv", table, fmt="%.17g", delimiter=",",
                   header=",".join(columns[:cols]), comments="")
        assert (tmp_path / "table.csv").read_bytes() == (tmp_path / "oracle.csv").read_bytes()


def test_csv_writer_never_holds_the_whole_table_as_text(tmp_path):
    # a 2,000 x 9 table is about 390 KB of text; one % per 32 rows holds a few KiB of it
    table = _awkward_table(2000, 9)
    columns = [f"c{j}" for j in range(9)]
    tracemalloc.start()
    try:
        _write_table(tmp_path / "table.csv", columns, table, "csv")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 1024
    assert (tmp_path / "table.csv").stat().st_size > 300_000
