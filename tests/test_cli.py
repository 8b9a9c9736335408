import contextlib
import csv
import io
import json
import math
import tempfile
import warnings
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fogsched import ExperimentPlan, Instance, calibrate_weights, evaluate
from fogsched.cli import main
from fogsched.harness import ALGORITHMS, read_records, run_algorithm, run_experiment
from fogsched.model import load_scenario


def _generate(tmp_path, tasks=6, nodes=3, seed=0, name="scenario.json"):
    path = tmp_path / name
    code = main([
        "generate", "--tasks", str(tasks), "--nodes", str(nodes),
        "--seed", str(seed), "--out", str(path),
    ])
    assert code == 0
    return path


def test_generate_writes_loadable_scenario(tmp_path, capsys):
    path = _generate(tmp_path, tasks=8, nodes=4, seed=3)
    config, topology, tasks = load_scenario(path)
    assert config.n_tasks == 8 and config.rng_seed == 3
    assert len(topology.nodes) == 4 and len(tasks) == 8
    assert "8 tasks" in capsys.readouterr().out


def test_generate_deterministic(tmp_path):
    a = _generate(tmp_path, seed=5, name="a.json")
    b = _generate(tmp_path, seed=5, name="b.json")
    assert a.read_bytes() == b.read_bytes()


def test_run_baseline_writes_report(tmp_path, capsys):
    scenario = _generate(tmp_path)
    out = tmp_path / "run"
    code = main([
        "run", str(scenario), "--algorithm", "RANDOM", "--seed", "1",
        "--weights", "1,1,1", "--out", str(out),
    ])
    assert code == 0
    report = json.loads((out / "report.json").read_text())
    assert report["fitness"] >= 0
    assert "RANDOM" in capsys.readouterr().out


def test_run_rigeo_writes_routing_summary(tmp_path):
    scenario = _generate(tmp_path)
    out = tmp_path / "rigeo"
    code = main(["run", str(scenario), "--algorithm", "RIGEO", "--out", str(out)])
    assert code == 0
    summary = json.loads((out / "routing_summary.json").read_text())
    assert set(summary) >= {"traffic", "deadline", "merged_metrics"}
    assert (out / "report.json").exists()


def test_run_rigeo_splits_deadlines_whose_sum_overflows(tmp_path, capsys):
    # two deadlines at 1e308 sum beyond float range; the split takes their exact mean
    scenario = _generate(tmp_path, tasks=8, nodes=4)
    doc = json.loads(scenario.read_text())
    for task in doc["tasks"][:2]:
        task["deadline"] = 1e308
    scenario.write_text(json.dumps(doc))
    out = tmp_path / "rigeo"
    assert main(["run", str(scenario), "--algorithm", "RIGEO", "--out", str(out)]) == 0
    summary = json.loads((out / "routing_summary.json").read_text())
    assert summary["deadline"]["high_deadline_tasks"] == [0, 1]
    assert capsys.readouterr().err == ""


def test_run_trace_file(tmp_path):
    scenario = _generate(tmp_path)
    out = tmp_path / "traced"
    code = main([
        "run", str(scenario), "--algorithm", "IGEO-only", "--trace", "--out", str(out),
    ])
    assert code == 0
    with open(out / "trace_IGEO-only.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["iteration", "best_fitness"]
    assert len(rows) > 1
    best = [float(r[1]) for r in rows[1:]]
    assert all(b2 <= b1 for b1, b2 in zip(best, best[1:]))


def test_run_rejects_invalid_scenario(tmp_path, capsys):
    scenario = _generate(tmp_path)
    doc = json.loads(scenario.read_text())
    doc["tasks"][0]["deadline"] = -5.0
    scenario.write_text(json.dumps(doc))
    code = main(["run", str(scenario), "--algorithm", "RANDOM"])
    assert code == 1
    assert "invalid scenario" in capsys.readouterr().err


def test_run_missing_scenario_exits_one(tmp_path, capsys):
    code = main(["run", str(tmp_path / "nope.json")])
    assert code == 1
    assert "error:" in capsys.readouterr().err


def test_experiment_and_aggregate_flow(tmp_path, capsys):
    out = tmp_path / "results"
    code = main([
        "experiment", "--tasks", "4,6", "--nodes", "3", "--reps", "1",
        "--algorithms", "RANDOM,GREEDY", "--seed", "0", "--out", str(out),
        "--workers", "1", "--pop", "4", "--iters", "5", "--episodes", "10",
    ])
    assert code == 0
    assert "4 records" in capsys.readouterr().out
    assert (out / "records.csv").exists()
    assert (out / "summary.csv").exists()

    summary_path = tmp_path / "resummary.csv"
    code = main(["aggregate", str(out / "records.csv"), "--out", str(summary_path)])
    assert code == 0
    with open(summary_path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert {(r["algorithm"], r["task_count"]) for r in rows} == {
        ("RANDOM", "4"), ("RANDOM", "6"), ("GREEDY", "4"), ("GREEDY", "6"),
    }


def test_experiment_rejects_unknown_algorithm(tmp_path, capsys):
    code = main([
        "experiment", "--tasks", "4", "--reps", "1",
        "--algorithms", "NOPE", "--out", str(tmp_path / "r"),
    ])
    assert code == 1
    assert "invalid plan" in capsys.readouterr().err


@pytest.mark.parametrize("flag,value,message", [
    ("--nodes", "0", "n_nodes must be > 0"),
    ("--tasks", "0", "n_tasks must be > 0"),
    ("--workers", "0", "workers must be >= 1"),
    ("--weights", "0,0,0", "at least one weight must be positive"),
    ("--weights", "nan,1,1", "w_response must be finite"),
    ("--seed", "-1", "base_seed must be >= 0"),
    ("--pop", "1", "population_size must be >= 2"),
    ("--iters", "0", "iterations must be >= 1"),
    ("--episodes", "0", "episodes must be >= 1"),
    ("--algorithms", "RANDOM,RANDOM", "algorithm RANDOM: duplicate id (in algorithms)"),
])
def test_experiment_rejects_bad_plan(tmp_path, capsys, flag, value, message):
    argv = ["experiment", "--tasks", "4", "--nodes", "3", "--reps", "1",
            "--algorithms", "RANDOM", "--workers", "1", "--out", str(tmp_path / "r")]
    argv += [flag, value]  # argparse keeps the last value of a repeated flag
    code = main(argv)
    assert code == 1
    assert f"invalid plan: {message}" in capsys.readouterr().err
    assert not (tmp_path / "r").exists()


@pytest.mark.parametrize("flag,value,expected", [
    ("--tasks", "4,x", "expected comma-separated integers such as 200,400, got '4,x'"),
    ("--weights", "a,b,c", "expected three comma-separated numbers w_response,w_deadline,w_energy"),
    ("--weights", "1,2", "expected three comma-separated numbers w_response,w_deadline,w_energy"),
])
def test_experiment_list_flag_names_its_format(tmp_path, capsys, flag, value, expected):
    with pytest.raises(SystemExit) as exit_:
        main(["experiment", flag, value, "--out", str(tmp_path / "r")])
    assert exit_.value.code == 2
    err = capsys.readouterr().err
    assert f"argument {flag}: {expected}" in err and "_parse" not in err
    assert not (tmp_path / "r").exists()


def test_aggregate_missing_file(tmp_path, capsys):
    code = main(["aggregate", str(tmp_path / "missing.csv")])
    assert code == 1
    assert "error:" in capsys.readouterr().err


def test_unknown_subcommand_is_parser_error():
    with pytest.raises(SystemExit):
        main(["frobnicate"])


def test_run_rejects_nan_task_length(tmp_path, capsys):
    scenario = _generate(tmp_path)
    doc = json.loads(scenario.read_text())
    doc["tasks"][0]["length"] = float("nan")
    scenario.write_text(json.dumps(doc))
    code = main(["run", str(scenario), "--algorithm", "GREEDY", "--out", str(tmp_path / "o")])
    assert code == 1
    assert "invalid scenario: task 0: length must be finite" in capsys.readouterr().err


@pytest.mark.parametrize("corrupt,key", [
    (lambda doc: doc["config"].update(n_taskz=5), "n_taskz"),
    (lambda doc: doc.pop("links"), "links"),
    (lambda doc: doc["tasks"][0].update(deadline="soon"), "tasks[0]: deadline"),
    (lambda doc: doc.update(nodes=5), "nodes"),
    (lambda doc: doc["gateways"].update({"0": [1]}), "device 0"),
    (lambda doc: doc["gateways"].update({"x": 0}), "device 'x'"),
    (lambda doc: doc["links"][0].update(endpoints=[[0], 1]), "links[0]: endpoints"),
    (lambda doc: doc["config"].update(n_tasks="lots"), "config: n_tasks"),
])
def test_run_malformed_scenario_exits_one(tmp_path, capsys, corrupt, key):
    scenario = _generate(tmp_path)
    doc = json.loads(scenario.read_text())
    corrupt(doc)
    scenario.write_text(json.dumps(doc))
    code = main(["run", str(scenario), "--out", str(tmp_path / "o")])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and key in err


@pytest.mark.parametrize("algorithm", ALGORITHMS)
def test_run_matches_run_algorithm(tmp_path, algorithm):
    scenario = _generate(tmp_path, seed=4)
    out = tmp_path / "run"
    assert main([
        "run", str(scenario), "--algorithm", algorithm, "--seed", "3", "--out", str(out),
    ]) == 0
    _, topology, tasks = load_scenario(scenario)
    instance = Instance(topology, tasks)
    weights = calibrate_weights(instance, seed=3)
    assignment = run_algorithm(algorithm, instance, 3, weights, ExperimentPlan())
    expected = json.loads(evaluate(instance, assignment, weights).to_json())
    assert json.loads((out / "report.json").read_text()) == expected


@pytest.mark.parametrize("algorithm", ["RIGEO", "RANDOM", "GREEDY"])
def test_run_trace_unsupported_algorithm_exits_one(tmp_path, capsys, algorithm):
    scenario = _generate(tmp_path)
    out = tmp_path / "traced"
    code = main(["run", str(scenario), "--algorithm", algorithm, "--trace", "--out", str(out)])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and algorithm in err
    for name in ("GEO", "IGEO-only", "RL-only"):
        assert name in err
    assert not out.exists()  # refused before scheduling or writing anything


@pytest.mark.parametrize("algorithm,header,rows", [
    ("GEO", ["iteration", "best_fitness"], 200),
    ("RL-only", ["episode", "sampled_fitness", "best_fitness", "exploration_rate"], 2000),
])
def test_run_trace_file_per_optimizer(tmp_path, algorithm, header, rows):
    scenario = _generate(tmp_path)
    out = tmp_path / "traced"
    assert main(["run", str(scenario), "--algorithm", algorithm, "--trace", "--out", str(out)]) == 0
    with open(out / f"trace_{algorithm}.csv", newline="") as fh:
        table = list(csv.reader(fh))
    assert table[0] == header
    assert len(table) == rows + 1
    best = [float(r[header.index("best_fitness")]) for r in table[1:]]
    assert all(b2 <= b1 for b1, b2 in zip(best, best[1:]))


_HEADER = "algorithm,task_count,seed,dv_total,energy_total,response_total,response_max,fitness"
_ROW = "RANDOM,4,0,1.0,2.0,3.0,1.5,3.0"


@pytest.mark.parametrize("lines,where", [
    ([_HEADER.replace(",response_max", ""), "RANDOM,4,0,1.0,2.0,3.0,3.0"],
     "line 1: missing column 'response_max'"),
    ([_HEADER, _ROW, "RANDOM,6,1,1.0,2.0"], "line 3: row ends before column 'response_total'"),
    ([_HEADER, _ROW.replace("2.0", "two")],
     "line 2, column 'energy_total': 'two' is not a finite number"),
    ([_HEADER, _ROW, "RANDOM,6,1,1.0,2.0,3.0,1.5,nan"],
     "line 3, column 'fitness': 'nan' is not a finite number"),
    ([_HEADER, _ROW.replace("RANDOM,4,", "RANDOM,1.5,")],
     "line 2, column 'task_count': '1.5' is not an integer"),
    ([_HEADER, _ROW, "RANDOM,6,1.5,1.0,2.0,3.0,1.5,3.0"],
     "line 3, column 'seed': '1.5' is not an integer"),
])
def test_aggregate_rejects_malformed_records(tmp_path, capsys, lines, where):
    path = tmp_path / "records.csv"
    path.write_text("\n".join(lines) + "\n")
    code = main(["aggregate", str(path), "--out", str(tmp_path / "summary.csv")])
    assert code == 1
    assert capsys.readouterr().err == f"error: {path}, {where}\n"
    assert not (tmp_path / "summary.csv").exists()


@pytest.mark.parametrize("dv", [("1e308", "1e308"), ("1.7e308", "0.0")])
def test_aggregate_dv_whose_sum_or_spread_overflows(tmp_path, capsys, dv):
    path = tmp_path / "records.csv"
    path.write_text("\n".join([_HEADER, *(_ROW.replace("0,1.0,", f"{i},{v},") for i, v in enumerate(dv))]) + "\n")
    summary = tmp_path / "summary.csv"
    code = main(["aggregate", str(path), "--out", str(summary)])
    assert code == 0 and capsys.readouterr().err == ""
    with open(summary, newline="") as fh:
        (row,) = csv.DictReader(fh)
    assert all(math.isfinite(float(row[f"dv_total_{s}"])) for s in ("mean", "std", "min", "max"))


def test_aggregate_names_a_stdev_beyond_float_range(tmp_path, capsys):
    path = tmp_path / "records.csv"
    path.write_text("\n".join([_HEADER, _ROW.replace("0,1.0,", "0,1.7e308,"), _ROW.replace("0,1.0,", "1,-1.7e308,")]) + "\n")
    code = main(["aggregate", str(path), "--out", str(tmp_path / "summary.csv")])
    assert code == 1
    assert capsys.readouterr().err == "error: the standard deviation of dv_total passes float range\n"


def test_run_reproduces_sweep_trial(tmp_path):
    """A sweep trial and `fogsched run` on the same generated scenario and
    seed write the same report, apart from the sweep's instance digest."""
    sweep = tmp_path / "sweep"
    run_experiment(ExperimentPlan(
        task_counts=(8,), n_nodes=4, repetitions=1, output_dir=str(sweep), workers=1,
    ))
    scenario = tmp_path / "scenario.json"
    assert main(["generate", "--tasks", "8", "--nodes", "4", "--seed", "0",
                 "--out", str(scenario)]) == 0
    for algorithm in ALGORITHMS:
        out = tmp_path / algorithm
        assert main(["run", str(scenario), "--algorithm", algorithm, "--seed", "0",
                     "--out", str(out)]) == 0
        expected = json.loads((sweep / "reports" / f"{algorithm}_8_0.json").read_text())
        del expected["instance_digest"]
        assert json.loads((out / "report.json").read_text()) == expected


@pytest.mark.parametrize("command", ["generate", "run"])
def test_negative_seed_is_named(tmp_path, capsys, command):
    argv = [command, "--seed", "-3", "--out", str(tmp_path / "out")]
    if command == "run":
        argv.insert(1, str(_generate(tmp_path)))
    assert main(argv) == 1
    assert capsys.readouterr().err == "error: --seed must be >= 0, got -3\n"
    assert not (tmp_path / "out").exists()


def test_run_refuses_a_bad_weight_before_any_output(tmp_path, capsys):
    out = tmp_path / "out"
    assert main(["run", str(_generate(tmp_path)), "--weights", "1,-1,1", "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err == "error: w_deadline must be finite and nonnegative (in fitness_weights)\n"
    assert not out.exists()


def test_run_reports_overflow_by_name(tmp_path, capsys):
    scenario = _generate(tmp_path, tasks=8, nodes=4)
    doc = json.loads(scenario.read_text())
    for task in doc["tasks"][:3]:
        task["length"] = 1e308
    scenario.write_text(json.dumps(doc))
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no RuntimeWarning on the way
        code = main(["run", str(scenario), "--algorithm", "GREEDY", "--out", str(tmp_path / "o")])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: energy of node ") and err.endswith(" overflowed float range\n")


def test_experiment_with_failed_trials_exits_one(tmp_path, capsys):
    out = tmp_path / "r"
    code = main(["experiment", "--tasks", "4", "--nodes", "3", "--reps", "1",
                 "--algorithms", "RANDOM,GREEDY", "--workers", "1", "--weights", "1e308,1e308,0",
                 "--out", str(out)])
    assert code == 1
    assert f"error: 1 of 2 trials failed; see {out / 'failures.csv'}" in capsys.readouterr().err
    assert (out / "failures.csv").read_text().count("fitness overflowed") == 1


def test_huge_weights_fail_by_name_without_a_warning(tmp_path, capsys):
    # the optimizers rank an overflowed fitness last without a numpy
    # warning; a result whose re-evaluated fitness overflows fails by name
    out = tmp_path / "huge"
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        code = main(["experiment", "--tasks", "8", "--nodes", "4", "--reps", "1", "--pop", "4",
                     "--iters", "5", "--episodes", "20", "--workers", "1",
                     "--weights", "1e308,1e308,1", "--out", str(out)])
    assert code == 1
    assert "Warning" not in capsys.readouterr().err
    with open(out / "failures.csv", newline="") as fh:
        failures = list(csv.DictReader(fh))
    assert failures and all(f["error"].endswith(" overflowed float range") for f in failures)
    written = {r.algorithm for r in read_records(out / "records.csv")}
    assert written.isdisjoint(f["algorithm"] for f in failures)
    assert len(written) + len(failures) == len(ALGORITHMS)


# Integer and weight arguments of every command: values that run quickly,
# then at most one replaced by zero, a negative or a far-out number.
_WEIGHTS = st.lists(st.sampled_from(["0", "1", "0.5", "3", "1e-300"]), min_size=3, max_size=3)
_VALID = {
    "experiment": {
        "--tasks": st.lists(st.integers(1, 8), min_size=1, max_size=2).map(
            lambda counts: ",".join(map(str, counts))),
        "--nodes": st.integers(1, 4), "--reps": st.integers(1, 2), "--workers": st.integers(1, 2),
        "--pop": st.integers(2, 4), "--iters": st.integers(1, 4), "--episodes": st.integers(1, 20),
        "--weights": _WEIGHTS.map(",".join),
    },
    "generate": {"--tasks": st.integers(1, 30), "--nodes": st.integers(1, 8)},
    "run": {"--algorithm": st.sampled_from(ALGORITHMS), "--weights": _WEIGHTS.map(",".join)},
}
_WILD_INT = st.one_of(st.integers(-3, 0), st.sampled_from([-(2**63), -(10**9)]))
_WILD_WEIGHTS = st.lists(
    st.sampled_from(["1", "0", "-1", "nan", "inf", "-inf", "1e308"]), min_size=3, max_size=3,
).map(",".join)


@st.composite
def _cli_args(draw):
    command = draw(st.sampled_from(list(_VALID)))
    options = {flag: draw(value) for flag, value in _VALID[command].items()}
    options["--seed"] = draw(st.one_of(st.integers(0, 5), st.just(2**64)))
    wild = draw(st.none() | st.sampled_from([f for f in options if f != "--algorithm"]))
    if wild is not None:
        options[wild] = draw(_WILD_WEIGHTS if wild == "--weights" else _WILD_INT)
    return command, {flag: str(value) for flag, value in options.items()}


@settings(max_examples=100, deadline=None)
@given(args=_cli_args())
@example(args=("experiment", {"--tasks": "4", "--nodes": "3", "--reps": "1", "--seed": "-1",
                              "--workers": "1", "--pop": "4", "--iters": "2", "--episodes": "5"}))
def test_cli_integer_and_weight_arguments_run_or_exit_one(args):
    """Each command either succeeds and writes all its output, or exits 1
    with one error line, no traceback and (for a refused plan) no output."""
    command, options = args
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        out = tmp / "out"
        argv = [command]
        if command == "run":
            scenario = tmp / "scenario.json"
            assert main(["generate", "--tasks", "6", "--nodes", "3", "--out", str(scenario)]) == 0
            argv.append(str(scenario))
        # --flag=value: argparse reads "--weights -1,1,1" as two options
        argv += [f"{flag}={value}" for flag, value in options.items()] + [f"--out={out}"]
        err = io.StringIO()
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            code = main(argv)
        assert "Traceback" not in err.getvalue()
        errors = [
            line for line in err.getvalue().splitlines()
            if line.startswith(("error:", "invalid plan:"))
        ]
        if code == 1:
            assert len(errors) == 1
            if errors[0].startswith("invalid plan:"):
                assert not out.exists()
            return
        assert code == 0 and not errors
        if command == "generate":
            assert out.exists()
        elif command == "run":
            assert (out / "report.json").exists()
        else:
            trials = len(options["--tasks"].split(",")) * int(options["--reps"]) * len(ALGORITHMS)
            assert len(read_records(out / "records.csv")) == trials
            assert not (out / "failures.csv").exists()
