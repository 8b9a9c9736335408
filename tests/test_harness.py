import json
import os
import subprocess
import sys
from dataclasses import fields, replace
from pathlib import Path

import pytest

from fogsched import (
    ExperimentPlan,
    FitnessWeights,
    IgeoParams,
    Instance,
    RlConfig,
    RunRecord,
    ScenarioConfig,
    aggregate,
    baseline_greedy,
    baseline_random,
    generate_scenario,
    read_records,
    run_experiment,
    write_records,
    write_summary,
)
from fogsched.geo import GeoParams
from fogsched.harness import RECORD_COLUMNS, _safe_trial, run_algorithm
from fogsched.metrics import calibrate_weights

from conftest import make_instance, simple_tasks, single_node_instance
from oracle import exhaustive_best


def tiny_plan(out, algorithms=("RANDOM", "GREEDY"), workers=1, **kw):
    defaults = dict(
        task_counts=(4, 6),
        n_nodes=3,
        repetitions=2,
        algorithms=algorithms,
        base_seed=0,
        output_dir=str(out),
        geo=GeoParams(population_size=4, iterations=5),
        igeo=IgeoParams(population_size=4, iterations=5),
        rl=RlConfig(episodes=10),
        workers=workers,
    )
    defaults.update(kw)
    return ExperimentPlan(**defaults)


def test_experiment_record_shape(tmp_path):
    records = run_experiment(tiny_plan(tmp_path), write_reports=False)
    assert len(records) == 2 * 2 * 2  # task counts x repetitions x algorithms
    # paired seeding: repetitions of the first count use seeds 0,1 and the
    # second count continues with 2,3, shared across algorithms
    seeds = {(r.task_count, r.seed) for r in records}
    assert seeds == {(4, 0), (4, 1), (6, 2), (6, 3)}
    keys = [(r.algorithm, r.task_count, r.seed) for r in records]
    assert keys == sorted(keys)
    assert not (tmp_path / "failures.csv").exists()


def test_experiment_deterministic_and_byte_identical(tmp_path):
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    rec_a = run_experiment(tiny_plan(out_a), write_reports=False)
    rec_b = run_experiment(tiny_plan(out_b), write_reports=False)
    assert rec_a == rec_b or [
        (r.algorithm, r.seed, r.fitness) for r in rec_a
    ] == [(r.algorithm, r.seed, r.fitness) for r in rec_b]
    assert (out_a / "records.csv").read_bytes() == (out_b / "records.csv").read_bytes()
    assert (out_a / "summary.csv").read_bytes() == (out_b / "summary.csv").read_bytes()


def test_experiment_workers_match_inline(tmp_path):
    inline = run_experiment(tiny_plan(tmp_path / "inline", workers=1), write_reports=False)
    pooled = run_experiment(tiny_plan(tmp_path / "pooled", workers=2), write_reports=False)
    assert [(r.algorithm, r.task_count, r.seed, r.fitness) for r in inline] == [
        (r.algorithm, r.task_count, r.seed, r.fitness) for r in pooled
    ]


def test_experiment_reports_share_instance_digest(tmp_path):
    plan = tiny_plan(tmp_path, task_counts=(4,), repetitions=1)
    run_experiment(plan, write_reports=True)
    docs = {
        name: json.loads((tmp_path / "reports" / f"{name}_4_0.json").read_text())
        for name in ("RANDOM", "GREEDY")
    }
    assert docs["RANDOM"]["instance_digest"] == docs["GREEDY"]["instance_digest"]
    assert "fitness" in docs["RANDOM"]


def test_experiment_all_algorithms_run(tmp_path):
    plan = tiny_plan(
        tmp_path,
        algorithms=("RIGEO", "IGEO-only", "GEO", "RL-only", "RANDOM", "GREEDY"),
        task_counts=(5,),
        repetitions=1,
    )
    records = run_experiment(plan, write_reports=False)
    assert sorted(r.algorithm for r in records) == sorted(plan.algorithms)
    assert all(r.fitness >= 0 for r in records)


def test_safe_trial_captures_failures():
    plan = tiny_plan("unused")
    status, payload = _safe_trial((plan, "RANDOM", 0, 1))  # zero tasks is invalid
    assert status == "failed"
    algorithm, task_count, seed, error = payload
    assert (algorithm, task_count, seed) == ("RANDOM", 0, 1)
    assert "ValueError" in error


def test_run_algorithm_rejects_unknown(unit_weights):
    instance = make_instance(4, 3, seed=0)
    with pytest.raises(ValueError):
        run_algorithm("SIMULATED-ANNEALING", instance, 0, unit_weights, tiny_plan("unused"))


def test_plan_validation():
    with pytest.raises(ValueError):
        tiny_plan("unused", algorithms=("NOPE",)).validate()
    with pytest.raises(ValueError):
        tiny_plan("unused", task_counts=()).validate()
    with pytest.raises(ValueError):
        tiny_plan("unused", repetitions=0).validate()


@pytest.mark.parametrize("field,value,message", [
    ("n_nodes", 0, "n_nodes must be > 0"),
    ("task_counts", (4, 0), "n_tasks must be > 0"),
    ("task_counts", (-1,), "n_tasks must be > 0"),
    ("workers", 0, "workers must be >= 1"),
    ("fitness_weights", (0.0, 0.0, 0.0), "at least one weight must be positive"),
    ("fitness_weights", (float("nan"), 1.0, 1.0), "w_response must be finite"),
    ("fitness_weights", (1.0, -1.0, 1.0), "w_deadline must be finite and nonnegative"),
    ("fitness_weights", (1.0, 1.0), "not enough values to unpack"),
])
def test_plan_validation_rejects_before_running(tmp_path, field, value, message):
    plan = tiny_plan(tmp_path / "out", **{field: value})
    with pytest.raises(ValueError, match=message):
        plan.validate()
    with pytest.raises(ValueError, match=message):
        run_experiment(plan)
    assert not (tmp_path / "out").exists()  # nothing written


def _record(algorithm="A", task_count=4, seed=0, fitness=1.0):
    return RunRecord(
        algorithm=algorithm,
        task_count=task_count,
        seed=seed,
        dv_total=fitness,
        energy_total=fitness,
        response_total=fitness,
        response_max=fitness,
        fitness=fitness,
        wall_time=0.0,
    )


def test_aggregate_statistics():
    rows = aggregate([_record(seed=0, fitness=2.0), _record(seed=1, fitness=4.0)])
    assert len(rows) == 1
    row = rows[0]
    assert row["runs"] == 2
    assert row["fitness_mean"] == 3.0
    assert row["fitness_std"] == pytest.approx(2.0 ** 0.5)
    assert row["fitness_min"] == 2.0 and row["fitness_max"] == 4.0


def test_aggregate_order_independent_and_grouped():
    records = [
        _record("B", 6, 0, 1.0),
        _record("A", 4, 0, 2.0),
        _record("A", 6, 0, 3.0),
    ]
    rows = aggregate(records)
    assert [(r["algorithm"], r["task_count"]) for r in rows] == [("A", 4), ("A", 6), ("B", 6)]
    assert rows == aggregate(list(reversed(records)))
    single = aggregate([_record()])
    assert single[0]["fitness_std"] == 0.0


def test_aggregate_empty_raises():
    with pytest.raises(ValueError):
        aggregate([])


def test_records_roundtrip(tmp_path):
    records = [_record("A", 4, 0, 1.2345678901234567), _record("B", 6, 3, 9.87)]
    path = tmp_path / "records.csv"
    write_records(records, path)
    loaded = read_records(path)
    for orig, back in zip(records, loaded):
        assert back.algorithm == orig.algorithm
        assert back.task_count == orig.task_count
        assert back.seed == orig.seed
        assert back.fitness == orig.fitness  # repr() keeps floats exact


def test_run_record_fields_follow_record_columns():
    assert [f.name for f in fields(RunRecord)] == [*RECORD_COLUMNS, "wall_time"]


@pytest.mark.parametrize("seed,weights", [
    (0, (1.0, 1.0, 1.0)), (1, (1.0, 1.0, 1.0)), (2, (1.0, 1.0, 1.0)), (0, (0.5, 2.0, 0.25)),
])
def test_random_trial_is_the_calibration_draw(seed, weights):
    # calibrate_weights and baseline_random draw the same mapping, so each
    # normalized term of a RANDOM trial is exactly 1
    plan = ExperimentPlan(fitness_weights=weights)
    status, (record, _) = _safe_trial((plan, "RANDOM", 200, seed))
    assert status == "ok"
    assert record.fitness == sum(weights)


def test_random_trial_is_the_calibration_draw_in_any_node_order():
    # both draw from the nodes in topology order, so the normalized terms
    # stay exactly 1 when the node tuple is not sorted by id
    topology, tasks = generate_scenario(ScenarioConfig(n_tasks=12, n_nodes=5, rng_seed=3))
    instance = Instance(replace(topology, nodes=topology.nodes[::-1]), tasks)
    weights = calibrate_weights(instance, seed=7)
    assert baseline_random(instance, 7, weights)[1] == 3.0


def test_write_summary_rejects_empty(tmp_path):
    with pytest.raises(ValueError):
        write_summary([], tmp_path / "summary.csv")


def test_baseline_random_deterministic(unit_weights):
    instance = make_instance(5, 3, seed=2)
    a1, f1 = baseline_random(instance, seed=9, weights=unit_weights)
    a2, f2 = baseline_random(instance, seed=9, weights=unit_weights)
    assert a1.mapping == a2.mapping and f1 == f2
    _, f3 = baseline_random(instance, seed=10, weights=unit_weights)
    assert set(a1.mapping) == {t.id for t in instance.tasks}


def test_baseline_greedy_not_better_than_exhaustive(unit_weights):
    instance = make_instance(5, 3, seed=4)
    _, optimum = exhaustive_best(instance, unit_weights)
    _, greedy_fit = baseline_greedy(instance, unit_weights)
    assert greedy_fit >= optimum * (1 - 1e-12)


def test_baseline_greedy_spreads_over_idle_nodes(unit_weights):
    # one node and three tasks: greedy has no choice, queues must stack
    tasks = simple_tasks([(100.0, 0.0, 500.0)] * 3)
    instance = single_node_instance(tasks)
    assignment, _ = baseline_greedy(instance, unit_weights)
    assert set(assignment.mapping.values()) == {0}


def test_random_baseline_worse_than_rigeo_on_average(unit_weights):
    from fogsched import rigeo_schedule

    instance = make_instance(8, 3, seed=6)
    weights = calibrate_weights(instance, 1.0, 1.0, 1.0, seed=0)
    random_fits = [baseline_random(instance, s, weights)[1] for s in range(10)]
    _, report = rigeo_schedule(
        instance,
        IgeoParams(population_size=8, iterations=40, rng_seed=0),
        RlConfig(episodes=300, rng_seed=0),
        weights,
    )
    assert report.fitness <= sum(random_fits) / len(random_fits)


@pytest.mark.parametrize("field,value,message", [
    ("repetitions", 1.5, "repetitions must be an integer, got 1.5"),
    ("workers", 1.5, "workers must be an integer, got 1.5"),
    ("base_seed", True, "base_seed must be an integer, got True"),
    ("n_nodes", 2.5, "n_nodes must be an integer, got 2.5"),
    ("task_counts", (4, 2.5), "n_tasks must be an integer, got 2.5"),
])
def test_plan_counts_must_be_integers(tmp_path, field, value, message):
    with pytest.raises(ValueError, match=message):
        tiny_plan(tmp_path / "out", **{field: value}).validate()


def test_import_loads_no_process_pool():
    """The pool's modules (multiprocessing, sockets, subprocesses) load only
    when a sweep runs with more than one worker, not on ``import fogsched``."""
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    code = (
        "import sys, fogsched; "
        "print(sorted({'concurrent.futures', 'multiprocessing'} & set(sys.modules)))"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True
    )
    assert out.stdout.strip() == "[]"
