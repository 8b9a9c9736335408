import concurrent.futures
import csv
import json
import math
import multiprocessing
import os
import random
import subprocess
import sys
import threading
import time
import tracemalloc
import weakref
from concurrent.futures import ProcessPoolExecutor
from dataclasses import fields, replace
from fractions import Fraction
from pathlib import Path
from statistics import stdev

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

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
from fogsched import harness
from fogsched.cli import main
from fogsched.harness import ALGORITHMS, RECORD_COLUMNS, _safe_trial, run_algorithm
from fogsched.metrics import _evaluator, calibrate_weights

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


def _sweep_bytes(out):
    """Every file a sweep wrote under ``out``, by its path there."""
    return {path.relative_to(out).as_posix(): path.read_bytes()
            for path in sorted(out.rglob("*")) if path.is_file()}


@pytest.mark.parametrize("method", ["fork", "spawn", "forkserver"])
def test_experiment_workers_match_inline(tmp_path, monkeypatch, method):
    """Two pool workers write the bytes of one inline sweep, whichever way
    the pool starts its workers."""
    if method not in multiprocessing.get_all_start_methods():
        pytest.skip(f"no {method} start method here")
    run_experiment(tiny_plan(tmp_path / "inline", algorithms=ALGORITHMS))
    pools = []

    def pool_in_context(*args, **kwargs):
        pools.append(method)
        context = multiprocessing.get_context(method)
        return ProcessPoolExecutor(*args, mp_context=context, **kwargs)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", pool_in_context)
    run_experiment(tiny_plan(tmp_path / "pooled", algorithms=ALGORITHMS, workers=2))
    assert pools == [method]
    inline, pooled = _sweep_bytes(tmp_path / "inline"), _sweep_bytes(tmp_path / "pooled")
    keys = [(4, 0), (4, 1), (6, 2), (6, 3)]
    assert set(inline) == {"records.csv", "summary.csv"} | {
        f"reports/{algorithm}_{task_count}_{seed}.json"
        for algorithm in ALGORITHMS for task_count, seed in keys}
    assert pooled == inline


@pytest.mark.skipif(multiprocessing.get_start_method() != "fork",
                    reason="the pool's workers inherit the patch only when forked")
def test_a_dead_worker_fails_only_the_trials_not_returned(tmp_path, monkeypatch, capsys):
    """A worker killed in one trial breaks the pool: the trials returned
    before it keep their records and reports, every later one is named in
    failures.csv, and the command exits 1 with its error line."""
    run = harness.run_and_evaluate

    def dies_in_one_trial(plan, algorithm, instance, seed, **kwargs):
        if (algorithm, seed) == ("GREEDY", 3):
            os._exit(9)
        return run(plan, algorithm, instance, seed, **kwargs)

    monkeypatch.setattr(harness, "run_and_evaluate", dies_in_one_trial)
    out = tmp_path / "r"
    code = main(["experiment", "--tasks", "4,6", "--nodes", "3", "--reps", "3",
                 "--algorithms", "RANDOM,GREEDY", "--workers", "2", "--out", str(out)])
    err = capsys.readouterr().err
    assert code == 1 and "Traceback" not in err
    jobs = [(algorithm, task_count, seed) for task_count, seeds in ((4, range(3)), (6, range(3, 6)))
            for seed in seeds for algorithm in ("RANDOM", "GREEDY")]
    kept = [(r.algorithm, r.task_count, r.seed) for r in read_records(out / "records.csv")]
    with open(out / "failures.csv", newline="") as fh:
        failed = list(csv.DictReader(fh))
    # outcomes come in job order, so the kept trials are the jobs before the first lost one
    returned = len(kept)
    assert 0 < returned <= jobs.index(("GREEDY", 6, 3))
    assert sorted(kept) == sorted(jobs[:returned])
    assert sorted((f["algorithm"], int(f["task_count"]), int(f["seed"])) for f in failed) == sorted(
        jobs[returned:])
    assert all(f["error"].startswith("BrokenProcessPool: ") for f in failed)
    assert sorted(path.name for path in (out / "reports").iterdir()) == sorted(
        f"{algorithm}_{task_count}_{seed}.json" for algorithm, task_count, seed in kept)
    assert err.splitlines()[-1] == (
        f"error: {len(jobs) - returned} of {len(jobs)} trials failed; see {out / 'failures.csv'}")


@pytest.mark.skipif(multiprocessing.get_start_method() != "fork",
                    reason="the pool's workers inherit the patch only when forked")
def test_an_error_in_the_parent_cancels_the_queued_trials(tmp_path, monkeypatch):
    """A report write that fails ends the sweep at once: the pool's queued
    trials are cancelled, not run before the error propagates."""
    run = harness.run_and_evaluate
    ran = tmp_path / "ran"

    def slow_trial(plan, algorithm, instance, seed, **kwargs):
        fd = os.open(ran, os.O_WRONLY | os.O_APPEND | os.O_CREAT)
        try:
            os.write(fd, b"x")
        finally:
            os.close(fd)
        time.sleep(0.1)
        return run(plan, algorithm, instance, seed, **kwargs)

    write_text = Path.write_text

    def full_disk(path, *args, **kwargs):
        if path.parent.name == "reports":
            raise OSError(28, "No space left on device")
        return write_text(path, *args, **kwargs)

    monkeypatch.setattr(harness, "run_and_evaluate", slow_trial)
    monkeypatch.setattr(Path, "write_text", full_disk)
    plan = tiny_plan(tmp_path / "out", workers=2, task_counts=(4,), repetitions=20)
    with pytest.raises(OSError, match="No space left"):
        run_experiment(plan)
    # two running and a few in the pool's call queue may finish, not all 40
    assert 0 < len(ran.read_bytes()) <= 10


def test_a_sweep_holds_only_its_records(tmp_path):
    """Each report is written as its trial returns, so the sweep's traced
    peak stays below half the size of the reports it wrote."""
    plan = ExperimentPlan(task_counts=(600,), n_nodes=20, repetitions=30,
                          algorithms=("RANDOM", "GREEDY"), output_dir=str(tmp_path), workers=1)
    tracemalloc.start()
    try:
        run_experiment(plan)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    reports = list((tmp_path / "reports").iterdir())
    assert len(reports) == 60
    written = sum(path.stat().st_size for path in reports)
    assert peak < written / 2, (peak, written)


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


def _watch_trials(monkeypatch, fail=None):
    """Record the harness's set-up calls by (task_count, seed) and, per trial,
    (algorithm, task_count, seed, id and weakref of its instance, fitness
    cache count when ``run_algorithm`` starts and when it ends).  ``fail``,
    a (harness name, seed) pair, makes that set-up call raise for that seed."""
    calls = {"generate_scenario": [], "calibrate_weights": [], "trials": []}
    generate, calibrate, run = (
        harness.generate_scenario, harness.calibrate_weights, harness.run_algorithm)

    def check(name, key):
        calls[name].append(key)
        if fail == (name, key[1]):
            raise ValueError(f"no {name} for seed {key[1]}")

    def counted_generate(config):
        check("generate_scenario", (config.n_tasks, config.rng_seed))
        return generate(config)

    def counted_calibrate(instance, *weights, seed):
        check("calibrate_weights", (instance.n_tasks, seed))
        return calibrate(instance, *weights, seed=seed)

    def watched_run(algorithm, instance, seed, *args, **kwargs):
        caches = _evaluator(instance).fitness_caches
        started = len(caches)
        try:
            return run(algorithm, instance, seed, *args, **kwargs)
        finally:
            calls["trials"].append((algorithm, instance.n_tasks, seed, id(instance),
                                    weakref.ref(instance), started, len(caches)))

    monkeypatch.setattr(harness, "generate_scenario", counted_generate)
    monkeypatch.setattr(harness, "calibrate_weights", counted_calibrate)
    monkeypatch.setattr(harness, "run_algorithm", watched_run)
    return calls


def test_a_sweep_sets_up_each_instance_once(tmp_path, monkeypatch):
    calls = _watch_trials(monkeypatch)
    records = run_experiment(tiny_plan(tmp_path, algorithms=ALGORITHMS))
    keys = [(4, 0), (4, 1), (6, 2), (6, 3)]
    assert calls["generate_scenario"] == calls["calibrate_weights"] == keys
    trials = calls["trials"]
    assert len(trials) == len(records) == 4 * len(ALGORITHMS)
    # the six trials of a key share its instance, and each starts with empty caches
    instances = {key: {t[3] for t in trials if t[1:3] == key} for key in keys}
    assert all(len(ids) == 1 for ids in instances.values())
    assert [t[5] for t in trials] == [0] * len(trials)
    assert any(t[6] for t in trials)  # the optimizers fill the caches the next trial finds empty
    assert all(t[4]() is None for t in trials)  # no instance outlives the sweep


@pytest.mark.parametrize("stage", ["generate_scenario", "calibrate_weights"])
def test_a_set_up_that_raises_fails_each_trial_of_its_key(tmp_path, monkeypatch, stage):
    calls = _watch_trials(monkeypatch, fail=(stage, 1))
    records = run_experiment(tiny_plan(tmp_path, algorithms=ALGORITHMS), write_reports=False)
    assert len(records) == 3 * len(ALGORITHMS)
    assert calls[stage].count((4, 1)) == len(ALGORITHMS)  # a failed set-up is not kept
    with open(tmp_path / "failures.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows == [["algorithm", "task_count", "seed", "error"]] + [
        [algorithm, "4", "1", f"ValueError: no {stage} for seed 1"]
        for algorithm in sorted(ALGORITHMS)
    ]


def test_threads_keep_their_own_set_up(tmp_path, monkeypatch):
    """Two threads sweep the same instances at once: each sets up each
    instance once for itself, and no trial starts with the other's caches."""
    calls = _watch_trials(monkeypatch)
    plans = [tiny_plan(tmp_path / str(k), algorithms=ALGORITHMS) for k in range(2)]
    threads = [threading.Thread(target=run_experiment, args=(plan,)) for plan in plans]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert sorted(calls["generate_scenario"]) == sorted([(4, 0), (4, 1), (6, 2), (6, 3)] * 2)
    assert [t[5] for t in calls["trials"]] == [0] * 2 * 4 * len(ALGORITHMS)
    records = [(tmp_path / str(k) / "records.csv").read_bytes() for k in range(2)]
    assert records[0] == records[1]


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
        tiny_plan("unused", algorithms=("NOPE",))
    with pytest.raises(ValueError):
        tiny_plan("unused", task_counts=())
    with pytest.raises(ValueError):
        tiny_plan("unused", repetitions=0)
    with pytest.raises(ValueError, match=r"^algorithm RANDOM: duplicate id \(in algorithms\)$"):
        tiny_plan("unused", algorithms=("RANDOM", "GREEDY", "RANDOM"))
    assert not hasattr(ExperimentPlan, "validate")


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
    with pytest.raises(ValueError, match=message):
        tiny_plan(tmp_path / "out", **{field: value})  # no plan to run is built
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


def _dv_records(*values):
    return [replace(_record(seed=seed), dv_total=value) for seed, value in enumerate(values)]


def _exact_variance(values):
    exact = [Fraction(v) for v in values]
    mean = sum(exact) / len(exact)
    return sum((v - mean) ** 2 for v in exact) / (len(exact) - 1)


def test_aggregate_takes_the_exact_mean_where_fmean_overflows():
    (row,) = aggregate(_dv_records(1e308, 1e308))
    assert (row["dv_total_mean"], row["dv_total_std"]) == (1e308, 0.0)
    (row,) = aggregate(_dv_records(1.7e308, 1.7e308, 0.0))
    assert row["dv_total_mean"] == float(Fraction(1.7e308) * 2 / 3)


def test_aggregate_rounds_the_exact_stdev_once_past_float_range():
    """The variance of 1.7e308 and 0 passes float range, its root does not."""
    (row,) = aggregate(_dv_records(1.7e308, 0.0))
    assert row["dv_total_std"] == 1.2020815280171307e308  # 1.7e308 / sqrt(2), rounded once
    assert row["dv_total_mean"] == 8.5e307


def test_aggregate_names_a_stdev_beyond_float_range():
    with pytest.raises(ValueError, match="standard deviation of dv_total passes float range"):
        aggregate(_dv_records(1.7e308, -1.7e308))


_FINITE = st.floats(allow_nan=False, allow_infinity=False)
_EXTREME = st.sampled_from([1e308, -1e308, 1.7e308, sys.float_info.max, 5e-324, 0.0])


def _rounded_once(root, variance) -> bool:
    """Whether ``root`` is the float nearest the square root of ``variance``:
    the square of each midpoint to a neighbour lies on its side of it."""
    below, above = math.nextafter(root, -math.inf), math.nextafter(root, math.inf)
    low = (Fraction(below) + Fraction(root)) / 2 if root > 0.0 else Fraction(0)
    high = (Fraction(root) + Fraction(above)) / 2 if math.isfinite(above) else None
    return low * low <= variance and (high is None or variance <= high * high)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.one_of(_FINITE, _EXTREME), min_size=2, max_size=6))
@example([1.7e308, 0.0])
@example([1e200, -1e200, 3.0])
@example([1.7e308, -1.7e308])
@example([5e-324, 0.0])
def test_stdev_is_the_exact_root_rounded_once_or_names_its_overflow(values):
    variance = _exact_variance(values)
    try:
        root = harness._stdev(values, "dv_total")
    except ValueError:
        top = Fraction(sys.float_info.max) + Fraction(math.ulp(sys.float_info.max)) / 2
        assert variance >= top * top
        return
    assert _rounded_once(root, variance)
    if sys.version_info >= (3, 11):
        assert root == stdev(values)


# seeded lists whose Python 3.10 ``statistics.stdev`` (the variance rounded
# to a float, then ``math.sqrt``) ends in another bit, and two whose root is
# subnormal, which 3.10 reads as 0.0; with 3.10's repr after the ``#``
STDEV_CASES = {
    ("uniform", 2): "35601.39937550329",  # 35601.399375503286
    ("uniform", 4): "32082.938541928055",  # 32082.93854192806
    ("uniform", 13): "32924.98307545305",  # 32924.98307545304
    ("uniform", 15): "35352.54599629191",  # 35352.545996291905
    ("subnormal", 2): "5e-324",  # 0.0
    ("subnormal", 3): "1.25033328890074e-310",  # 0.0
}
STDEV_RECORDS = Path(__file__).with_name("stdev_records.csv")


def _stdev_case(kind, key):
    if kind == "subnormal":
        return {2: [5e-324, 0.0], 3: [1e-310, 3e-310, 7e-311]}[key]
    rng = random.Random(key)
    return [rng.uniform(0, 1e5) for _ in range(rng.randint(2, 50))]


def test_stdev_records_aggregate_to_the_checked_in_summary(tmp_path):
    """``stdev_records.csv`` holds each of STDEV_CASES as one group, in every
    metric column; CI aggregates it on every Python and compares the
    summary with ``stdev_summary.csv``."""
    records = [
        RunRecord(kind, key, seed, *[value] * len(harness.METRIC_COLUMNS), wall_time=0.0)
        for kind, key in STDEV_CASES
        for seed, value in enumerate(_stdev_case(kind, key))
    ]
    assert read_records(STDEV_RECORDS) == records
    write_summary(aggregate(records), tmp_path / "summary.csv")
    summary = (tmp_path / "summary.csv").read_bytes()
    assert summary == STDEV_RECORDS.with_name("stdev_summary.csv").read_bytes()
    rows = csv.DictReader(summary.decode().splitlines())
    stds = {(row["algorithm"], int(row["task_count"])): row["fitness_std"] for row in rows}
    assert stds == STDEV_CASES


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
        tiny_plan(tmp_path / "out", **{field: value})


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
