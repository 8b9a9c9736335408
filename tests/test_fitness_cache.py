"""The fitness caches' byte budget, ``geo._CACHE_BYTES``: a cache stays
within it, drops its oldest entries first, keeps the memory of repeated
runs on one instance flat, and changes no result, down to a budget of 0.

At 100 tasks x 5 nodes a genome almost never repeats, so a small budget
is passed many times over; the tests monkeypatch the budget, which a
``_SubProblem`` reads when it is built."""

import pickle
import tracemalloc
from itertools import islice

import numpy as np
import pytest

from fogsched import (
    ExperimentPlan,
    FitnessWeights,
    GeoParams,
    IgeoParams,
    RlConfig,
    calibrate_weights,
    geo_optimize,
    igeo_optimize,
    rigeo_schedule,
    rl_optimize,
    run_experiment,
)
from fogsched import geo
from fogsched.geo import _SubProblem
from fogsched.metrics import _evaluator

from conftest import make_instance

SHAPE = (100, 5)
KEEP = 40  # entries a small budget holds at SHAPE


def _problem(seed=3):
    n_tasks, n_nodes = SHAPE
    return _SubProblem(make_instance(n_tasks, n_nodes, seed=seed), range(n_nodes),
                       range(n_tasks), FitnessWeights())


def _entry(problem):
    return problem.dim * problem.key_dtype.itemsize + geo._ENTRY_OVERHEAD


def _set_small_budget(monkeypatch):
    budget = KEEP * (SHAPE[0] + geo._ENTRY_OVERHEAD)
    monkeypatch.setattr(geo, "_CACHE_BYTES", budget)
    return budget


def _counting(problem):
    """Count the genomes ``problem`` sends to its kernel."""
    rows = []
    fitness = problem.ctx.fitness

    def counted(node_idx, weights):
        rows.append(len(np.atleast_2d(node_idx)))
        return fitness(node_idx, weights)

    problem.ctx.fitness = counted
    return rows


def test_a_cache_stays_within_its_budget(monkeypatch):
    unbounded = _problem()  # the default budget holds every genome here
    small_budget = _set_small_budget(monkeypatch)
    problem = _problem()
    rng = np.random.default_rng(0)
    for size in [1, 7, 30, 1, 55, 2, 90, 1, 1, 40, 41, 3] * 3:
        genomes = rng.integers(0, SHAPE[1], size=(size, SHAPE[0]))
        genomes[size // 2 :] = genomes[: size - size // 2]  # repeats inside the batch
        if size == 1:
            got = [problem.fitness_of(genomes[0])]
        else:
            got = problem.fitness_many(genomes).tolist()
        # a batch with more misses than the cache holds still returns each value
        assert got == unbounded.fitness_many(genomes).tolist()
        assert len(problem._cache) * _entry(problem) <= small_budget
        assert problem._cache  # a trim keeps half the budget
    assert len(unbounded._cache) * _entry(unbounded) > 10 * small_budget


def test_a_cache_drops_its_oldest_entries_first(monkeypatch):
    _set_small_budget(monkeypatch)
    problem = _problem()
    rows = _counting(problem)
    genomes = np.random.default_rng(1).integers(0, SHAPE[1], size=(200, SHAPE[0]), dtype=np.uint8)
    keys = [g.tobytes() for g in genomes]
    for i, genome in enumerate(genomes):
        fit = problem.fitness_of(genome)
        cache = problem._cache
        assert list(cache) == keys[i + 1 - len(cache) : i + 1]  # the newest, in order
        assert problem.fitness_of(genome) == fit  # the key just inserted still hits
        assert sum(rows) == i + 1
    assert len(problem._cache) < KEEP
    batch = genomes[:60]  # long dropped, and more than the budget holds
    fits = problem.fitness_many(batch)
    kept = len(problem._cache)
    assert list(problem._cache) == keys[60 - kept : 60]
    assert problem.fitness_many(batch[-kept:]).tolist() == fits[-kept:].tolist()
    assert sum(rows) == 200 + 60


def test_trims_of_one_shared_cache_may_overlap(monkeypatch):
    """Threads running on one instance share its caches, so a trim may find
    the oldest keys it listed already dropped by another's, or the cache
    already under half its budget (emptied after a trial); neither raises."""
    _set_small_budget(monkeypatch)
    instance = make_instance(*SHAPE, seed=3)
    first, second = (_SubProblem(instance, range(SHAPE[1]), range(SHAPE[0]), FitnessWeights())
                     for _ in range(2))
    cache = first._cache
    assert second._cache is cache
    genomes = np.random.default_rng(2).integers(0, SHAPE[1], size=(KEEP + 1, SHAPE[0]), dtype=np.uint8)
    first.fitness_many(genomes[:KEEP])  # full, not over
    listings = []

    def interleaved(keys, count):
        listed = list(islice(keys, count))
        listings.append(count)
        if len(listings) == 1:
            second._trim()  # the other thread drops the same keys first
        return listed

    monkeypatch.setattr(geo, "islice", interleaved)
    fit = first.fitness_of(genomes[KEEP])  # passes the budget
    assert listings == [KEEP + 1 - KEEP // 2] * 2
    assert list(cache) == [g.tobytes() for g in genomes[-(KEEP // 2):]]
    assert fit == second.fitness_of(genomes[KEEP])
    cache.clear()
    second._trim()
    assert listings[-1] == 0 and not cache


def _ten_runs_peak(optimize, params, runs):
    """The traced peak of ``runs`` seeded runs on one SHAPE instance."""
    n_tasks, n_nodes = SHAPE
    instance = make_instance(n_tasks, n_nodes, seed=5)
    _evaluator(instance)  # built before the trace
    tracemalloc.start()
    try:
        for seed in range(runs):
            optimize(instance, range(n_nodes), range(n_tasks), params(seed), FitnessWeights())
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize(
    "optimize,params",
    [
        (geo_optimize, lambda seed: GeoParams(population_size=20, iterations=40, rng_seed=seed)),
        (rl_optimize, lambda seed: RlConfig(episodes=600, rng_seed=seed)),
    ],
    ids=["GEO", "RL-only"],
)
def test_repeated_runs_on_one_instance_keep_a_flat_peak(optimize, params, monkeypatch):
    """Ten runs share the instance's cache, which holds at most its budget,
    so they peak within 1.25x of one run; unbounded, it grew by one run's
    keys per run."""
    _set_small_budget(monkeypatch)
    one, ten = (_ten_runs_peak(optimize, params, runs) for runs in (1, 10))
    assert ten <= 1.25 * one, (one, ten)


def _results(n_tasks, n_nodes, seed):
    """Every optimizer's result on a fresh instance, as comparable bytes."""
    instance = make_instance(n_tasks, n_nodes, seed=seed)
    weights = calibrate_weights(instance, seed=seed)
    nodes, tasks = range(n_nodes), range(n_tasks)
    results = {}
    for name, optimize, params in [
        ("GEO", geo_optimize, GeoParams(population_size=12, iterations=30, rng_seed=seed)),
        ("IGEO", igeo_optimize, IgeoParams(population_size=12, iterations=30, rng_seed=seed)),
        ("RL", rl_optimize, RlConfig(episodes=300, rng_seed=seed)),
    ]:
        trace = []
        assignment, fit = optimize(instance, nodes, tasks, params, weights, trace=trace)
        results[name] = pickle.dumps((sorted(assignment.mapping.items()), fit, trace))
    results["RIGEO"] = pickle.dumps(rigeo_schedule(
        instance, IgeoParams(population_size=10, iterations=20, rng_seed=seed),
        RlConfig(episodes=200, rng_seed=seed), weights,
    ))
    return results, _evaluator(instance).fitness_caches


# 6 x 3 steps RL's policy on a Python list, 40 x 5 on the numpy matrix
@pytest.mark.parametrize("n_tasks,n_nodes,seed", [(6, 3, 1), (40, 5, 2)])
def test_a_zero_budget_changes_no_result(n_tasks, n_nodes, seed, monkeypatch):
    default, caches = _results(n_tasks, n_nodes, seed)
    assert any(caches.values())
    monkeypatch.setattr(geo, "_CACHE_BYTES", 0)
    zero, caches = _results(n_tasks, n_nodes, seed)
    assert not any(caches.values())  # every insert was dropped
    assert zero == default


def _sweep(out):
    run_experiment(ExperimentPlan(
        task_counts=(8, 30), n_nodes=4, repetitions=2, workers=1, output_dir=str(out),
        geo=GeoParams(population_size=6, iterations=10), igeo=IgeoParams(population_size=6, iterations=10),
        rl=RlConfig(episodes=100),
    ))
    files = [out / "records.csv", out / "summary.csv", *sorted((out / "reports").iterdir())]
    return [(path.name, path.read_bytes()) for path in files]


def test_a_zero_budget_sweep_writes_the_same_bytes(tmp_path, monkeypatch):
    default = _sweep(tmp_path / "default")
    monkeypatch.setattr(geo, "_CACHE_BYTES", 0)
    assert _sweep(tmp_path / "zero") == default
