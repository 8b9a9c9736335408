"""The fitness caches' byte budget, ``geo._CACHE_BYTES``: a cache stays
within it, drops its oldest entries first, keeps the memory of repeated
runs on one instance flat, and changes no result, down to a budget of 0.
A run whose cache saves under 5 % of its requests stops caching once its
own rows reach the budget's limit, to the same results.

At 100 tasks x 5 nodes a random genome almost never repeats, so a small
budget is passed many times over; a test that pins trimming repeats
genomes on purpose, or a run would judge its cache useless and stop
storing.  The tests monkeypatch the budget, which a ``_SubProblem`` reads
when it is built."""

import pickle
import tracemalloc
from dataclasses import replace
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
from fogsched import Instance, Topology, geo
from fogsched.geo import _SubProblem
from fogsched.metrics import _evaluator

from conftest import built_problems, make_instance

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


def _genomes(count, seed):
    return np.random.default_rng(seed).integers(0, SHAPE[1], size=(count, SHAPE[0]), dtype=np.uint8)


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
        assert not problem._bypass  # the repeats in each batch keep it caching
    assert problem._saved >= geo._MIN_SAVED_SHARE
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
    assert problem._saved == 0.5 and not problem._bypass  # every other request hit
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
    genomes = _genomes(KEEP + 1, 2)
    # full, not over; each half is scored twice, so the first run's own
    # judgement keeps it caching
    for half in (genomes[: KEEP // 2], genomes[KEEP // 2 : KEEP]):
        first.fitness_many(np.concatenate([half, half]))
    assert len(cache) == KEEP and not first._bypass
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


def test_a_run_without_repeats_stops_caching_at_its_limit(monkeypatch):
    unbounded = _problem()  # the default budget holds every genome here
    _set_small_budget(monkeypatch)
    problem = _problem()
    rows = _counting(problem)
    genomes = _genomes(100, 4)
    for start in range(0, KEEP, 10):  # no genome repeats
        assert not problem._bypass
        problem.fitness_many(genomes[start : start + 10])
    assert problem._saved == 0.0 and problem._bypass
    kept = list(problem._cache)
    assert len(kept) == KEEP  # the limit, never passed: no trim was due
    rows.clear()
    # from here on every row goes to the kernel: repeats within a batch,
    # and genomes the cache still holds, too
    for batch in (genomes[KEEP : KEEP + 10], np.concatenate([genomes[:5], genomes[:5]]), genomes[50:]):
        assert problem.fitness_many(batch).tolist() == unbounded.fitness_many(batch).tolist()
    assert problem.fitness_of(genomes[0]) == unbounded.fitness_of(genomes[0])
    assert sum(rows) == 10 + 10 + 50 + 1
    assert list(problem._cache) == kept  # nothing stored, nothing dropped
    assert problem._requests == KEEP + sum(rows)


def test_a_run_with_repeats_keeps_caching(monkeypatch):
    """One genome in twenty repeats an earlier one: the window saved 5 %,
    so the run keeps caching, and trimming, to the end."""
    _set_small_budget(monkeypatch)
    problem = _problem()
    rows = _counting(problem)
    genomes = _genomes(400, 5)
    batches = []
    for start in range(0, 380, 19):
        batch = genomes[start : start + 20].copy()
        batch[-1] = batch[0]  # a repeat within the batch
        batches.append(batch)
    for batch in batches:
        problem.fitness_many(batch)
        assert len(problem._cache) <= KEEP
    assert problem._saved == 0.05 and not problem._bypass
    assert sum(rows) == problem._rows == 19 * len(batches) < problem._requests
    problem.fitness_many(batches[-1])
    assert sum(rows) == 19 * len(batches)  # the last batch is still cached, and hits


def test_a_run_on_a_filled_cache_is_judged_on_its_own_rows(monkeypatch):
    _set_small_budget(monkeypatch)
    instance = make_instance(*SHAPE, seed=3)
    first, second = (_SubProblem(instance, range(SHAPE[1]), range(SHAPE[0]), FitnessWeights())
                     for _ in range(2))
    genomes = _genomes(200, 6)
    first.fitness_many(genomes[:KEEP])  # fills the shared cache to its limit
    assert first._bypass and len(first._cache) == KEEP
    for start in range(KEEP, 2 * KEEP - 10, 10):  # the second run's first 30 rows
        second.fitness_many(np.concatenate([genomes[start : start + 10]] * 2))
        assert second._saved is None and not second._bypass
    assert second._window == (40, 20)  # opened at its own half limit
    second.fitness_many(np.concatenate([genomes[2 * KEEP - 10 : 2 * KEEP]] * 2))
    assert second._saved == 0.5 and not second._bypass
    assert len(second._cache) <= KEEP


@pytest.mark.parametrize("n_tasks,n_nodes", [(6, 3), (40, 5)])
def test_every_request_is_counted(n_tasks, n_nodes, monkeypatch):
    """A run's requests are its search's, whatever the cache answered: RL's
    list stepper (6 x 3) counts its hits too."""
    built = built_problems(monkeypatch)
    instance = make_instance(n_tasks, n_nodes, seed=4)
    nodes, tasks = range(n_nodes), range(n_tasks)
    geo_optimize(instance, nodes, tasks, GeoParams(population_size=12, iterations=30), FitnessWeights())
    igeo_optimize(instance, nodes, tasks, IgeoParams(population_size=12, iterations=30), FitnessWeights())
    rl_optimize(instance, nodes, tasks, RlConfig(episodes=300), FitnessWeights())
    assert [p._requests for p in built] == [12 * 31, 12 * 31, 301]
    assert all(p._rows < p._requests for p in built)  # every run hit its cache


class _WatchedCache(dict):
    """A fitness cache that logs every lookup and store made through it."""

    def __init__(self):
        super().__init__()
        self.calls = []

    def get(self, key, default=None):
        self.calls.append("get")
        return super().get(key, default)

    def __getitem__(self, key):
        self.calls.append("getitem")
        return super().__getitem__(key)

    def __contains__(self, key):
        self.calls.append("contains")
        return super().__contains__(key)

    def __setitem__(self, key, value):
        self.calls.append("setitem")
        super().__setitem__(key, value)

    def update(self, *args, **kwargs):
        self.calls.append("update")
        super().update(*args, **kwargs)

    def pop(self, *args):
        self.calls.append("pop")
        return super().pop(*args)


def test_a_bypassed_list_stepper_looks_nothing_up(monkeypatch, unit_weights):
    """RL-only at 6 x 3 steps its policy on a Python list.  On a zero budget
    its run stops caching at the first insert, the initial sample's; from
    then on no episode looks its sample up or stores it, and each still
    counts as a request."""
    monkeypatch.setattr(geo, "_CACHE_BYTES", 0)
    built = built_problems(monkeypatch)
    instance = make_instance(6, 3, seed=1)
    watched = _WatchedCache()
    _evaluator(instance).fitness_caches[(tuple(range(6)), tuple(range(3)), unit_weights)] = watched
    config = RlConfig(episodes=500, rng_seed=2)
    rl_optimize(instance, range(3), range(6), config, unit_weights)
    (problem,) = built
    assert problem._cache is watched and problem._bypass
    # the initial sample: one lookup, one store, and the trim that drops it
    assert watched.calls == ["get", "update", "pop"] and not watched
    assert problem._requests == config.episodes + 1


def _relabelled(instance, ids):
    """``instance`` with node k, in topology order, renamed ``ids[k]``:
    the same tables, in the same order, under other ids."""
    topology = instance.topology
    rename = dict(zip((node.id for node in topology.nodes), ids))
    return Instance(Topology(
        nodes=tuple(replace(node, id=rename[node.id]) for node in topology.nodes),
        links=tuple(replace(link, endpoints=tuple(map(rename.get, link.endpoints)))
                    for link in topology.links),
        device_gateways={d: rename[g] for d, g in topology.device_gateways.items()},
    ), instance.tasks)


@pytest.mark.parametrize("budget", [1 << 20, 0], ids=["cached", "bypassed"])
def test_an_identity_map_and_a_permuted_one_give_the_same_bits(budget, monkeypatch):
    """Node k of both instances is the same node, so a genome of the first
    (candidate k is node k: a batch of 2,400 cells goes to the kernel as it
    is) and its image under the relabelling (candidate k is another node,
    gathered) score alike."""
    monkeypatch.setattr(geo, "_CACHE_BYTES", budget)
    n_tasks, n_nodes = 40, 8
    plain = make_instance(n_tasks, n_nodes, seed=9)
    ids = np.random.default_rng(9).permutation(n_nodes)  # node k is renamed ids[k]
    problems = [_SubProblem(instance, range(n_nodes), range(n_tasks), FitnessWeights())
                for instance in (plain, _relabelled(plain, ids.tolist()))]
    assert [p._identity for p in problems] == [True, False]
    kernel_types = [set(), set()]
    for problem, types in zip(problems, kernel_types):
        problem.ctx.fitness = lambda node_idx, weights, ctx=problem.ctx, types=types: (
            types.add(node_idx.dtype), type(ctx).fitness(ctx, node_idx, weights))[1]
    genomes = np.random.default_rng(10).integers(0, n_nodes, size=(60, n_tasks), dtype=np.uint8)
    images = ids.astype(np.uint8)[genomes]  # candidate k of the second problem is node id k
    for _ in range(2):  # the second pass hits, or is bypassed
        first, second = (p.fitness_many(g) for p, g in zip(problems, (genomes, images)))
        assert first.tobytes() == second.tobytes()
        assert [problems[0].fitness_of(g) for g in genomes] == [problems[1].fitness_of(g) for g in images]
    assert [p._bypass for p in problems] == [budget == 0] * 2
    assert np.dtype(np.uint8) in kernel_types[0] and kernel_types[1] == {np.dtype(np.intp)}


@pytest.mark.parametrize("budget", [1 << 20, 0], ids=["cached", "bypassed"])
def test_an_out_of_range_genome_is_refused(budget, monkeypatch):
    monkeypatch.setattr(geo, "_CACHE_BYTES", budget)
    problem = _problem()
    problem.fitness_many(_genomes(2, 7))
    assert problem._identity and problem._bypass == (budget == 0)
    for bad in (SHAPE[1], -1):  # -1 is 255 as a uint8 key
        genomes = _genomes(20, 8).astype(np.intp)  # 2,000 cells: not gathered if in range
        genomes[1, 7] = bad
        with pytest.raises(IndexError):
            problem.fitness_many(genomes)
        with pytest.raises(IndexError):
            problem.fitness_of(genomes[1])


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
    built = built_problems(monkeypatch)
    zero, caches = _results(n_tasks, n_nodes, seed)
    assert not any(caches.values())  # every insert was dropped
    # each run built here (RIGEO's forked RL half is not) judged its cache
    # useless at its first insert
    assert len(built) >= 4 and all(p._bypass for p in built)
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
    built = built_problems(monkeypatch)
    assert _sweep(tmp_path / "zero") == default
    assert built and all(p._bypass for p in built)
