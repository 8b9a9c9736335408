"""The fitness caches' byte budget, ``geo._CACHE_BYTES``.  A run keeps its
instance's shared cache only if the entries already in it plus the run's
requests fit the budget, so a kept cache never passes it; a run that cannot
fit keeps no cache from its first request.  Neither changes a result, down
to a budget of 0.  Without a cache IGEO reuses the fitness of a child equal
to its parent or to the best genome.

At 100 tasks x 5 nodes a random genome almost never repeats.  The tests
monkeypatch the budget, which a ``_SubProblem`` reads when it is built."""

import pickle
import tracemalloc
from dataclasses import replace

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
    rl_episode,
    rl_init,
    rl_optimize,
    run_experiment,
)
from fogsched import Instance, Topology, geo
from fogsched.geo import _SubProblem
from fogsched.metrics import _evaluator, _SubsetContext

from conftest import built_problems, make_instance

SHAPE = (100, 5)
KEEP = 40  # entries a small budget holds at SHAPE


def _problem(requests, seed=3):
    n_tasks, n_nodes = SHAPE
    return _SubProblem(make_instance(n_tasks, n_nodes, seed=seed), range(n_nodes),
                       range(n_tasks), FitnessWeights(), requests)


def _entry(problem):
    return problem.dim * problem.key_dtype.itemsize + geo._ENTRY_OVERHEAD


def _set_small_budget(monkeypatch):
    budget = KEEP * (SHAPE[0] + geo._ENTRY_OVERHEAD)
    monkeypatch.setattr(geo, "_CACHE_BYTES", budget)
    return budget


def _genomes(count, seed):
    return np.random.default_rng(seed).integers(0, SHAPE[1], size=(count, SHAPE[0]), dtype=np.uint8)


def _kernel_rows(monkeypatch):
    """Count the genomes every fitness kernel scores from now on."""
    rows = []
    fitness = _SubsetContext.fitness

    def counted(ctx, node_idx, weights):
        rows.append(len(np.atleast_2d(node_idx)))
        return fitness(ctx, node_idx, weights)

    monkeypatch.setattr(_SubsetContext, "fitness", counted)
    return rows


def test_a_run_keeps_its_cache_only_if_its_requests_fit(monkeypatch):
    budget = _set_small_budget(monkeypatch)
    first = _problem(KEEP)
    assert first._cache == {}
    first.fitness_many(_genomes(KEEP, 1))
    assert len(first._cache) * _entry(first) == budget  # full, never past it
    # the same task set, candidates and weights on the same instance share the cache
    shared = _SubProblem(first.instance, range(SHAPE[1]), range(SHAPE[0]), FitnessWeights(), 0)
    assert shared._cache is first._cache
    assert _SubProblem(first.instance, range(SHAPE[1]), range(SHAPE[0]), FitnessWeights(), 1)._cache is None
    assert _problem(KEEP + 1)._cache is None
    # a run adds at most one entry a distinct genome: 2 ** 3 here, however
    # many requests it makes
    tiny = make_instance(3, 2, seed=3)
    assert _SubProblem(tiny, range(2), range(3), FitnessWeights(), 10 ** 6)._cache == {}
    monkeypatch.setattr(geo, "_CACHE_BYTES", 7 * (3 + geo._ENTRY_OVERHEAD))
    assert _SubProblem(tiny, range(2), range(3), FitnessWeights(), 10 ** 6)._cache is None


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


@pytest.mark.parametrize("algorithm,n_tasks,n_nodes", [
    ("GEO", 100, 5), ("IGEO", 100, 5), ("RL", 100, 5), ("RL", 6, 3),
], ids=["GEO", "IGEO", "RL-numpy", "RL-list"])
def test_a_run_whose_requests_cannot_fit_keeps_no_cache_from_its_first_request(
        algorithm, n_tasks, n_nodes, monkeypatch, unit_weights):
    """A budget of 20 entries against a run of 372 or 501 requests: the run
    never looks a genome up or stores one.  GEO and RL send every request to
    the kernel, RL's list stepper (6 x 3) too."""
    monkeypatch.setattr(geo, "_CACHE_BYTES", 20 * (n_tasks + geo._ENTRY_OVERHEAD))
    built = built_problems(monkeypatch)
    rows = _kernel_rows(monkeypatch)
    instance = make_instance(n_tasks, n_nodes, seed=1)
    watched = _WatchedCache()
    key = (tuple(range(n_tasks)), tuple(range(n_nodes)), unit_weights)
    _evaluator(instance).fitness_caches[key] = watched
    nodes, tasks = range(n_nodes), range(n_tasks)
    if algorithm == "RL":
        requests = 501
        rl_optimize(instance, nodes, tasks, RlConfig(episodes=500, rng_seed=2), unit_weights)
    else:
        requests = 12 * 31
        optimize = geo_optimize if algorithm == "GEO" else igeo_optimize
        params = (GeoParams if algorithm == "GEO" else IgeoParams)(population_size=12, iterations=30)
        optimize(instance, nodes, tasks, params, unit_weights)
    (problem,) = built
    assert problem._cache is None
    assert watched.calls == [] and not watched
    if algorithm == "IGEO":
        assert 0 < sum(rows) < requests  # children equal to their parent or the best are not scored
    else:
        assert sum(rows) == requests


def _assert_kept_then_not(built):
    """The first run kept the cache, and once a run could not, no later run did."""
    kept = [problem._cache is not None for problem in built]
    assert kept[0] and not kept[-1] and kept == sorted(kept, reverse=True), kept


def test_repeated_geo_runs_never_take_the_cache_past_its_budget(monkeypatch):
    """Ten GEO runs of 20 requests each on one instance, against a budget
    of 40 entries."""
    budget = _set_small_budget(monkeypatch)
    built = built_problems(monkeypatch)
    n_tasks, n_nodes = SHAPE
    instance = make_instance(n_tasks, n_nodes, seed=5)
    for seed in range(10):
        params = GeoParams(population_size=4, iterations=4, rng_seed=seed)
        geo_optimize(instance, range(n_nodes), range(n_tasks), params, FitnessWeights())
        assert len(built[0]._cache) * _entry(built[0]) <= budget
    _assert_kept_then_not(built)


def test_chained_rl_episodes_never_take_the_cache_past_its_budget(monkeypatch, unit_weights):
    """Each ``rl_episode`` call is a run of one request: the chain fills the
    cache to its budget and no further."""
    budget = _set_small_budget(monkeypatch)
    built = built_problems(monkeypatch)
    n_tasks, n_nodes = SHAPE
    instance = make_instance(n_tasks, n_nodes, seed=5)
    config = RlConfig(rng_seed=3)
    state = rl_init(instance, range(n_tasks), range(n_nodes), config, unit_weights)
    rng = np.random.default_rng(3)
    for _ in range(2 * KEEP):
        state = rl_episode(state, instance, unit_weights, config, rng)
        assert len(built[0]._cache) * _entry(built[0]) <= budget
    assert len(built[0]._cache) == KEEP
    _assert_kept_then_not(built)


def _igeo_run(n_tasks, budget):
    """IGEO-only's result bits at n_tasks x 20 on the budget, whether its
    run kept a cache, and its kernel rows."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(geo, "_CACHE_BYTES", budget)
        built = built_problems(patch)
        rows = _kernel_rows(patch)
        instance = make_instance(n_tasks, 20, seed=1)
        weights = calibrate_weights(instance, seed=1)
        trace = []
        assignment, fit = igeo_optimize(instance, range(20), range(n_tasks), IgeoParams(rng_seed=1),
                                        weights, trace=trace)
    (problem,) = built
    result = pickle.dumps((sorted(assignment.mapping.items()), fit, trace))
    return result, problem._cache is not None, sum(rows)


@pytest.mark.parametrize("n_tasks", [200, 600])
def test_uncached_igeo_gives_the_cached_bits_from_fewer_kernel_rows(n_tasks):
    """At the default parameters IGEO keeps no cache at n_tasks x 20; a
    budget of 8 MiB holds its 6,030 requests.  Uncached, it scores only the
    children that equal neither their parent nor the best genome."""
    children = IgeoParams().population_size * IgeoParams().iterations
    uncached, kept, rows = _igeo_run(n_tasks, geo._CACHE_BYTES)
    assert not kept and rows < children
    cached, kept, _ = _igeo_run(n_tasks, 1 << 23)
    assert kept
    assert uncached == cached


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


@pytest.mark.parametrize("budget", [1 << 20, 0], ids=["cached", "uncached"])
def test_an_identity_map_and_a_permuted_one_give_the_same_bits(budget, monkeypatch):
    """Node k of both instances is the same node, so a genome of the first
    (candidate k is node k: a batch of 2,400 cells goes to the kernel as it
    is) and its image under the relabelling (candidate k is another node,
    gathered) score alike."""
    monkeypatch.setattr(geo, "_CACHE_BYTES", budget)
    n_tasks, n_nodes = 40, 8
    plain = make_instance(n_tasks, n_nodes, seed=9)
    ids = np.random.default_rng(9).permutation(n_nodes)  # node k is renamed ids[k]
    problems = [_SubProblem(instance, range(n_nodes), range(n_tasks), FitnessWeights(), 4 * 60)
                for instance in (plain, _relabelled(plain, ids.tolist()))]
    assert [p._identity for p in problems] == [True, False]
    kernel_types = [set(), set()]
    for problem, types in zip(problems, kernel_types):
        problem.ctx.fitness = lambda node_idx, weights, ctx=problem.ctx, types=types: (
            types.add(node_idx.dtype), type(ctx).fitness(ctx, node_idx, weights))[1]
    genomes = np.random.default_rng(10).integers(0, n_nodes, size=(60, n_tasks), dtype=np.uint8)
    images = ids.astype(np.uint8)[genomes]  # candidate k of the second problem is node id k
    for _ in range(2):  # the second pass hits, or is scored again
        first, second = (p.fitness_many(g) for p, g in zip(problems, (genomes, images)))
        assert first.tobytes() == second.tobytes()
        scores = [p.scorer() for p in problems]
        assert list(map(scores[0], genomes)) == list(map(scores[1], images))
    assert [p._cache is None for p in problems] == [budget == 0] * 2
    assert np.dtype(np.uint8) in kernel_types[0] and kernel_types[1] == {np.dtype(np.intp)}


@pytest.mark.parametrize("budget", [1 << 20, 0], ids=["cached", "uncached"])
def test_an_out_of_range_genome_is_refused(budget, monkeypatch):
    monkeypatch.setattr(geo, "_CACHE_BYTES", budget)
    problem = _problem(2 + 2 * 21)
    problem.fitness_many(_genomes(2, 7))
    assert problem._identity and (problem._cache is None) == (budget == 0)
    for bad in (SHAPE[1], -1):  # -1 is 255 as a uint8 key
        genomes = _genomes(20, 8).astype(np.intp)  # 2,000 cells: not gathered if in range
        genomes[1, 7] = bad
        with pytest.raises(IndexError):
            problem.fitness_many(genomes)
        with pytest.raises(IndexError):
            problem.scorer()(genomes[1].astype(problem.key_dtype))


def _ten_runs_peak(optimize, params, runs):
    """The traced peak of ``runs`` seeded runs on one SHAPE instance, and
    the instance's fitness caches after them."""
    n_tasks, n_nodes = SHAPE
    instance = make_instance(n_tasks, n_nodes, seed=5)
    _evaluator(instance)  # built before the trace
    tracemalloc.start()
    try:
        for seed in range(runs):
            optimize(instance, range(n_nodes), range(n_tasks), params(seed), FitnessWeights())
        return tracemalloc.get_traced_memory()[1], _evaluator(instance).fitness_caches
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
    """Ten runs whose requests do not fit the budget keep no cache, so they
    peak within 1.25x of one run; with a cache that grew by one run's keys
    per run, they did not."""
    _set_small_budget(monkeypatch)
    (one, _), (ten, caches) = (_ten_runs_peak(optimize, params, runs) for runs in (1, 10))
    assert ten <= 1.25 * one, (one, ten)
    assert caches and not any(caches.values())  # no run stored a fitness


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
    assert not any(caches.values())  # nothing was stored
    # no run built here (RIGEO's forked RL half is not) kept a cache
    assert len(built) >= 4 and all(p._cache is None for p in built)
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
    assert built and all(p._cache is None for p in built)
