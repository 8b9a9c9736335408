"""The vectorized sub-problem kernel against the per-task EDF loop it
replaced: batched rows, single-genome calls and the reference must agree bit
for bit, and the optimizers must reach the kernel through ``ctx.objectives``
once per iteration.  The ``Evaluator``'s cost tables are checked against the
oracle's per-(task, node) costs."""

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fogsched import FitnessWeights, FogNode, Instance, Link, Topology, build_assignment, metrics
from fogsched.geo import GeoParams, _SubProblem, geo_optimize
from fogsched.igeo import IgeoParams, igeo_optimize

from conftest import line_instance, make_instance, simple_tasks
from edf_reference import reference_objectives
from oracle import _routes, brute_force_report


def bits(values):
    return tuple(float(v).hex() for v in values)


def assert_kernel_agrees(instance, task_ids, genomes):
    """Every row of ``genomes`` (node indices): batched == single ==
    reference, bit for bit."""
    ctx = metrics.Evaluator(instance).subset_context(task_ids)
    genomes = np.asarray(genomes, dtype=np.intp)
    batch = ctx.objectives(genomes)
    assert all(b.shape == (len(genomes),) for b in batch)
    for row, genome in enumerate(genomes):
        single = ctx.objectives(genome)
        assert all(type(v) is float for v in single)
        assert bits(single) == bits(reference_objectives(instance, task_ids, genome))
        assert bits(b[row] for b in batch) == bits(single)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_kernel_matches_reference_loop(data):
    n_tasks = data.draw(st.integers(1, 12), label="n_tasks")
    n_nodes = data.draw(st.integers(1, 5), label="n_nodes")
    instance = make_instance(n_tasks, n_nodes, data.draw(st.integers(0, 99), label="seed"))
    task_ids = sorted(data.draw(
        st.lists(st.sampled_from([t.id for t in instance.tasks]), min_size=1, unique=True),
        label="task_ids",
    ))
    nodes = data.draw(
        st.lists(st.integers(0, n_nodes - 1), min_size=1, unique=True), label="nodes"
    )
    genome = st.lists(st.sampled_from(nodes), min_size=len(task_ids), max_size=len(task_ids))
    genomes = data.draw(st.lists(genome, min_size=1, max_size=6), label="genomes")
    if data.draw(st.booleans(), label="repeat a row"):
        genomes.append(genomes[0])
    assert_kernel_agrees(instance, task_ids, genomes)


@pytest.mark.parametrize("n_tasks,candidates", [(300, 20), (300, 3), (150, 1)])
def test_kernel_matches_reference_at_scale(n_tasks, candidates):
    # long rows exercise numpy's blocked pairwise summation in every reduction
    instance = make_instance(n_tasks, 20, seed=n_tasks + candidates)
    rng = np.random.default_rng(candidates)
    task_ids = sorted(rng.choice(n_tasks, size=n_tasks * 2 // 3, replace=False).tolist())
    nodes = rng.choice(20, size=candidates, replace=False)
    genomes = nodes[rng.integers(0, candidates, size=(8, len(task_ids)))]
    genomes[0] = nodes[0]  # every task queued on one node: the widest lane
    assert_kernel_agrees(instance, task_ids, genomes)


def test_kernel_nodes_without_tasks():
    tasks = simple_tasks([(500.0, 20.0, 50.0), (300.0, 10.0, 40.0), (800.0, 5.0, 90.0)])
    instance = line_instance(tasks, n_nodes=4)
    # nodes 1 and 3 idle (busy 0) in every row; node 2 idle in the first
    assert_kernel_agrees(instance, [0, 1, 2], [[0, 0, 0], [2, 0, 2], [0, 2, 0]])


def test_kernel_single_task():
    instance = make_instance(5, 3, seed=4)
    assert_kernel_agrees(instance, [3], [[0], [1], [2], [1]])


def sequential_lanes(nodes, execution, m):
    """Queue waits and busy times of ``_lane_queues``, as one ``busy +=``
    loop per row."""
    queue = np.zeros(nodes.shape)
    busy = np.zeros((len(nodes), m))
    for row, (lanes, times) in enumerate(zip(nodes, execution)):
        for k, (j, t) in enumerate(zip(lanes, times)):
            queue[row, k] = busy[row, j]
            busy[row, j] += t
    return queue, busy


@pytest.mark.parametrize("m", [1, 3, 256, 257])
def test_lane_queues_match_a_sequential_loop(m):
    # row 0 queues every entry on one node, so the padded width is n + 1;
    # one row takes no row offsets, four rows do, and rows of 257 nodes are
    # sorted on uint16 keys
    rng = np.random.default_rng(m)
    n = 40
    nodes = rng.integers(0, m, size=(4, n))
    nodes[0] = m - 1
    nodes[1, ::2] = 0
    execution = rng.uniform(0.1, 900.0, size=(4, n))
    expected = sequential_lanes(nodes, execution, m)
    for rows in (slice(0, 1), slice(1, 2), slice(0, 4)):
        queue, busy = metrics._lane_queues(nodes[rows], execution[rows], m)
        assert queue.shape == nodes[rows].shape and busy.shape == (len(queue), m)
        assert bits(queue.ravel()) == bits(expected[0][rows].ravel())
        assert bits(busy.ravel()) == bits(expected[1][rows].ravel())


def test_kernel_every_task_on_one_node():
    instance = make_instance(60, 4, seed=6)
    genomes = [[j] * 60 for j in range(4)] + [[3] * 30 + [0] * 30]
    assert_kernel_agrees(instance, list(range(60)), genomes)


@pytest.mark.parametrize("n_nodes", [256, 257])
def test_kernel_on_256_and_257_nodes(n_nodes):
    tasks = simple_tasks([(500.0, 20.0, 5000.0), (300.0, 10.0, 4000.0), (800.0, 5.0, 9000.0),
                          (200.0, 8.0, 3000.0), (600.0, 12.0, 6000.0)])
    instance = line_instance(tasks, n_nodes=n_nodes)
    top = n_nodes - 1
    genomes = [[top] * 5, [top, 0, top - 1, 128, top], [0] * 5, [7, 7, top, 7, 200]]
    assert_kernel_agrees(instance, list(range(5)), genomes)
    assert_kernel_agrees(instance, [2], [[top], [0]])


def test_one_row_batch_equals_the_genome():
    instance = make_instance(300, 20, seed=8)
    ctx = metrics.Evaluator(instance).subset_context(range(300))
    genome = np.random.default_rng(8).integers(0, 20, size=300)
    batch = ctx.objectives(genome[None, :])
    assert all(b.shape == (1,) for b in batch)
    assert bits(b[0] for b in batch) == bits(ctx.objectives(genome))
    assert bits(ctx.objectives(genome)) == bits(reference_objectives(instance, range(300), genome))


def test_kernel_single_candidate_node():
    instance = make_instance(8, 4, seed=2)
    problem = _SubProblem(instance, [2], range(8), FitnessWeights())
    assert problem.n_candidates == 1
    genome = np.zeros((1, 8), dtype=np.intp)
    assert problem.fitness_many(genome).tolist() == [problem.fitness_of(genome[0])]
    assert_kernel_agrees(instance, list(range(8)), problem.candidate_idx[genome])


def test_fitness_many_scores_a_repeated_genome_once():
    instance = make_instance(10, 3, seed=5)
    problem = _SubProblem(instance, [0, 1, 2], range(10), FitnessWeights())
    rows_per_call = []
    objectives = problem.ctx.objectives

    def counting(node_idx):
        rows_per_call.append(np.shape(node_idx))
        return objectives(node_idx)

    problem.ctx.objectives = counting
    genome = np.array([0, 1, 2, 0, 1, 2, 0, 1, 2, 0])
    fits = problem.fitness_many(np.stack([genome, genome]))
    assert rows_per_call == [(1, 10)]
    assert fits[0] == fits[1]
    assert problem.fitness_of(genome) == fits[0]  # now a cache hit
    # the key is the genome's values, whatever container or integer type
    # holds them
    assert problem.fitness_of(genome.tolist()) == fits[0]
    assert problem.fitness_of(genome.astype(np.int32)) == fits[0]
    assert problem.fitness_many([genome.tolist()]).tolist() == [fits[0]]
    assert problem.fitness_many(genome[None, :].astype(np.int32)).tolist() == [fits[0]]
    assert rows_per_call == [(1, 10)]
    assert len(problem._cache) == 1

    other = (genome + 1) % 3
    fits = problem.fitness_many(np.stack([other, genome, other]))
    assert rows_per_call == [(1, 10), (1, 10)]  # only the new genome, once
    assert fits[0] == fits[2]
    fresh = _SubProblem(make_instance(10, 3, seed=5), [0, 1, 2], range(10), FitnessWeights())
    assert bits(fits) == bits([fresh.fitness_of(other), fresh.fitness_of(genome), fresh.fitness_of(other)])


@pytest.fixture
def wide_line():
    """Five tasks entering a line of 257 nodes: room for 256 and 257
    candidates.  A fresh instance per test, so each starts with an empty
    fitness cache."""
    tasks = simple_tasks([(500.0, 20.0, 5000.0), (300.0, 10.0, 4000.0), (800.0, 5.0, 9000.0),
                          (200.0, 8.0, 3000.0), (600.0, 12.0, 6000.0)])
    return line_instance(tasks, n_nodes=257)


@pytest.mark.parametrize("n_candidates,key_bytes", [(1, 1), (3, 1), (256, 1), (257, 2)])
def test_cache_key_is_the_narrowest_unsigned_genome(wide_line, n_candidates, key_bytes):
    problem = _SubProblem(wide_line, range(n_candidates), range(5), FitnessWeights())
    assert problem.key_dtype == np.dtype(f"uint{8 * key_bytes}")
    top = n_candidates - 1
    genomes = np.array([[0] * 5, [top] * 5, [top, 0, top, 0, top]])
    for genome in genomes:
        problem.fitness_of(genome)
    problem.fitness_many(genomes[::-1])
    assert {len(key) for key in problem._cache} == {5 * key_bytes}
    assert len(problem._cache) == len({tuple(g) for g in genomes.tolist()})


@pytest.mark.parametrize("n_candidates", [256, 257])
def test_top_candidate_index_scores_its_own_genome(wide_line, n_candidates):
    weights = FitnessWeights()
    problem = _SubProblem(wide_line, range(n_candidates), range(5), weights)
    top = n_candidates - 1
    genomes = np.array([[top] * 5, [top, 0, 1, top - 1, top], [0] * 5])
    fits = problem.fitness_many(genomes)
    fresh = _SubProblem(line_instance(wide_line.tasks, n_nodes=257), range(n_candidates),
                        range(5), weights)
    expected = [fresh.ctx.fitness(fresh.candidate_idx[g], weights) for g in genomes]
    assert bits(fits) == bits(expected)
    assert bits(problem.fitness_of(g) for g in genomes) == bits(expected)


def test_fitness_many_takes_intp_and_narrow_genomes_alike():
    instance = make_instance(30, 4, seed=9)
    problem = _SubProblem(instance, [0, 1, 2, 3], range(30), FitnessWeights())
    rows = []
    objectives = problem.ctx.objectives

    def counting(node_idx):
        rows.append(len(np.atleast_2d(node_idx)))
        return objectives(node_idx)

    problem.ctx.objectives = counting
    genomes = np.random.default_rng(9).integers(0, 4, size=(6, 30))
    wide = problem.fitness_many(genomes)
    assert genomes.dtype == np.intp and rows == [6]
    narrow = genomes.astype(problem.key_dtype)
    assert bits(problem.fitness_many(narrow)) == bits(wide)
    assert bits(problem.fitness_of(g) for g in narrow) == bits(wide)
    assert rows == [6] and len(problem._cache) == 6


# assignments (candidate node ids of tasks 0-4) and fitness bits, recorded
# from the intp-genome optimizers: a uint8 (256) or uint16 (257) genome must
# search exactly as they did.  Devices enter the line at node 256, so the
# search is drawn to the top indices; IGEO's best genome at 257 candidates
# holds index 256 (GEO's flock settles before it decodes that high)
NARROW_PINS = {
    (256, "geo"): ([240, 130, 249, 21, 155], "0x1.437ab22d0e560p+12"),
    (256, "igeo"): ([254, 253, 255, 227, 245], "0x1.2713f9db22d0ep+12"),
    (257, "geo"): ([241, 131, 250, 21, 155], "0x1.43219374bc6a8p+12"),
    (257, "igeo"): ([255, 254, 256, 228, 247], "0x1.2688000000000p+12"),
}


@pytest.mark.parametrize("n_candidates,name", sorted(NARROW_PINS))
def test_optimizers_keep_their_bits_in_narrow_genomes(wide_line, n_candidates, name):
    gateways = {device: 256 for device in wide_line.topology.device_gateways}
    instance = Instance(replace(wide_line.topology, device_gateways=gateways), wide_line.tasks)
    optimize, params = {
        "geo": (geo_optimize, GeoParams(population_size=16, iterations=40, rng_seed=4)),
        "igeo": (igeo_optimize, IgeoParams(population_size=16, iterations=40, rng_seed=4)),
    }[name]
    assignment, fit = optimize(instance, range(n_candidates), range(5), params, FitnessWeights())
    assert ([assignment.mapping[t] for t in range(5)], fit.hex()) == NARROW_PINS[n_candidates, name]


@pytest.mark.parametrize("optimize,params", [
    (geo_optimize, GeoParams(population_size=8, iterations=6)),
    (igeo_optimize, IgeoParams(population_size=8, iterations=6)),
])
def test_flock_optimizers_make_one_kernel_call_per_iteration(monkeypatch, optimize, params):
    instance = make_instance(40, 5, seed=1)
    calls = []
    subset_context = metrics.Evaluator.subset_context

    def counting_subset_context(evaluator, task_ids):
        ctx = subset_context(evaluator, task_ids)
        objectives = ctx.objectives

        def counted(node_idx):
            calls.append(np.shape(node_idx))
            return objectives(node_idx)

        ctx.objectives = counted
        return ctx

    monkeypatch.setattr(metrics.Evaluator, "subset_context", counting_subset_context)
    _, fit = optimize(instance, range(5), range(40), params, FitnessWeights())
    assert type(fit) is float
    # the initial flock plus one batch per iteration; a batch whose every
    # genome is cached makes no call
    assert 1 <= len(calls) <= params.iterations + 1
    assert all(len(shape) == 2 and shape[0] <= params.population_size for shape in calls)


def multi_hop_instance():
    """Nodes 2-0-1-3 in a line with unequal bandwidths, so routes take up to
    three hops through a bottleneck; node 4 has no link, so no gateway
    reaches it.  Nodes and tasks are listed out of id order."""
    nodes = tuple(
        FogNode(id=j, mips=mips, active_power=100.0, idle_power=10.0)
        for j, mips in ((2, 1500.0), (0, 1000.0), (1, 2500.0), (3, 800.0), (4, 3000.0))
    )
    links = (
        Link(endpoints=(2, 0), bandwidth=120.0, propagation_delay=0.7, traffic_load=0.5),
        Link(endpoints=(0, 1), bandwidth=45.0, propagation_delay=1.3, traffic_load=0.5),
        Link(endpoints=(1, 3), bandwidth=200.0, propagation_delay=0.4, traffic_load=0.5),
    )
    tasks = simple_tasks(
        [(500.0, 20.0, 50.0), (300.0, 35.0, 40.0), (800.0, 5.0, 90.0), (650.0, 60.0, 70.0)]
    )[::-1]
    gateways = {0: 2, 1: 3, 2: 0, 3: 1}  # source device -> gateway node
    return Instance(Topology(nodes=nodes, links=links, device_gateways=gateways), tasks)


def test_cost_tables_match_oracle():
    instance = multi_hop_instance()
    ev = metrics.Evaluator(instance)
    routes = _routes(instance)
    for i, task in enumerate(instance.tasks):
        for j, node in enumerate(instance.topology.nodes):
            cell = (ev.propagation[i, j], ev.transmission[i, j], ev.execution[i, j])
            if (instance.gateway_of(task), node.id) not in routes:
                assert node.id == 4 and math.isinf(cell[0])
                continue
            oracle = brute_force_report(instance, {task.id: node.id}, FitnessWeights())
            assert bits(cell) == bits(oracle["breakdown"][task.id][:3])


def test_unreachable_node_raises_in_report_and_subproblem():
    instance = multi_hop_instance()
    mapping = {t.id: 0 for t in instance.tasks}
    mapping[1] = 4
    with pytest.raises(ValueError, match="no route from gateway of task 1 to node 4"):
        metrics.Evaluator(instance).report(build_assignment(instance.tasks, mapping), FitnessWeights())
    with pytest.raises(ValueError, match="no route from gateway of task 1 to any candidate"):
        _SubProblem(instance, [4], [0, 1, 2, 3], FitnessWeights())
