"""The vectorized sub-problem kernel against the per-task EDF loop it
replaced: batched rows, single-genome calls and the reference must agree bit
for bit, and the optimizers must reach the kernel through ``ctx.objectives``
once per iteration."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fogsched import FitnessWeights, metrics
from fogsched.geo import GeoParams, _SubProblem, geo_optimize
from fogsched.igeo import IgeoParams, igeo_optimize

from conftest import line_instance, make_instance, simple_tasks
from edf_reference import reference_objectives


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
    assert rows_per_call == [(1, 10)]

    other = (genome + 1) % 3
    fits = problem.fitness_many(np.stack([other, genome, other]))
    assert rows_per_call == [(1, 10), (1, 10)]  # only the new genome, once
    assert fits[0] == fits[2]
    fresh = _SubProblem(make_instance(10, 3, seed=5), [0, 1, 2], range(10), FitnessWeights())
    assert bits(fits) == bits([fresh.fitness_of(other), fresh.fitness_of(genome), fresh.fitness_of(other)])


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
