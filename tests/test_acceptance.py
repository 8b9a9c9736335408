"""End-to-end acceptance checks: oracle equivalence, optimizer quality on
exhaustively solvable instances, algorithm ordering at full scale, elitism
and routing invariants, determinism, generator ranges, and operator closure.

Each test prints one PASS/FAIL line with its measured numbers.
"""

import itertools
import time
from statistics import fmean

import numpy as np
import pytest
from scipy.stats import binomtest

from fogsched import (
    ExperimentPlan,
    FitnessWeights,
    IgeoParams,
    Instance,
    RlConfig,
    ScenarioConfig,
    classify_nodes,
    crossover_single,
    crossover_two,
    evaluate,
    generate_scenario,
    geo_optimize,
    igeo_optimize,
    mutate,
    partition_tasks,
    rigeo_schedule,
    rl_optimize,
    run_experiment,
)
from fogsched.geo import GeoParams
from fogsched.igeo import NEGATIVE, POSITIVE, classify_step
from fogsched.metrics import calibrate_weights
from fogsched.model import build_assignment

from conftest import make_instance
from oracle import all_mappings, brute_force_report, exhaustive_best

SMALL_INSTANCE_COUNT = 20
SEEDS_PER_INSTANCE = 50


def _report(capsys, number, name, ok, detail):
    with capsys.disabled():
        print(f"criterion {number} ({name}): {'PASS' if ok else 'FAIL'} - {detail}")


@pytest.fixture(scope="module")
def small_instances():
    return [make_instance(6, 3, seed=s) for s in range(SMALL_INSTANCE_COUNT)]


@pytest.fixture(scope="module")
def small_optima(small_instances):
    weights = FitnessWeights()
    return [exhaustive_best(inst, weights)[1] for inst in small_instances]


def test_criterion_1_metrics_oracle_equivalence(capsys, unit_weights):
    instance = make_instance(6, 3, seed=7)
    start = time.perf_counter()
    checked = 0
    mismatches = 0
    task_ids = sorted(t.id for t in instance.tasks)
    node_ids = sorted(n.id for n in instance.topology.nodes)
    for mapping in all_mappings(task_ids, node_ids):
        assignment = build_assignment(instance.tasks, mapping)
        report = evaluate(instance, assignment, unit_weights)
        expected = brute_force_report(instance, mapping, unit_weights)
        same = (
            all(
                b.response == expected["response"][b.task_id]
                for b in report.per_task
            )
            and all(
                dv == expected["dv"][b.task_id]
                for b, dv in zip(report.per_task, report.dv_per_task)
            )
            and dict(report.energy_per_node) == expected["energy"]
            and report.dv_total == expected["dv_total"]
            and report.response_total == expected["response_total"]
            and report.response_max == expected["response_max"]
            and report.energy_total == expected["energy_total"]
            and report.fitness == expected["fitness"]
        )
        mismatches += not same
        checked += 1
    elapsed = time.perf_counter() - start
    ok = mismatches == 0 and checked == 729 and elapsed < 10.0
    _report(capsys, 1, "metrics oracle equivalence", ok,
            f"{checked} assignments, {mismatches} mismatches, {elapsed:.1f}s")
    assert mismatches == 0
    assert checked == 729
    assert elapsed < 10.0


def test_criterion_2_igeo_small_instance_optimality(capsys, small_instances, small_optima):
    weights = FitnessWeights()
    start = time.perf_counter()
    hits = runs = 0
    for instance, optimum in zip(small_instances, small_optima):
        for seed in range(SEEDS_PER_INSTANCE):
            _, fit = igeo_optimize(
                instance, [0, 1, 2], [t.id for t in instance.tasks],
                IgeoParams(population_size=20, iterations=200, rng_seed=seed), weights,
            )
            hits += fit <= optimum * 1.05
            runs += 1
    elapsed = time.perf_counter() - start
    ok = hits / runs >= 0.95 and elapsed < 120.0
    _report(capsys, 2, "IGEO small-instance optimality", ok,
            f"{hits}/{runs} within 5% of optimum, {elapsed:.1f}s")
    assert hits / runs >= 0.95
    assert elapsed < 120.0


def test_criterion_3_rl_small_instance_optimality(capsys, small_instances, small_optima):
    weights = FitnessWeights()
    start = time.perf_counter()
    hits = runs = 0
    for instance, optimum in zip(small_instances, small_optima):
        for seed in range(SEEDS_PER_INSTANCE):
            _, fit = rl_optimize(
                instance, [0, 1, 2], [t.id for t in instance.tasks],
                RlConfig(episodes=2000, rng_seed=seed), weights,
            )
            hits += fit <= optimum * 1.05
            runs += 1
    elapsed = time.perf_counter() - start
    ok = hits / runs >= 0.90 and elapsed < 120.0
    _report(capsys, 3, "RL small-instance optimality", ok,
            f"{hits}/{runs} within 5% of optimum, {elapsed:.1f}s")
    assert hits / runs >= 0.90
    assert elapsed < 120.0


def test_criterion_4_full_scale_algorithm_ordering(capsys):
    """20 paired seeds at 200 tasks / 20 nodes.  GEO and IGEO-only each
    spend 1000 fitness evaluations (population 20 x 50 iterations, after 20
    for the initial flock); RIGEO spends as many on its IGEO half and 1000
    RL episodes on its relaxed half, so about twice the budget.  The
    two-stage scheduler and the discrete variant must beat the continuous
    swarm on every mean metric, and win a one-sided paired sign test on
    fitness."""
    pop, iters, episodes = 20, 50, 1000
    start = time.perf_counter()
    results = {"RIGEO": [], "IGEO": [], "GEO": []}
    for seed in range(20):
        topology, tasks = generate_scenario(
            ScenarioConfig(n_tasks=200, n_nodes=20, rng_seed=seed)
        )
        instance = Instance(topology, tasks)
        weights = calibrate_weights(instance, 1.0, 1.0, 1.0, seed=seed)
        node_ids = [n.id for n in topology.nodes]
        task_ids = [t.id for t in tasks]

        assignment, _ = rigeo_schedule(
            instance,
            IgeoParams(population_size=pop, iterations=iters, rng_seed=seed),
            RlConfig(episodes=episodes, rng_seed=seed),
            weights,
        )
        results["RIGEO"].append(evaluate(instance, assignment, weights))
        assignment, _ = igeo_optimize(
            instance, node_ids, task_ids,
            IgeoParams(population_size=pop, iterations=iters, rng_seed=seed), weights,
        )
        results["IGEO"].append(evaluate(instance, assignment, weights))
        assignment, _ = geo_optimize(
            instance, node_ids, task_ids,
            GeoParams(population_size=pop, iterations=iters, rng_seed=seed), weights,
        )
        results["GEO"].append(evaluate(instance, assignment, weights))
    elapsed = time.perf_counter() - start

    means = {
        name: {
            metric: fmean(getattr(r, metric) for r in reports)
            for metric in ("dv_total", "energy_total", "response_total")
        }
        for name, reports in results.items()
    }
    ordering_ok = all(
        means[name][metric] <= means["GEO"][metric]
        for name in ("RIGEO", "IGEO")
        for metric in ("dv_total", "energy_total", "response_total")
    )
    pvalues = {}
    for name in ("RIGEO", "IGEO"):
        wins = sum(
            a.fitness < b.fitness for a, b in zip(results[name], results["GEO"])
        )
        pvalues[name] = binomtest(wins, 20, 0.5, alternative="greater").pvalue
    sign_ok = all(p < 0.05 for p in pvalues.values())
    ok = ordering_ok and sign_ok and elapsed < 600.0
    _report(capsys, 4, "full-scale algorithm ordering", ok,
            f"mean dv RIGEO={means['RIGEO']['dv_total']:.0f} "
            f"IGEO={means['IGEO']['dv_total']:.0f} GEO={means['GEO']['dv_total']:.0f}, "
            f"sign-test p RIGEO={pvalues['RIGEO']:.2e} IGEO={pvalues['IGEO']:.2e}, "
            f"{elapsed:.1f}s")
    assert ordering_ok
    assert sign_ok
    assert elapsed < 600.0


def test_criterion_5_elitism_invariants(capsys, unit_weights):
    instance = make_instance(6, 3, seed=5)
    task_ids = [t.id for t in instance.tasks]
    violations = 0
    runs = 0
    for seed in range(100):
        traces = []
        for run in (
            lambda tr: geo_optimize(
                instance, [0, 1, 2], task_ids,
                GeoParams(population_size=6, iterations=30, rng_seed=seed),
                unit_weights, trace=tr),
            lambda tr: igeo_optimize(
                instance, [0, 1, 2], task_ids,
                IgeoParams(population_size=6, iterations=30, rng_seed=seed),
                unit_weights, trace=tr),
            lambda tr: rl_optimize(
                instance, [0, 1, 2], task_ids,
                RlConfig(episodes=150, rng_seed=seed), unit_weights, trace=tr),
        ):
            trace = []
            run(trace)
            traces.append(trace)
            runs += 1
        best_series = [
            [row[1] for row in traces[0]],
            [row[1] for row in traces[1]],
            [row[2] for row in traces[2]],
        ]
        for series in best_series:
            if any(b2 > b1 for b1, b2 in zip(series, series[1:])):
                violations += 1
    ok = violations == 0
    _report(capsys, 5, "elitism invariants", ok,
            f"{runs} optimizer runs, {violations} non-monotone traces")
    assert violations == 0


def test_criterion_6_routing_invariant(capsys):
    checked = 0
    cross_class = 0
    seed = 0
    while checked < 100:
        instance = make_instance(8, 5, seed=seed)
        seed += 1
        classification = classify_nodes(instance.topology)
        if not classification.low_traffic_nodes or not classification.high_traffic_nodes:
            continue
        partition = partition_tasks(instance.tasks)
        weights = FitnessWeights()
        assignment, _ = rigeo_schedule(
            instance,
            IgeoParams(population_size=4, iterations=10, rng_seed=seed),
            RlConfig(episodes=30, rng_seed=seed),
            weights,
        )
        for task_id, node_id in assignment.mapping.items():
            if task_id in partition.low_deadline_tasks:
                cross_class += node_id not in classification.low_traffic_nodes
            else:
                cross_class += node_id not in classification.high_traffic_nodes
        checked += 1
    ok = cross_class == 0
    _report(capsys, 6, "routing invariant", ok,
            f"{checked} instances, {cross_class} cross-class assignments")
    assert cross_class == 0


def test_criterion_7_experiment_determinism(capsys, tmp_path):
    def plan(out):
        return ExperimentPlan(
            task_counts=(8,),
            n_nodes=4,
            repetitions=2,
            algorithms=("RIGEO", "IGEO-only", "GEO", "RL-only", "RANDOM", "GREEDY"),
            base_seed=0,
            output_dir=str(out),
            geo=GeoParams(population_size=4, iterations=10),
            igeo=IgeoParams(population_size=4, iterations=10),
            rl=RlConfig(episodes=30),
            workers=1,
        )

    run_experiment(plan(tmp_path / "first"), write_reports=False)
    run_experiment(plan(tmp_path / "second"), write_reports=False)
    first = (tmp_path / "first" / "records.csv").read_bytes()
    second = (tmp_path / "second" / "records.csv").read_bytes()
    ok = first == second
    _report(capsys, 7, "experiment determinism", ok,
            f"records.csv byte-identical across two runs: {ok}")
    assert first == second


def test_criterion_8_scenario_parameter_ranges(capsys):
    out_of_range = 0
    nodes_checked = 0
    for seed in range(10):
        topology, _ = generate_scenario(ScenarioConfig(rng_seed=seed))
        for node in topology.nodes:
            nodes_checked += 1
            out_of_range += not (2000.0 <= node.mips <= 6000.0)
            out_of_range += not (80.0 <= node.active_power <= 200.0)
    ok = out_of_range == 0
    _report(capsys, 8, "scenario parameter ranges", ok,
            f"{nodes_checked} nodes checked, {out_of_range} out of range")
    assert out_of_range == 0


def test_criterion_9_operator_closure(capsys):
    rng = np.random.default_rng(0)
    n_candidates = 5
    length = 10
    invalid = 0
    branches = set()
    for _ in range(100_000):
        parent_a = rng.integers(0, n_candidates, size=length, dtype=np.intp)
        parent_b = rng.integers(0, n_candidates, size=length, dtype=np.intp)
        op = rng.integers(0, 3)
        if op == 0:
            child = mutate(parent_a, n_candidates, rng, mutation_rate=0.2)
        elif op == 1:
            child = crossover_single(parent_a, parent_b, rng)
        else:
            child = crossover_two(parent_a, parent_b, rng)
        if len(child) != length or child.min() < 0 or child.max() >= n_candidates:
            invalid += 1
        sign = classify_step(float(rng.normal()), float(rng.random()), float(rng.random()))
        branches.add((sign, float(rng.random()) >= 0.5))
    all_branches = branches == {
        (NEGATIVE, True), (NEGATIVE, False), (POSITIVE, True), (POSITIVE, False)
    }
    ok = invalid == 0 and all_branches
    _report(capsys, 9, "operator closure", ok,
            f"100000 applications, {invalid} invalid genomes, "
            f"{len(branches)}/4 branches seen")
    assert invalid == 0
    assert all_branches
