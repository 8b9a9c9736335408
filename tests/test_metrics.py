import math
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fogsched import (
    Assignment,
    FitnessWeights,
    FogNode,
    Instance,
    Topology,
    build_assignment,
    calibrate_weights,
    deadline_violation,
    evaluate,
    fitness,
    node_energy,
    response_breakdown,
    total_deadline_violation,
    total_energy,
)
from fogsched import metrics
from fogsched.metrics import ResponseBreakdown

from conftest import line_instance, make_instance, simple_tasks, single_node_instance
from oracle import brute_force_report


def test_response_is_sum_of_components():
    b = ResponseBreakdown(task_id=0, propagation=1.0, transmission=2.0,
                          execution=3.0, queue_wait=4.0, response=10.0)
    assert b.response == b.propagation + b.transmission + b.execution + b.queue_wait


def test_execution_time_identity():
    tasks = simple_tasks([(3000.0, 0.0, 5000.0)])
    node = FogNode(id=0, mips=3000.0, active_power=100.0, idle_power=10.0)
    instance = Instance(Topology(nodes=(node,), links=(), device_gateways={0: 0}), tasks)
    assignment = build_assignment(tasks, {0: 0})
    b = response_breakdown(instance, assignment, 0)
    assert b.execution == 1000.0
    assert b.queue_wait == 0.0
    assert b.propagation == 0.0
    assert b.transmission == 0.0


def test_second_task_waits_for_first():
    tasks = simple_tasks([(500.0, 0.0, 100.0), (500.0, 0.0, 200.0)])
    instance = single_node_instance(tasks)
    assignment = build_assignment(tasks, {0: 0, 1: 0})
    first = response_breakdown(instance, assignment, 0)
    second = response_breakdown(instance, assignment, 1)
    assert first.queue_wait == 0.0
    assert second.queue_wait == first.execution == 500.0


def test_network_terms_on_line_topology():
    tasks = simple_tasks([(100.0, 200.0, 1000.0)])
    instance = line_instance(tasks, n_nodes=3, bandwidth=100.0, prop=1.0)
    assignment = build_assignment(tasks, {0: 2})  # two hops from gateway node 0
    b = response_breakdown(instance, assignment, 0)
    assert b.propagation == 2.0
    assert b.transmission == 2.0  # 200 kb / 100 kb per ms bottleneck


def test_response_breakdown_unknown_task():
    tasks = simple_tasks([(100.0, 0.0, 100.0)])
    instance = single_node_instance(tasks)
    assignment = build_assignment(tasks, {0: 0})
    with pytest.raises(ValueError, match="task 99: unknown id"):
        response_breakdown(instance, assignment, 99)


def test_response_breakdown_task_left_out_of_a_partial_assignment():
    tasks = simple_tasks([(100.0, 0.0, 100.0), (100.0, 0.0, 100.0)])
    instance = single_node_instance(tasks)
    assignment = build_assignment(tasks, {0: 0})
    with pytest.raises(ValueError, match="task 1: not in the assignment"):
        response_breakdown(instance, assignment, 1)


def test_node_energy_unknown_node():
    tasks = simple_tasks([(800.0, 0.0, 1e9)])
    instance = single_node_instance(tasks)
    assignment = build_assignment(tasks, {0: 0})
    with pytest.raises(ValueError, match="node 999: unknown id"):
        node_energy(instance, assignment, 999, horizon=2800.0)


def test_deadline_violation_clamp():
    b = ResponseBreakdown(0, 0.0, 0.0, 5.0, 0.0, 5.0)
    assert deadline_violation(b, 10.0) == 0.0
    b = ResponseBreakdown(0, 0.0, 0.0, 12.0, 0.0, 12.0)
    assert deadline_violation(b, 10.0) == 2.0
    assert deadline_violation(b, 12.0) == 0.0
    with pytest.raises(ValueError):
        deadline_violation(b, 0.0)


def test_total_deadline_violation_cases():
    tasks = simple_tasks([(500.0, 0.0, 1e9), (500.0, 0.0, 1e9)])
    instance = single_node_instance(tasks)
    assignment = build_assignment(tasks, {0: 0, 1: 0})
    assert total_deadline_violation(instance, assignment) == 0.0

    tasks = simple_tasks([(500.0, 0.0, 498.0)])  # R = 500, DV = 2
    instance = single_node_instance(tasks)
    assignment = build_assignment(tasks, {0: 0})
    assert total_deadline_violation(instance, assignment) == 2.0


def test_node_energy_unit_coefficients():
    # busy 800 ms at 100 J/s = 80 J active; idle 2000 ms at 10 J/s = 20 J
    tasks = simple_tasks([(800.0, 0.0, 1e9)])
    instance = single_node_instance(tasks)
    assignment = build_assignment(tasks, {0: 0})
    assert node_energy(instance, assignment, 0, horizon=2800.0) == pytest.approx(100.0)


def test_node_energy_zero_beta_idle_node():
    node = FogNode(id=0, mips=1000.0, active_power=100.0, idle_power=10.0, beta=0.0)
    instance = Instance(Topology(nodes=(node,), links=(), device_gateways={0: 0}),
                        simple_tasks([(100.0, 0.0, 100.0)]))
    empty = build_assignment(instance.tasks, {})
    assert node_energy(instance, empty, 0, horizon=500.0) == 0.0


def test_node_energy_alpha_linearity():
    node = FogNode(id=0, mips=1000.0, active_power=100.0, idle_power=10.0, alpha=2.0, beta=0.0)
    tasks = simple_tasks([(500.0, 0.0, 1e9)])
    instance = Instance(Topology(nodes=(node,), links=(), device_gateways={0: 0}), tasks)
    assignment = build_assignment(tasks, {0: 0})
    # alpha=1 would give 50 J
    assert node_energy(instance, assignment, 0, horizon=500.0) == pytest.approx(100.0)


def test_node_energy_horizon_too_short():
    tasks = simple_tasks([(800.0, 0.0, 1e9)])
    instance = single_node_instance(tasks)
    assignment = build_assignment(tasks, {0: 0})
    with pytest.raises(ValueError):
        node_energy(instance, assignment, 0, horizon=100.0)


def test_total_energy_matches_oracle(small_instance, unit_weights):
    mapping = {t.id: t.id % 3 for t in small_instance.tasks}
    assignment = build_assignment(small_instance.tasks, mapping)
    report = evaluate(small_instance, assignment, unit_weights)
    expected = brute_force_report(small_instance, mapping, unit_weights)
    assert total_energy(small_instance, assignment, report.response_max) == pytest.approx(
        expected["energy_total"]
    )


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_total_energy_equals_report_energy_exactly(seed):
    instance = make_instance(200, 20, seed=seed)
    rng = np.random.default_rng(seed)
    mapping = {t.id: int(rng.integers(0, 20)) for t in instance.tasks}
    assignment = build_assignment(instance.tasks, mapping)
    report = evaluate(instance, assignment, FitnessWeights())
    assert total_energy(instance, assignment, report.response_max) == report.energy_total
    for node_id, energy in report.energy_per_node[:3]:
        assert node_energy(instance, assignment, node_id, report.response_max) == energy


@pytest.mark.parametrize("n_tasks", [200, 600])
def test_evaluate_equals_oracle_at_scale(n_tasks):
    # long task lists: numpy's pairwise sums would differ from the oracle's
    # sequential += loops in the last bits
    weights = FitnessWeights(norm_response=3.0, norm_deadline=5.0, norm_energy=7.0)
    for seed in range(3):
        instance = make_instance(n_tasks, 20, seed=seed)
        rng = np.random.default_rng(seed)
        mapping = {t.id: int(rng.integers(0, 20)) for t in instance.tasks}
        report = evaluate(instance, build_assignment(instance.tasks, mapping), weights)
        expected = brute_force_report(instance, mapping, weights)
        task_ids = sorted(mapping)
        assert [b.task_id for b in report.per_task] == task_ids
        assert [
            (b.propagation, b.transmission, b.execution, b.queue_wait) for b in report.per_task
        ] == [expected["breakdown"][t] for t in task_ids]
        assert [b.response for b in report.per_task] == [expected["response"][t] for t in task_ids]
        assert list(report.dv_per_task) == [expected["dv"][t] for t in task_ids]
        assert dict(report.energy_per_node) == expected["energy"]
        for key in ("dv_total", "response_total", "response_max", "energy_total", "fitness"):
            assert getattr(report, key) == expected[key], key


def test_queue_waits_follow_a_hand_built_order(unit_weights):
    # execution times 100, 200, 300 ms; EDF would serve 0, 1, 2
    tasks = simple_tasks([(100.0, 0.0, 100.0), (200.0, 0.0, 200.0), (300.0, 0.0, 300.0)])
    instance = single_node_instance(tasks)
    assignment = Assignment(mapping={0: 0, 1: 0, 2: 0}, order={0: (2, 0, 1)})
    report = evaluate(instance, assignment, unit_weights)
    assert [b.queue_wait for b in report.per_task] == [300.0, 400.0, 0.0]
    assert [b.response for b in report.per_task] == [400.0, 600.0, 300.0]
    assert report.dv_per_task == (300.0, 400.0, 0.0)
    assert response_breakdown(instance, assignment, 1).queue_wait == 400.0
    assert total_deadline_violation(instance, assignment) == 700.0


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_evaluate_follows_any_hand_built_order(data):
    # queue waits from the assignment's own per-node orders, against a
    # running busy time per node; the costs come from the oracle
    n_tasks = data.draw(st.integers(1, 15), label="n_tasks")
    n_nodes = data.draw(st.integers(1, 4), label="n_nodes")
    instance = make_instance(n_tasks, n_nodes, seed=data.draw(st.integers(0, 50), label="seed"))
    mapping = {t.id: data.draw(st.integers(0, n_nodes - 1)) for t in instance.tasks}
    order = {}
    for node_id in sorted(set(mapping.values())):
        queued = [t for t in sorted(mapping) if mapping[t] == node_id]
        order[node_id] = tuple(data.draw(st.permutations(queued), label=f"order {node_id}"))
    weights = FitnessWeights(norm_response=3.0, norm_deadline=5.0, norm_energy=7.0)
    report = evaluate(instance, Assignment(mapping=mapping, order=order), weights)

    expected = {}
    for node_id, queued in order.items():
        busy = 0.0
        for t in queued:
            prop, trans, execution, _ = brute_force_report(instance, {t: node_id}, weights)["breakdown"][t]
            expected[t] = (prop, trans, execution, busy, prop + trans + execution + busy)
            busy += execution
    assert [tuple(vars(b).values()) for b in report.per_task] == [(t, *expected[t]) for t in sorted(mapping)]
    deadlines = {t.id: t.deadline for t in instance.tasks}
    dv_total = response_total = 0.0
    for t in sorted(mapping):
        dv_total += max(0.0, expected[t][4] - deadlines[t])
        response_total += expected[t][4]
    assert (report.dv_total, report.response_total) == (dv_total, response_total)


def test_empty_assignment_reports_zeros(small_instance, unit_weights):
    report = evaluate(small_instance, Assignment(mapping={}, order={}), unit_weights)
    assert report.per_task == report.dv_per_task == ()
    assert report.energy_per_node == tuple((n.id, 0.0) for n in small_instance.topology.nodes)
    assert report.dv_total == report.energy_total == report.fitness == 0.0
    assert report.response_total == report.response_max == 0.0


def test_fitness_projection(small_instance):
    mapping = {t.id: 0 for t in small_instance.tasks}
    assignment = build_assignment(small_instance.tasks, mapping)
    dv_only = FitnessWeights(w_response=0.0, w_deadline=1.0, w_energy=0.0)
    assert fitness(small_instance, assignment, dv_only) == total_deadline_violation(
        small_instance, assignment
    )
    e_only = FitnessWeights(w_response=0.0, w_deadline=0.0, w_energy=1.0)
    report = evaluate(small_instance, assignment, e_only)
    assert report.fitness == pytest.approx(report.energy_total)


def test_fitness_weighted_sum_matches_hand_combination(small_instance, unit_weights):
    mapping = {t.id: (t.id + 1) % 3 for t in small_instance.tasks}
    assignment = build_assignment(small_instance.tasks, mapping)
    report = evaluate(small_instance, assignment, unit_weights)
    assert report.fitness == pytest.approx(
        report.response_total + report.dv_total + report.energy_total
    )


def test_weights_reject_all_zero():
    with pytest.raises(ValueError):
        FitnessWeights(w_response=0.0, w_deadline=0.0, w_energy=0.0)


@pytest.mark.parametrize("field", ["w_response", "w_deadline", "w_energy"])
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, -1.0])
def test_weights_reject_nonfinite_or_negative_weight(field, value):
    with pytest.raises(ValueError, match=field):
        FitnessWeights(**{field: value})


@pytest.mark.parametrize("field", ["norm_response", "norm_deadline", "norm_energy"])
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, 0.0, -1.0])
def test_weights_reject_nonfinite_or_nonpositive_norm(field, value):
    with pytest.raises(ValueError, match=field):
        FitnessWeights(**{field: value})


def test_evaluation_deterministic(small_instance, unit_weights):
    mapping = {t.id: t.id % 3 for t in small_instance.tasks}
    assignment = build_assignment(small_instance.tasks, mapping)
    a = evaluate(small_instance, assignment, unit_weights)
    b = evaluate(small_instance, assignment, unit_weights)
    assert a == b
    assert math.isfinite(a.fitness) and a.fitness >= 0.0


def test_report_invariants(small_instance, unit_weights):
    mapping = {t.id: t.id % 3 for t in small_instance.tasks}
    assignment = build_assignment(small_instance.tasks, mapping)
    report = evaluate(small_instance, assignment, unit_weights)
    assert report.dv_total == pytest.approx(sum(report.dv_per_task))
    assert report.energy_total == pytest.approx(sum(e for _, e in report.energy_per_node))
    assert all(dv >= 0 for dv in report.dv_per_task)
    # conservation: per-node busy time equals per-task execution time
    per_node_busy = {}
    for b in report.per_task:
        per_node_busy[mapping[b.task_id]] = per_node_busy.get(mapping[b.task_id], 0.0) + b.execution
    assert sum(per_node_busy.values()) == pytest.approx(sum(b.execution for b in report.per_task))


@settings(max_examples=25, deadline=None)
@given(bump=st.floats(min_value=0.1, max_value=1e6), task_pick=st.integers(0, 5))
def test_raising_a_deadline_never_raises_dv(bump, task_pick):
    instance = make_instance(6, 3, seed=11)
    mapping = {t.id: t.id % 3 for t in instance.tasks}
    assignment = build_assignment(instance.tasks, mapping)
    base = total_deadline_violation(instance, assignment)

    from fogsched import Task

    raised = [
        Task(t.id, t.length, t.data_size, t.deadline + (bump if t.id == task_pick else 0.0),
             t.arrival_time, t.source_device)
        for t in instance.tasks
    ]
    instance2 = Instance(instance.topology, raised)
    # per-node order can change when a deadline moves; keep the same order to
    # isolate the clamp monotonicity
    assignment2 = build_assignment(instance.tasks, mapping)
    after = total_deadline_violation(instance2, assignment2)
    assert after <= base + 1e-9


def test_idle_extra_node_changes_neither_response_nor_dv(unit_weights):
    tasks = simple_tasks([(500.0, 0.0, 400.0), (300.0, 0.0, 600.0)])
    instance = single_node_instance(tasks)
    assignment = build_assignment(tasks, {0: 0, 1: 0})
    base = evaluate(instance, assignment, unit_weights)

    from fogsched import Link

    extra = FogNode(id=1, mips=2000.0, active_power=100.0, idle_power=10.0, beta=0.0)
    topology = Topology(
        nodes=(instance.topology.nodes[0], extra),
        links=(Link(endpoints=(0, 1), bandwidth=100.0, propagation_delay=1.0, traffic_load=0.1),),
        device_gateways=instance.topology.device_gateways,
    )
    bigger = evaluate(Instance(topology, tasks), assignment, unit_weights)
    assert bigger.response_total == base.response_total
    assert bigger.dv_total == base.dv_total


def test_calibrated_weights_normalize(small_instance):
    weights = calibrate_weights(small_instance, seed=5)
    assert weights.norm_response > 0
    assert weights.norm_energy > 0
    assert weights.norm_deadline > 0


def test_report_serialization(small_instance, unit_weights, tmp_path):
    mapping = {t.id: 0 for t in small_instance.tasks}
    assignment = build_assignment(small_instance.tasks, mapping)
    report = evaluate(small_instance, assignment, unit_weights)
    row = report.csv_row()
    assert set(row) == {"dv_total", "energy_total", "response_total", "fitness"}
    import json

    doc = json.loads(report.to_json())
    assert len(doc["per_task"]) == small_instance.n_tasks
    assert doc["dv_total"] == report.dv_total


def test_instance_declares_evaluator_cache(small_instance):
    assert small_instance._evaluator_cache is None
    evaluator = metrics._evaluator(small_instance)
    assert small_instance._evaluator_cache is evaluator
    assert metrics._evaluator(small_instance) is evaluator


def _three_huge_tasks():
    """8 x 4, three task lengths of 1e308: finite tables and response
    times, but a node's busy time times its active power overflows."""
    instance = make_instance(8, 4, seed=0)
    tasks = [replace(t, length=1e308) if t.id < 3 else t for t in instance.tasks]
    return Instance(instance.topology, tasks)


def test_report_names_the_node_whose_energy_overflows():
    instance = _three_huge_tasks()
    mapping = {t.id: 0 if t.id < 3 else 1 for t in instance.tasks}
    node = instance.topology.nodes[0].id
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=f"^energy of node {node} overflowed float range$"):
            evaluate(instance, build_assignment(instance.tasks, mapping), FitnessWeights())


def test_report_names_the_total_that_overflows():
    # two 1.5e308 ms executions queue on one node: the second response
    # and the response total are infinite
    tasks = simple_tasks([(1.5e308, 0.0, 100.0), (1.5e308, 0.0, 100.0)])
    instance = single_node_instance(tasks)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="^response_total overflowed float range$"):
            evaluate(instance, build_assignment(tasks, {0: 0, 1: 0}), FitnessWeights())
        with pytest.raises(ValueError, match="^fitness overflowed float range$"):
            small = single_node_instance(simple_tasks([(1e300, 0.0, 100.0)]))
            evaluate(small, build_assignment(small.tasks, {0: 0}), FitnessWeights(w_response=1e308))


def test_evaluator_names_an_execution_time_that_overflows():
    tasks = simple_tasks([(100.0, 0.0, 100.0), (1e308, 0.0, 100.0)])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="^execution time of task 1 on node 0 overflowed"):
            metrics.Evaluator(line_instance(tasks, n_nodes=2, mips=1e-3))


def test_evaluator_names_a_propagation_delay_that_overflows():
    # two 1e308 ms links in a line: node 2 is reached, but its path's delay
    # sums beyond float range, which is not a missing route
    instance = line_instance(simple_tasks([(1000.0, 1.0, 500.0)] * 3), prop=1e308)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(
            ValueError, match="^propagation delay from gateway 0 to node 2 overflowed float range$"
        ):
            evaluate(instance, build_assignment(instance.tasks, {0: 0, 1: 1, 2: 2}), FitnessWeights())
