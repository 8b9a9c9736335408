import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fogsched import (
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
    with pytest.raises(KeyError):
        response_breakdown(instance, assignment, 99)


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
