"""Library-built inputs: a topology and task list made in Python, with one
value replaced, meet the same rules as a scenario file.  ``validate_instance``
reports the fault by item, and ``evaluate``, ``calibrate_weights``, every
optimizer, ``rigeo_schedule`` and both baselines return finite numbers or raise
a ValueError naming it.  The arguments beside the instance (an optimizer's
task and candidate ids, an evaluated order, a seed) are refused by name too."""

import math
import re
from dataclasses import fields, replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fogsched import (
    Assignment,
    FitnessWeights,
    FogNode,
    GeoParams,
    IgeoParams,
    Instance,
    Link,
    RlConfig,
    ScenarioConfig,
    Task,
    baseline_greedy,
    baseline_random,
    build_assignment,
    calibrate_weights,
    evaluate,
    generate_scenario,
    geo_optimize,
    igeo_optimize,
    rigeo_schedule,
    rl_optimize,
    validate_instance,
)
from fogsched.metrics import Evaluator

# 4 tasks on 3 nodes joined in a triangle, so one changed link leaves the graph connected
TOPOLOGY, TASKS = generate_scenario(ScenarioConfig(n_tasks=4, n_nodes=3, rng_seed=1))
WEIGHTS = FitnessWeights()
GRAPH_WIDE = ("task ids must be unique and contiguous from 0", "topology: node graph is not connected")

# a wrong type, an unhashable value, a bool, NaN, inf or 1e308; an id of another
# task or node repeats it, and 999 names no node or device
VALUES = st.sampled_from([
    None, "1", [1], {}, True, False, math.nan, math.inf, -math.inf, 1e308, -1e308, -1.0, 0.0,
    0, 1, 2, 999,
])


def _replace_one(data):
    """The instance with one value replaced, and the texts that name its item."""
    topology, tasks = TOPOLOGY, list(TASKS)
    section = data.draw(st.sampled_from(["tasks", "nodes", "links", "device_gateways"]), label="section")
    value = data.draw(VALUES, label="value")
    if section == "device_gateways":
        device = data.draw(st.sampled_from(sorted(topology.device_gateways)), label="device")
        gateways = {**topology.device_gateways, device: value}
        return replace(topology, device_gateways=gateways), tasks, [f"device {device}:"]
    cls = {"tasks": Task, "nodes": FogNode, "links": Link}[section]
    items = list(tasks if section == "tasks" else getattr(topology, section))
    i = data.draw(st.integers(0, len(items) - 1), label="index")
    name = data.draw(st.sampled_from([f.name for f in fields(cls)]), label="field")
    old = items[i]
    if name == "endpoints":  # one end replaced
        end = data.draw(st.integers(0, 1), label="end")
        value = (value, old.endpoints[1]) if end == 0 else (old.endpoints[0], value)
    items[i] = new = replace(old, **{name: value})
    if section == "tasks":
        return topology, items, [f"task {new.id}:"]
    if section == "links":
        return replace(topology, links=tuple(items)), tasks, [f"link {new.endpoints}:"]
    # a node whose id changes leaves its links and gateways naming the old id
    names = [f"node {new.id}:", f"dangling endpoint {old.id}", f"gateway {old.id} names no node"]
    return replace(topology, nodes=tuple(items)), tasks, names


def _runs(instance):
    """(name, call) of each entry point; a call returns (assignment, fitness)."""
    nodes, task_ids = [n.id for n in instance.topology.nodes], [t.id for t in instance.tasks]
    geo, igeo = GeoParams(population_size=2, iterations=2), IgeoParams(population_size=2, iterations=2)
    rl = RlConfig(episodes=3)
    # evaluate reads only the order, so no id is hashed before the evaluator checks it
    every_task_on_node_0 = Assignment(mapping={}, order={0: tuple(task_ids)})
    return [
        ("evaluate", lambda: (None, evaluate(instance, every_task_on_node_0, WEIGHTS).fitness)),
        ("calibrate_weights", lambda: (None, calibrate_weights(instance).norm_response)),
        ("geo_optimize", lambda: geo_optimize(instance, nodes, task_ids, geo, WEIGHTS)),
        ("igeo_optimize", lambda: igeo_optimize(instance, nodes, task_ids, igeo, WEIGHTS)),
        ("rl_optimize", lambda: rl_optimize(instance, nodes, task_ids, rl, WEIGHTS)),
        ("rigeo_schedule", lambda: (None, rigeo_schedule(instance, igeo, rl, WEIGHTS)[1].fitness)),
        ("baseline_random", lambda: baseline_random(instance, 0, WEIGHTS)),
        ("baseline_greedy", lambda: baseline_greedy(instance, WEIGHTS)),
    ]


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_library_built_instance_with_one_bad_value_raises_by_item_or_runs(data):
    topology, tasks, names = _replace_one(data)
    violations = validate_instance(topology, tasks).violations
    item_faults = [v for v in violations if v not in GRAPH_WIDE]
    instance = Instance(topology, tasks)
    try:
        Evaluator(instance)
    except ValueError as exc:
        # the evaluator's check is validate_instance's, word for word
        assert str(exc) == "; ".join(item_faults)
    else:
        assert not item_faults
    for name, run in _runs(instance):
        try:
            assignment, fitness = run()
        except ValueError as exc:
            if item_faults:
                assert any(text in str(exc) for text in names), (name, str(exc))
            else:  # a value every rule accepts may still overflow a total, which the report names
                assert str(exc).endswith("overflowed float range"), (name, str(exc))
            continue
        assert not item_faults, name
        if not math.isfinite(fitness):  # an optimizer ranks an overflowed fitness last
            try:
                evaluate(instance, assignment, WEIGHTS)
            except ValueError as exc:
                assert str(exc).endswith("overflowed float range"), (name, str(exc))
            else:
                raise AssertionError(f"{name}: fitness {fitness}, but its report is finite")


INSTANCE = Instance(TOPOLOGY, TASKS)
NODES, TASK_IDS = [n.id for n in TOPOLOGY.nodes], [t.id for t in TASKS]
OPTIMIZERS = {
    "geo_optimize": lambda nodes, tasks: geo_optimize(
        INSTANCE, nodes, tasks, GeoParams(population_size=2, iterations=2), WEIGHTS),
    "igeo_optimize": lambda nodes, tasks: igeo_optimize(
        INSTANCE, nodes, tasks, IgeoParams(population_size=2, iterations=2), WEIGHTS),
    "rl_optimize": lambda nodes, tasks: rl_optimize(INSTANCE, nodes, tasks, RlConfig(episodes=3), WEIGHTS),
}


@pytest.mark.parametrize("optimizer", sorted(OPTIMIZERS))
@pytest.mark.parametrize("nodes,tasks,fault", [
    (NODES, [0, 0], "task 0: duplicate id"),
    (NODES, [0, 999], "task 999: unknown id"),
    ([0, 1, 1], TASK_IDS, "candidate node 1: duplicate id"),
    ([0, 999], TASK_IDS, "candidate node 999: unknown id"),
], ids=["task-repeated", "task-unknown", "candidate-repeated", "candidate-unknown"])
def test_optimizers_refuse_a_repeated_or_unknown_id_by_name(optimizer, nodes, tasks, fault):
    # a repeated task would be scored twice, and an unknown one raised a bare KeyError
    with pytest.raises(ValueError, match=f"^{re.escape(fault)}$"):
        OPTIMIZERS[optimizer](nodes, tasks)


@pytest.mark.parametrize("order,fault", [
    ({0: (0, 3, 0), 1: (1,), 2: (2,)}, "task 0: duplicate id"),
    ({0: (0,), 1: (1, 0)}, "task 0: duplicate id"),
    ({0: (0, 999)}, "task 999: unknown id"),
    ({0: (0,), 999: (1,)}, "node 999: unknown id"),
], ids=["repeated-on-one-node", "repeated-across-nodes", "unknown-task", "unknown-node"])
def test_evaluate_refuses_a_repeated_or_unknown_id_in_the_order(order, fault):
    mapping = {t: node for node, sequence in order.items() for t in sequence}
    with pytest.raises(ValueError, match=f"^{re.escape(fault)}$"):
        evaluate(INSTANCE, Assignment(mapping=mapping, order=order), WEIGHTS)


def test_evaluate_takes_a_partial_order():
    # RIGEO's halves are partial assignments; a task left out is no fault
    part = build_assignment(TASKS, {0: 0, 2: 1})
    assert [b.task_id for b in evaluate(INSTANCE, part, WEIGHTS).per_task] == [0, 2]


@pytest.mark.parametrize("seed,fault", [
    (-1, "seed must be >= 0"),
    (1.5, "seed must be an integer, got 1.5"),
    (True, "seed must be an integer, got True"),
])
@pytest.mark.parametrize("call", [
    lambda seed: calibrate_weights(INSTANCE, seed=seed),
    lambda seed: baseline_random(INSTANCE, seed, WEIGHTS),
], ids=["calibrate_weights", "baseline_random"])
def test_random_draws_refuse_a_seed_by_the_scenario_seed_rule(call, seed, fault):
    with pytest.raises(ValueError, match=f"^{re.escape(fault)}$"):
        call(seed)
