import json

import pytest

from fogsched import (
    FogNode,
    IgeoParams,
    Instance,
    Link,
    RlConfig,
    Topology,
    classify_nodes,
    igeo_optimize,
    partition_tasks,
    reclassify,
    rigeo_schedule,
)
from fogsched.model import validate_assignment

from conftest import line_instance, make_instance, simple_tasks


def _line_topology(traffics, n_nodes=None):
    n_nodes = n_nodes or len(traffics) + 1
    nodes = tuple(
        FogNode(id=j, mips=1000.0, active_power=100.0, idle_power=10.0)
        for j in range(n_nodes)
    )
    links = tuple(
        Link(endpoints=(j, j + 1), bandwidth=100.0, propagation_delay=1.0, traffic_load=traffics[j])
        for j in range(n_nodes - 1)
    )
    return Topology(nodes=nodes, links=links, device_gateways={0: 0})


def test_classify_nodes_mean_split():
    # node traffics are 10, (10+30)/2 = 20, 30; average 20
    topology = _line_topology([10.0, 30.0])
    c = classify_nodes(topology)
    assert c.node_traffic == {0: 10.0, 1: 20.0, 2: 30.0}
    assert c.average_traffic == 20.0
    assert c.low_traffic_nodes == {0}
    assert c.high_traffic_nodes == {1, 2}


def test_classify_nodes_all_equal_traffic():
    topology = _line_topology([0.5, 0.5])
    c = classify_nodes(topology)
    assert c.low_traffic_nodes == frozenset()
    assert c.high_traffic_nodes == {0, 1, 2}


def test_classify_single_node():
    node = FogNode(id=0, mips=1000.0, active_power=100.0, idle_power=10.0)
    c = classify_nodes(Topology(nodes=(node,), links=(), device_gateways={}))
    assert c.high_traffic_nodes == {0}
    assert c.low_traffic_nodes == frozenset()


def test_classify_isolated_node_is_low_traffic():
    nodes = tuple(FogNode(id=j, mips=1000.0, active_power=100.0, idle_power=10.0) for j in range(3))
    links = (Link(endpoints=(0, 1), bandwidth=100.0, propagation_delay=1.0, traffic_load=0.8),)
    c = classify_nodes(Topology(nodes=nodes, links=links, device_gateways={}))
    assert 2 in c.low_traffic_nodes  # linkless node carries traffic 0


def test_reclassify_idempotent_and_epoch():
    topology = _line_topology([10.0, 30.0])
    c0 = classify_nodes(topology)
    c1 = reclassify(c0, topology)
    assert c1.low_traffic_nodes == c0.low_traffic_nodes
    assert c1.high_traffic_nodes == c0.high_traffic_nodes
    assert c1.computed_at == c0.computed_at + 1


def test_reclassify_traffic_shift():
    before = classify_nodes(_line_topology([10.0, 30.0]))
    assert 0 in before.low_traffic_nodes
    # raising the first link's traffic far above the rest moves node 0 high:
    # node traffics become 100, 65, 30 with average 65
    after = reclassify(before, _line_topology([100.0, 30.0]))
    assert 0 in after.high_traffic_nodes
    assert 2 in after.low_traffic_nodes


def test_reclassify_zero_traffic_boundary():
    c = classify_nodes(_line_topology([0.0, 0.0]))
    assert c.low_traffic_nodes == frozenset()


def test_partition_tasks_mean():
    tasks = simple_tasks([(100.0, 0.0, 100.0), (100.0, 0.0, 200.0), (100.0, 0.0, 300.0)])
    p = partition_tasks(tasks)
    assert p.deadline_threshold == 200.0
    assert p.low_deadline_tasks == {0}
    assert p.high_deadline_tasks == {1, 2}


def test_partition_tasks_all_equal():
    tasks = simple_tasks([(100.0, 0.0, 150.0)] * 4)
    p = partition_tasks(tasks)
    assert p.low_deadline_tasks == frozenset()


def test_partition_tasks_explicit_threshold():
    tasks = simple_tasks([(100.0, 0.0, 100.0), (100.0, 0.0, 900.0)])
    p = partition_tasks(tasks, threshold_policy=1e9)
    assert p.low_deadline_tasks == {0, 1}
    with pytest.raises(ValueError):
        partition_tasks([])


def _routing_instance():
    """4 nodes in a line, nodes {0,1} low traffic and {2,3} high traffic;
    3 tight-deadline and 3 relaxed-deadline tasks."""
    nodes = tuple(
        FogNode(id=j, mips=1000.0, active_power=100.0, idle_power=10.0) for j in range(4)
    )
    links = (
        Link(endpoints=(0, 1), bandwidth=100.0, propagation_delay=1.0, traffic_load=0.1),
        Link(endpoints=(1, 2), bandwidth=100.0, propagation_delay=1.0, traffic_load=0.4),
        Link(endpoints=(2, 3), bandwidth=100.0, propagation_delay=1.0, traffic_load=0.9),
    )
    tasks = simple_tasks(
        [(200.0, 10.0, 100.0)] * 3 + [(200.0, 10.0, 900.0)] * 3
    )
    gateways = {t.source_device: 0 for t in tasks}
    return Instance(Topology(nodes=nodes, links=links, device_gateways=gateways), tasks)


def test_rigeo_respects_class_routing(unit_weights):
    instance = _routing_instance()
    classification = classify_nodes(instance.topology)
    assert classification.low_traffic_nodes == {0, 1}
    assert classification.high_traffic_nodes == {2, 3}

    assignment, report = rigeo_schedule(
        instance,
        IgeoParams(population_size=6, iterations=20, rng_seed=1),
        RlConfig(episodes=100, rng_seed=1),
        unit_weights,
    )
    assert sorted(assignment.mapping) == [0, 1, 2, 3, 4, 5]
    for task_id in (0, 1, 2):
        assert assignment.mapping[task_id] in {0, 1}
    for task_id in (3, 4, 5):
        assert assignment.mapping[task_id] in {2, 3}
    assert validate_assignment(instance, assignment).ok
    assert report.fitness >= 0


def test_rigeo_all_low_deadline_equals_igeo(unit_weights):
    instance = _routing_instance()
    params = IgeoParams(population_size=6, iterations=25, rng_seed=3)
    assignment, _ = rigeo_schedule(
        instance, params, RlConfig(rng_seed=3), unit_weights, threshold_policy=1e9
    )
    direct, _ = igeo_optimize(instance, [0, 1], [0, 1, 2, 3, 4, 5], params, unit_weights)
    assert assignment.mapping == direct.mapping


def test_rigeo_fallback_when_class_empty(unit_weights):
    tasks = simple_tasks([(200.0, 10.0, 100.0), (200.0, 10.0, 900.0)])
    instance = line_instance(tasks, n_nodes=3, traffic=[0.5, 0.5])  # all equal: low empty
    assignment, _ = rigeo_schedule(
        instance,
        IgeoParams(population_size=4, iterations=10, rng_seed=0),
        RlConfig(episodes=20, rng_seed=0),
        unit_weights,
    )
    assert set(assignment.mapping) == {0, 1}
    assert all(node in {0, 1, 2} for node in assignment.mapping.values())


def test_rigeo_deterministic(unit_weights):
    instance = make_instance(10, 4, seed=21)
    args = (
        IgeoParams(population_size=5, iterations=15, rng_seed=4),
        RlConfig(episodes=50, rng_seed=4),
        unit_weights,
    )
    a1, r1 = rigeo_schedule(instance, *args)
    a2, r2 = rigeo_schedule(instance, *args)
    assert a1.mapping == a2.mapping
    assert r1.fitness == r2.fitness


def test_rigeo_summary_json(tmp_path, unit_weights):
    instance = _routing_instance()
    path = tmp_path / "summary.json"
    rigeo_schedule(
        instance,
        IgeoParams(population_size=4, iterations=10, rng_seed=0),
        RlConfig(episodes=20, rng_seed=0),
        unit_weights,
        summary_path=path,
    )
    doc = json.loads(path.read_text())
    assert doc["traffic"]["low_traffic_nodes"] == [0, 1]
    assert doc["deadline"]["low_deadline_tasks"] == [0, 1, 2]
    assert doc["subproblem_fitness"]["igeo"] is not None
    assert doc["merged_metrics"]["fitness"] >= 0
    halves = doc["halves"]
    assert halves["igeo"]["dv_total"] + halves["rl"]["dv_total"] == pytest.approx(
        doc["merged_metrics"]["dv_total"]
    )
    assert halves["igeo"]["response_total"] + halves["rl"]["response_total"] == pytest.approx(
        doc["merged_metrics"]["response_total"]
    )
    for half, tasks, nodes in (("igeo", "low_deadline_tasks", "low_traffic_nodes"),
                               ("rl", "high_deadline_tasks", "high_traffic_nodes")):
        assert halves[half]["task_count"] == len(doc["deadline"][tasks])
        assert halves[half]["nodes"]
        assert set(halves[half]["nodes"]) <= set(doc["traffic"][nodes])
