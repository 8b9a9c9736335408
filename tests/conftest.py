import pytest

from fogsched import (
    FitnessWeights,
    FogNode,
    Instance,
    Link,
    ScenarioConfig,
    Task,
    Topology,
    generate_scenario,
)


def make_instance(n_tasks, n_nodes, seed):
    config = ScenarioConfig(n_tasks=n_tasks, n_nodes=n_nodes, rng_seed=seed)
    topology, tasks = generate_scenario(config)
    return Instance(topology, tasks)


def single_node_instance(tasks):
    """One node, every device attached directly to it: no network delays."""
    node = FogNode(id=0, mips=1000.0, active_power=100.0, idle_power=10.0)
    gateways = {t.source_device: 0 for t in tasks}
    topology = Topology(nodes=(node,), links=(), device_gateways=gateways)
    return Instance(topology, tasks)


def line_instance(tasks, n_nodes=3, mips=1000.0, bandwidth=100.0, prop=1.0, traffic=None):
    """Nodes 0-1-2-... in a line; all devices enter at node 0."""
    nodes = tuple(
        FogNode(id=j, mips=mips, active_power=100.0, idle_power=10.0)
        for j in range(n_nodes)
    )
    links = tuple(
        Link(
            endpoints=(j, j + 1),
            bandwidth=bandwidth,
            propagation_delay=prop,
            traffic_load=traffic[j] if traffic else 0.5,
        )
        for j in range(n_nodes - 1)
    )
    gateways = {t.source_device: 0 for t in tasks}
    topology = Topology(nodes=nodes, links=links, device_gateways=gateways)
    return Instance(topology, tasks)


def simple_tasks(specs):
    """specs: iterable of (length, data_size, deadline) triples."""
    return [
        Task(id=i, length=length, data_size=data, deadline=deadline,
             arrival_time=0.0, source_device=i)
        for i, (length, data, deadline) in enumerate(specs)
    ]


@pytest.fixture
def unit_weights():
    return FitnessWeights()


@pytest.fixture
def small_instance():
    return make_instance(6, 3, seed=7)


def unlinked_instance(tasks):
    """Two nodes with no link between them; every device enters at node 0,
    so node 1 is unreachable."""
    nodes = tuple(
        FogNode(id=j, mips=1000.0, active_power=100.0, idle_power=10.0) for j in range(2)
    )
    gateways = {t.source_device: 0 for t in tasks}
    return Instance(Topology(nodes=nodes, links=(), device_gateways=gateways), tasks)
