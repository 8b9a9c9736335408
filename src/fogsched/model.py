"""Problem-instance data model: tasks, fog nodes, topology, assignments,
scenario generation and the scenario JSON file format."""

from __future__ import annotations

import json
from dataclasses import dataclass, field, asdict
from typing import Iterable, Mapping, Sequence

import numpy as np

__all__ = [
    "Task",
    "FogNode",
    "Link",
    "Topology",
    "Assignment",
    "ScenarioConfig",
    "Instance",
    "ValidationResult",
    "validate_instance",
    "generate_scenario",
    "build_assignment",
    "merge_assignments",
    "save_scenario",
    "load_scenario",
    "scenario_to_dict",
    "scenario_from_dict",
]


@dataclass(frozen=True)
class Task:
    """A unit of IoT work."""

    id: int
    length: float  # mega-instructions
    data_size: float  # kilobits
    deadline: float  # milliseconds
    arrival_time: float  # milliseconds
    source_device: int


@dataclass(frozen=True)
class FogNode:
    """A processing node."""

    id: int
    mips: float  # million instructions per second
    active_power: float  # joules per second while executing
    idle_power: float  # joules per second while idle
    alpha: float = 1.0
    beta: float = 1.0


@dataclass(frozen=True)
class Link:
    """A network link between two fog nodes."""

    endpoints: tuple  # (node_id, node_id)
    bandwidth: float  # kilobits per millisecond
    propagation_delay: float  # milliseconds
    traffic_load: float  # dimensionless utilization


@dataclass(frozen=True)
class Topology:
    nodes: tuple
    links: tuple
    device_gateways: Mapping[int, int] = field(default_factory=dict)

    def node_ids(self) -> list:
        return [node.id for node in self.nodes]


@dataclass
class Assignment:
    """A task-to-node mapping plus per-node execution order.

    ``mapping`` maps task id -> node id; ``order`` maps node id -> the
    execution sequence (task ids) of the tasks placed on that node.  A full
    assignment covers every task of an instance; sub-optimizers produce
    assignments restricted to their task subset.
    """

    mapping: dict
    order: dict

    def task_ids(self) -> list:
        return sorted(self.mapping)


@dataclass(frozen=True)
class ScenarioConfig:
    n_tasks: int = 200
    n_nodes: int = 20
    mips_range: tuple = (2000.0, 6000.0)
    active_power_range: tuple = (80.0, 200.0)
    deadline_range: tuple = (50.0, 500.0)
    task_length_range: tuple = (100.0, 1000.0)
    data_size_range: tuple = (10.0, 500.0)
    traffic_range: tuple = (0.0, 1.0)
    bandwidth_range: tuple = (500.0, 1000.0)
    propagation_range: tuple = (0.1, 2.0)
    rng_seed: int = 0

    def validate(self) -> list:
        problems = []
        if self.n_tasks <= 0:
            problems.append("n_tasks must be > 0")
        if self.n_nodes <= 0:
            problems.append("n_nodes must be > 0")
        for name in (
            "mips_range",
            "active_power_range",
            "deadline_range",
            "task_length_range",
            "data_size_range",
            "traffic_range",
            "bandwidth_range",
            "propagation_range",
        ):
            lo, hi = getattr(self, name)
            if lo > hi:
                problems.append(f"{name} must satisfy min <= max")
        return problems


class Instance:
    """A topology plus its task batch; the shared read-only input of every
    optimizer and metric evaluation."""

    def __init__(self, topology: Topology, tasks: Sequence[Task]):
        self.topology = topology
        self.tasks = tuple(tasks)
        self._task_by_id = {t.id: t for t in self.tasks}
        self._node_by_id = {n.id: n for n in topology.nodes}

    @property
    def n_tasks(self) -> int:
        return len(self.tasks)

    @property
    def n_nodes(self) -> int:
        return len(self.topology.nodes)

    def task(self, task_id: int) -> Task:
        return self._task_by_id[task_id]

    def node(self, node_id: int) -> FogNode:
        return self._node_by_id[node_id]

    def gateway_of(self, task: Task) -> int:
        return self.topology.device_gateways[task.source_device]


@dataclass(frozen=True)
class ValidationResult:
    ok: bool
    violations: tuple

    def __bool__(self) -> bool:
        return self.ok


def validate_instance(topology: Topology, tasks: Sequence[Task]) -> ValidationResult:
    """Check every structural invariant; violations are data, not failures."""
    violations = []

    ids = [t.id for t in tasks]
    if sorted(ids) != list(range(len(tasks))):
        violations.append("task ids must be unique and contiguous from 0")
    for t in tasks:
        if t.length <= 0:
            violations.append(f"task {t.id}: length > 0 violated")
        if t.data_size < 0:
            violations.append(f"task {t.id}: data_size >= 0 violated")
        if t.deadline <= 0:
            violations.append(f"task {t.id}: deadline > 0 violated")
        if t.arrival_time < 0:
            violations.append(f"task {t.id}: arrival_time >= 0 violated")

    node_ids = set()
    for node in topology.nodes:
        if node.id in node_ids:
            violations.append(f"node {node.id}: duplicate id")
        node_ids.add(node.id)
        if node.mips <= 0:
            violations.append(f"node {node.id}: mips > 0 violated")
        if not (node.active_power >= node.idle_power >= 0):
            violations.append(
                f"node {node.id}: active_power >= idle_power >= 0 violated"
            )
        if node.alpha < 0 or node.beta < 0:
            violations.append(f"node {node.id}: alpha, beta >= 0 violated")

    gateway_nodes = set(topology.device_gateways.values())
    for gw in gateway_nodes:
        if gw not in node_ids:
            violations.append(f"gateway node {gw}: dangling endpoint")

    for link in topology.links:
        a, b = link.endpoints
        if a == b:
            violations.append(f"link {link.endpoints}: endpoints must be distinct")
        for end in link.endpoints:
            if end not in node_ids:
                violations.append(f"link {link.endpoints}: dangling endpoint {end}")
        if link.bandwidth <= 0:
            violations.append(f"link {link.endpoints}: bandwidth > 0 violated")
        if link.propagation_delay < 0:
            violations.append(f"link {link.endpoints}: propagation_delay >= 0 violated")
        if link.traffic_load < 0:
            violations.append(f"link {link.endpoints}: traffic_load >= 0 violated")

    for t in tasks:
        if t.source_device not in topology.device_gateways:
            violations.append(f"task {t.id}: unknown source device {t.source_device}")

    if topology.nodes and not _is_connected(topology):
        violations.append("topology: node graph is not connected")

    return ValidationResult(ok=not violations, violations=tuple(violations))


def _is_connected(topology: Topology) -> bool:
    adjacency = {node.id: set() for node in topology.nodes}
    for link in topology.links:
        a, b = link.endpoints
        if a in adjacency and b in adjacency:
            adjacency[a].add(b)
            adjacency[b].add(a)
    start = topology.nodes[0].id
    seen = {start}
    stack = [start]
    while stack:
        current = stack.pop()
        for nxt in adjacency[current]:
            if nxt not in seen:
                seen.add(nxt)
                stack.append(nxt)
    return len(seen) == len(topology.nodes)


def generate_scenario(config: ScenarioConfig):
    """Build a seeded random instance; same seed gives a bit-identical one.

    The topology is a random spanning tree plus extra edges until the average
    node degree reaches 3, so multi-hop routing is always exercised.
    """
    problems = config.validate()
    if problems:
        raise ValueError("; ".join(problems))

    rng = np.random.default_rng(config.rng_seed)
    m = config.n_nodes

    nodes = tuple(
        FogNode(
            id=j,
            mips=float(rng.uniform(*config.mips_range)),
            active_power=(ap := float(rng.uniform(*config.active_power_range))),
            idle_power=float(ap * rng.uniform(0.1, 0.3)),
        )
        for j in range(m)
    )

    links = []
    edges = set()
    for j in range(1, m):
        other = int(rng.integers(0, j))
        edges.add((other, j))
    # average degree >= 3 means at least ceil(1.5 * m) edges
    target_edges = max(m - 1, -(-3 * m // 2)) if m > 1 else 0
    max_edges = m * (m - 1) // 2
    while len(edges) < min(target_edges, max_edges):
        a = int(rng.integers(0, m))
        b = int(rng.integers(0, m))
        if a == b:
            continue
        edges.add((min(a, b), max(a, b)))
    for a, b in sorted(edges):
        links.append(
            Link(
                endpoints=(a, b),
                bandwidth=float(rng.uniform(*config.bandwidth_range)),
                propagation_delay=float(rng.uniform(*config.propagation_range)),
                traffic_load=float(rng.uniform(*config.traffic_range)),
            )
        )

    tasks = []
    gateways = {}
    for i in range(config.n_tasks):
        gateways[i] = int(rng.integers(0, m))
        tasks.append(
            Task(
                id=i,
                length=float(rng.uniform(*config.task_length_range)),
                data_size=float(rng.uniform(*config.data_size_range)),
                deadline=float(rng.uniform(*config.deadline_range)),
                arrival_time=float(rng.uniform(0.0, 100.0)),
                source_device=i,
            )
        )

    topology = Topology(nodes=nodes, links=tuple(links), device_gateways=gateways)
    return topology, tasks


def build_assignment(tasks: Iterable[Task], mapping: Mapping[int, int]) -> Assignment:
    """Attach the earliest-deadline-first per-node execution order to a raw
    task -> node mapping.  Ties break on lower task id."""
    by_id = {t.id: t for t in tasks}
    per_node = {}
    for task_id, node_id in mapping.items():
        per_node.setdefault(node_id, []).append(task_id)
    order = {
        node_id: tuple(sorted(ids, key=lambda i: (by_id[i].deadline, i)))
        for node_id, ids in per_node.items()
    }
    return Assignment(mapping=dict(mapping), order=order)


def merge_assignments(tasks: Iterable[Task], *parts: Assignment) -> Assignment:
    """Union several disjoint sub-assignments and rebuild the joint queues."""
    mapping = {}
    for part in parts:
        overlap = mapping.keys() & part.mapping.keys()
        if overlap:
            raise ValueError(f"tasks assigned twice: {sorted(overlap)}")
        mapping.update(part.mapping)
    return build_assignment(tasks, mapping)


def validate_assignment(instance: Instance, assignment: Assignment) -> ValidationResult:
    violations = []
    node_ids = set(instance.topology.device_gateways.values()) | {
        n.id for n in instance.topology.nodes
    }
    for task_id, node_id in assignment.mapping.items():
        if task_id not in instance._task_by_id:
            violations.append(f"mapping references unknown task {task_id}")
        if node_id not in instance._node_by_id:
            violations.append(f"task {task_id} mapped to unknown node {node_id}")
    for node_id, sequence in assignment.order.items():
        mapped = sorted(t for t, nd in assignment.mapping.items() if nd == node_id)
        if sorted(sequence) != mapped:
            violations.append(
                f"node {node_id}: order is not a permutation of its mapped tasks"
            )
    ordered = {t for seq in assignment.order.values() for t in seq}
    if ordered != set(assignment.mapping):
        violations.append("order does not cover exactly the mapped tasks")
    return ValidationResult(ok=not violations, violations=tuple(violations))


# ---------------------------------------------------------------------------
# Scenario file format: {"config", "nodes", "links", "tasks", "gateways"}


def scenario_to_dict(config: ScenarioConfig, topology: Topology, tasks) -> dict:
    return {
        "config": {
            **{k: list(v) if isinstance(v, tuple) else v for k, v in asdict(config).items()}
        },
        "nodes": [asdict(n) for n in topology.nodes],
        "links": [
            {
                "endpoints": list(l.endpoints),
                "bandwidth": l.bandwidth,
                "propagation_delay": l.propagation_delay,
                "traffic_load": l.traffic_load,
            }
            for l in topology.links
        ],
        "tasks": [asdict(t) for t in tasks],
        "gateways": {str(dev): node for dev, node in sorted(topology.device_gateways.items())},
    }


def scenario_from_dict(doc: dict):
    cfg = doc["config"]
    config = ScenarioConfig(
        **{k: tuple(v) if isinstance(v, list) else v for k, v in cfg.items()}
    )
    nodes = tuple(FogNode(**n) for n in doc["nodes"])
    links = tuple(
        Link(
            endpoints=tuple(l["endpoints"]),
            bandwidth=l["bandwidth"],
            propagation_delay=l["propagation_delay"],
            traffic_load=l["traffic_load"],
        )
        for l in doc["links"]
    )
    tasks = [Task(**t) for t in doc["tasks"]]
    gateways = {int(dev): node for dev, node in doc["gateways"].items()}
    topology = Topology(nodes=nodes, links=links, device_gateways=gateways)
    return config, topology, tasks


def save_scenario(path, config: ScenarioConfig, topology: Topology, tasks) -> None:
    with open(path, "w") as fh:
        json.dump(scenario_to_dict(config, topology, tasks), fh, indent=2)
        fh.write("\n")


def load_scenario(path):
    with open(path) as fh:
        return scenario_from_dict(json.load(fh))
