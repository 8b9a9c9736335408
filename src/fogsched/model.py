"""Problem-instance data model: tasks, fog nodes, topology, assignments,
scenario generation and the scenario JSON file format."""

from __future__ import annotations

import json
import math
import numbers
import sys
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
        """One message per field, naming it, that would not generate an
        instance ``validate_instance`` accepts: the counts must be integers,
        and each range a pair of finite numbers, min <= max, whose min meets
        its field's rule."""
        problems = []
        counts = (("n_tasks", 1, "> 0"), ("n_nodes", 1, "> 0"), ("rng_seed", 0, ">= 0"))
        for name, least, rule in counts:
            value = getattr(self, name)
            if not _is_id(value):
                problems.append(f"{name} must be an integer, got {value!r}")
            elif value < least:
                problems.append(f"{name} must be {rule}")
        for name, strict in _RANGE_RULES.items():
            pair = getattr(self, name)
            pair_ok = isinstance(pair, (tuple, list)) and len(pair) == 2
            if not (pair_ok and all(map(_is_finite, pair))):
                problems.append(f"{name} must be a pair of finite numbers, got {pair!r}")
            elif pair[0] > pair[1]:
                problems.append(f"{name} must satisfy min <= max")
            elif pair[0] < 0 or strict and pair[0] == 0:
                problems.append(f"{name} must have min {'>' if strict else '>='} 0")
        return problems


# each ScenarioConfig range and whether validate_instance wants the values
# it generates > 0 (True) or >= 0 (False); idle power is a fraction of the
# active power, so active power >= 0 keeps active >= idle >= 0
_RANGE_RULES = {
    "mips_range": True,
    "active_power_range": False,
    "deadline_range": True,
    "task_length_range": True,
    "data_size_range": False,
    "traffic_range": False,
    "bandwidth_range": True,
    "propagation_range": False,
}


class Instance:
    """A topology plus its task batch; the shared read-only input of every
    optimizer and metric evaluation."""

    def __init__(self, topology: Topology, tasks: Sequence[Task]):
        self.topology = topology
        self.tasks = tuple(tasks)
        self._task_by_id = {t.id: t for t in self.tasks}
        self._node_by_id = {n.id: n for n in topology.nodes}
        # the metrics.Evaluator of this instance, built on first use by
        # metrics._evaluator
        self._evaluator_cache = None

    @property
    def n_tasks(self) -> int:
        return len(self.tasks)

    def task(self, task_id: int) -> Task:
        return self._task_by_id[task_id]

    def gateway_of(self, task: Task) -> int:
        return self.topology.device_gateways[task.source_device]


@dataclass(frozen=True)
class ValidationResult:
    ok: bool
    violations: tuple


def _non_finite_fields(topology: Topology, tasks: Sequence[Task]) -> list:
    """One message per NaN or infinite number in a task, node or link field,
    naming the field and the task id, node id or link endpoints."""
    problems = []
    for label, items, names in (
        ("task", tasks, ("length", "data_size", "deadline", "arrival_time")),
        ("node", topology.nodes, ("mips", "active_power", "idle_power", "alpha", "beta")),
        ("link", topology.links, ("bandwidth", "propagation_delay", "traffic_load")),
    ):
        for item in items:
            where = item.endpoints if label == "link" else item.id
            for name in names:
                if not math.isfinite(getattr(item, name)):
                    problems.append(f"{label} {where}: {name} must be finite")
    return problems


def _out_of_range_fields(topology: Topology, tasks: Sequence[Task]) -> list:
    """One message per task, node or link field outside its range, naming
    the rule and the task id, node id or link endpoints.  A NaN breaks only
    the power rule here; ``_non_finite_fields`` reports it."""
    problems = []
    for label, items, rules in (
        ("task", tasks, (("length", ">"), ("data_size", ">="), ("deadline", ">"), ("arrival_time", ">="))),
        ("node", topology.nodes, (("mips", ">"),)),
        ("link", topology.links, (("bandwidth", ">"), ("propagation_delay", ">="), ("traffic_load", ">="))),
    ):
        for item in items:
            where = item.endpoints if label == "link" else item.id
            for name, op in rules:
                value = getattr(item, name)
                if (value <= 0) if op == ">" else (value < 0):
                    problems.append(f"{label} {where}: {name} {op} 0 violated")
    for node in topology.nodes:
        if not (node.active_power >= node.idle_power >= 0):
            problems.append(f"node {node.id}: active_power >= idle_power >= 0 violated")
        if node.alpha < 0 or node.beta < 0:
            problems.append(f"node {node.id}: alpha, beta >= 0 violated")
    return problems


def validate_instance(topology: Topology, tasks: Sequence[Task]) -> ValidationResult:
    """Check every structural invariant; violations are data, not failures."""
    violations = _non_finite_fields(topology, tasks) + _out_of_range_fields(topology, tasks)

    ids = [t.id for t in tasks]
    if sorted(ids) != list(range(len(tasks))):
        violations.append("task ids must be unique and contiguous from 0")

    node_ids = set()
    for node in topology.nodes:
        if node.id in node_ids:
            violations.append(f"node {node.id}: duplicate id")
        node_ids.add(node.id)

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


def _is_id(value) -> bool:
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def _is_finite(value) -> bool:
    """A real number, not a bool, within float range (a huge int is not)."""
    return (
        isinstance(value, numbers.Real) and not isinstance(value, bool)
        and abs(value) <= sys.float_info.max
    )


def _build(cls, entry, where: str, numeric: bool = True):
    """``cls(**entry)`` with JSON lists as tuples.  A non-object entry, an
    unknown or missing key, an id (``id``, ``source_device``, each of the
    ``endpoints`` pair) that is not an integer, or (when ``numeric``) any
    other value that is not a number within float range raise ValueError
    naming the key."""
    if not isinstance(entry, dict):
        raise ValueError(f"{where}: expected an object, got {entry!r}")
    for key, value in entry.items():
        if key == "endpoints":
            if not (isinstance(value, list) and len(value) == 2 and all(map(_is_id, value))):
                raise ValueError(
                    f"{where}: endpoints must be a pair of integer node ids, got {value!r}"
                )
        elif key in ("id", "source_device"):
            if not _is_id(value):
                raise ValueError(f"{where}: {key} must be an integer id, got {value!r}")
        elif numeric and (
            isinstance(value, bool)
            or not isinstance(value, (int, float))
            or isinstance(value, int) and abs(value) > sys.float_info.max
        ):
            raise ValueError(f"{where}: {key} must be a number, got {value!r}")
    try:
        return cls(**{k: tuple(v) if isinstance(v, list) else v for k, v in entry.items()})
    except TypeError as exc:  # unknown or missing key
        raise ValueError(f"{where}: {exc}") from None


def scenario_from_dict(doc: dict):
    """Rebuild (config, topology, tasks); a malformed document raises
    ValueError naming the section or key at fault."""
    for section, kind in (
        ("config", dict), ("nodes", list), ("links", list), ("tasks", list), ("gateways", dict)
    ):
        if not isinstance(doc, dict) or section not in doc:
            raise ValueError(f"scenario: missing section {section!r}")
        if not isinstance(doc[section], kind):
            raise ValueError(f"scenario: section {section!r} must be a JSON {kind.__name__}")
    config = _build(ScenarioConfig, doc["config"], "config", numeric=False)
    problems = config.validate()
    if problems:
        raise ValueError("config: " + "; ".join(problems))
    nodes = tuple(_build(FogNode, n, f"nodes[{i}]") for i, n in enumerate(doc["nodes"]))
    links = tuple(_build(Link, l, f"links[{i}]") for i, l in enumerate(doc["links"]))
    tasks = [_build(Task, t, f"tasks[{i}]") for i, t in enumerate(doc["tasks"])]
    gateways = {}
    for dev, node in doc["gateways"].items():
        try:
            device = int(dev)
        except ValueError:
            raise ValueError(f"gateways: device {dev!r} must be an integer id") from None
        if not _is_id(node):
            raise ValueError(f"gateways: device {dev} must map to a node id, got {node!r}")
        gateways[device] = node
    topology = Topology(nodes=nodes, links=links, device_gateways=gateways)
    return config, topology, tasks


def save_scenario(path, config: ScenarioConfig, topology: Topology, tasks) -> None:
    with open(path, "w") as fh:
        json.dump(scenario_to_dict(config, topology, tasks), fh, indent=2)
        fh.write("\n")


def load_scenario(path):
    with open(path) as fh:
        return scenario_from_dict(json.load(fh))
