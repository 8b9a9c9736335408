"""Problem-instance data model: tasks, fog nodes, topology, assignments,
scenario generation and the scenario JSON file format."""

from __future__ import annotations

import json
import math
import sys
from dataclasses import dataclass, field, fields
from functools import cache, cached_property
from operator import attrgetter
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


# ---------------------------------------------------------------------------
# Field rules: the one statement of what each input field accepts; rule(name, value)
# returns the value's fault or None.  Scenario files check kinds only, so NaN and inf load.

_FLOAT_MAX = sys.float_info.max
ALGORITHMS = ("RIGEO", "IGEO-only", "GEO", "RL-only", "RANDOM", "GREEDY")


class Number:
    """An int (id, count or seed) or a finite float in [lo, hi], open at ``lo`` if ``lo_open``."""

    def __init__(self, kind, lo=-_FLOAT_MAX, hi=_FLOAT_MAX, lo_open=False):
        self.kind, self.high = kind, hi
        # a closed bound to the same effect: no number lies between an open end and the next float
        self.low = math.nextafter(lo, math.inf) if lo_open else lo
        self.bounds = f"{'>' if lo_open else '>='} {lo:g}" if hi == _FLOAT_MAX else (
            f"in {'(' if lo_open else '['}{lo:g}, {hi:g}]")

    def is_kind(self, value) -> bool:
        """An int within float range, or for a float rule any float; never a bool."""
        if isinstance(value, (float, np.floating)):
            return self.kind is float
        return isinstance(value, (int, np.integer)) and not isinstance(value, bool) and (
            -_FLOAT_MAX <= value <= _FLOAT_MAX)

    def __call__(self, name, value):
        """What ``value`` breaks, or None."""
        if not self.is_kind(value):
            return f"{name} must be {'an integer' if self.kind is int else 'a number'}, got {value!r}"
        value = float(value)  # a numpy float32 compared with float bounds would warn
        if self.low <= value <= self.high:
            return None
        words = {"> 0": "finite and positive", ">= 0": "finite and nonnegative"}
        return f"{name} must be {words.get(self.bounds, self.bounds) if self.kind is float else self.bounds}"


class Pair:
    """Two numbers, each meeting ``item``; a range (``ordered``) has min <= max."""

    def __init__(self, item: Number, ordered=False):
        self.item, self.ordered = item, ordered

    def is_kind(self, value) -> bool:
        return isinstance(value, (tuple, list)) and len(value) == 2 and all(map(self.item.is_kind, value))

    def __call__(self, name, value):
        ends = tuple(map(float, value)) if self.is_kind(value) else ()
        if not ends or not all(abs(end) <= _FLOAT_MAX for end in ends):
            what = "integers" if self.item.kind is int else "finite numbers"
            return f"{name} must be a pair of {what}, got {value!r}"
        if self.ordered and ends[0] > ends[1]:
            return f"{name} must satisfy min <= max"
        if not all(self.item.low <= end <= self.item.high for end in ends):
            return f"{name} must have both ends {self.item.bounds}"
        return None


def _each(rule, label):
    """A nonempty tuple or list whose every value meets ``rule`` as ``label``."""
    def check(name, value):
        if not (isinstance(value, (tuple, list)) and value):
            return f"{name} must be a nonempty tuple, got {value!r}"
        faults = [fault for item in value if (fault := rule(label, item))]
        return f"{faults[0]} (in {name})" if faults else None
    return check


def _one_of(*options, types=False):
    """One of ``options``; with ``types``, of a class named among them or a subclass of one."""
    def check(name, value):
        found = [cls.__name__ for cls in type(value).__mro__] if types else [value]
        if not any(option in found for option in options):
            listed = " or ".join(options) if types else "one of " + ", ".join(options)
            return f"{name} must be {listed}, got {value!r}"
    return check


def _weights(name, value):
    """The plan's three weights, unpacked as the trial body unpacks them."""
    try:
        w_response, w_deadline, w_energy = value
    except (TypeError, ValueError) as exc:
        return f"{name}: {exc}"
    weights = dict(w_response=w_response, w_deadline=w_deadline, w_energy=w_energy)
    faults = field_problems("FitnessWeights", weights)
    return f"{faults[0]} (in {name})" if faults else None


_ID, _SEED, _COUNT = Number(int), Number(int, 0), Number(int, 0, lo_open=True)
_POSITIVE, _NONNEGATIVE = Number(float, 0.0, lo_open=True), Number(float, 0.0)
_FRACTION, _RATE = Number(float, 0.0, 1.0), Number(float, 0.0, 1.0, lo_open=True)
_TASK = dict(id=_ID, length=_POSITIVE, data_size=_NONNEGATIVE, deadline=_POSITIVE,
             arrival_time=_NONNEGATIVE, source_device=_ID)
_NODE = dict(id=_ID, mips=_POSITIVE, active_power=_NONNEGATIVE, idle_power=_NONNEGATIVE,
             alpha=_NONNEGATIVE, beta=_NONNEGATIVE)
_LINK = dict(endpoints=Pair(_ID), bandwidth=_POSITIVE, propagation_delay=_NONNEGATIVE,
             traffic_load=_NONNEGATIVE)
_GEO = dict(population_size=Number(int, 2), iterations=Number(int, 1), rng_seed=_SEED,
            pa_schedule=Pair(_NONNEGATIVE), pc_schedule=Pair(_NONNEGATIVE))

# dataclass name -> field -> rule.  A scenario range takes the rule of the field it
# generates (idle power is drawn below active power), so valid configs make valid instances.
FIELD_RULES = {
    "Task": _TASK, "FogNode": _NODE, "Link": _LINK,
    "ScenarioConfig": dict(n_tasks=_COUNT, n_nodes=_COUNT, rng_seed=_SEED, **{
        name: Pair(rule, ordered=True) for name, rule in (
            ("mips_range", _NODE["mips"]), ("active_power_range", _NODE["active_power"]),
            ("deadline_range", _TASK["deadline"]), ("task_length_range", _TASK["length"]),
            ("data_size_range", _TASK["data_size"]), ("traffic_range", _LINK["traffic_load"]),
            ("bandwidth_range", _LINK["bandwidth"]), ("propagation_range", _LINK["propagation_delay"]),
        )
    }),
    "GeoParams": _GEO, "IgeoParams": dict(_GEO, mutation_rate=_RATE),
    "RlConfig": dict(
        episodes=Number(int, 1), learning_rate=_RATE, exploration_rate=_FRACTION,
        exploration_decay=_FRACTION, reward_value=_POSITIVE, penalty_value=_POSITIVE,
        probability_floor=_FRACTION, rng_seed=_SEED,
    ),
    "FitnessWeights": dict(
        w_response=_NONNEGATIVE, w_deadline=_NONNEGATIVE, w_energy=_NONNEGATIVE,
        norm_response=_POSITIVE, norm_deadline=_POSITIVE, norm_energy=_POSITIVE,
    ),
    "ExperimentPlan": dict(
        task_counts=_each(_COUNT, "n_tasks"), n_nodes=_COUNT,  # each trial's ScenarioConfig
        repetitions=Number(int, 1), workers=Number(int, 1), base_seed=_SEED,
        algorithms=_each(_one_of(*ALGORITHMS), "algorithm"), fitness_weights=_weights,
        output_dir=_one_of("str", "PurePath", types=True), rl=_one_of("RlConfig", types=True),
        geo=_one_of("GeoParams", types=True), igeo=_one_of("IgeoParams", types=True),
    ),
}

# (message, test) rules across a dataclass's fields, tested once each field meets its own
CROSS_RULES = {
    "FogNode": [("active_power >= idle_power violated", lambda f: f["active_power"] >= f["idle_power"])],
    "Link": [("endpoints must be distinct", lambda f: f["endpoints"][0] != f["endpoints"][1])],
    # a penalty scales a preference by 1 - ratio: at a ratio of 1 or more a lone candidate is 0/0.
    # Python floats, which overflow to inf where numpy scalars would warn
    "RlConfig": [("learning_rate * penalty_value / reward_value must be < 1", lambda f: (
        float(f["learning_rate"]) * float(f["penalty_value"]) / float(f["reward_value"]) < 1))],
    "FitnessWeights": [("at least one weight must be positive",
                        lambda f: f["w_response"] > 0 or f["w_deadline"] > 0 or f["w_energy"] > 0)],
}


def field_problems(table: str, values: Mapping) -> list:
    """One message per field (name -> value) breaking its rule in ``table``; else per cross rule."""
    problems = [p for name, v in values.items() if (p := FIELD_RULES[table][name](name, v))]
    return problems or [message for message, holds in CROSS_RULES.get(table, ()) if not holds(values)]


def check_fields(obj) -> None:
    """Raise ValueError naming each field of dataclass ``obj`` that breaks its rule."""
    if problems := field_problems(type(obj).__name__, vars(obj)):
        raise ValueError("; ".join(problems))


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

    __post_init__ = check_fields


def _fits(rule, column) -> bool:
    """Whether every value of ``column`` meets ``rule``, by C-level scans; False when unsure."""
    if isinstance(rule, Pair):  # the ends of every pair as one column
        pairs = set(map(type, column)) == {tuple} and set(map(len, column)) == {2}
        return pairs and not rule.ordered and _fits(rule.item, [end for pair in column for end in pair])
    return (
        set(map(type, column)) == {rule.kind} and rule.low <= min(column) and max(column) <= rule.high
        and (total := sum(column)) == total  # min and max can miss a NaN; a sum cannot
    )


def _instance_problems(topology: Topology, tasks: Sequence[Task]) -> list:
    """One message per task, node or link field or cross rule an item breaks, per repeated
    task or node id and per link endpoint that names no node, naming the item."""
    problems, keys = [], []
    for label, table, items in (("task", "Task", tasks), ("node", "FogNode", topology.nodes),
                                ("link", "Link", topology.links)):
        rules, cross = FIELD_RULES[table], CROSS_RULES.get(table, ())
        columns = {name: list(map(attrgetter(name), items)) for name in rules}
        fits = {name: _fits(rule, columns[name]) for name, rule in rules.items()}
        if not (all(fits.values()) and all(holds(vars(item)) for item in items for _, holds in cross)):
            for item in items:
                where = f"{label} {item.endpoints if label == 'link' else item.id}"
                problems += [f"{where}: {fault}" for fault in field_problems(table, vars(item))]
        # the id rules skip an id or endpoint pair of the wrong kind, which its field rule reports
        key = "endpoints" if label == "link" else "id"
        keys.append(columns[key] if fits[key] else list(filter(rules[key].is_kind, columns[key])))
    task_ids, node_ids, ends = keys
    problems += _repeated("task", task_ids) + _repeated("node", node_ids)
    node_ids = set(node_ids)
    if not set().union(*ends) <= node_ids:
        problems += [f"link {pair}: dangling endpoint {end}"
                     for pair in ends for end in pair if end not in node_ids]
    return problems + _gateway_problems(topology, tasks, node_ids)


def _repeated(label: str, ids: list) -> list:
    """One message per id of ``ids`` that an earlier one repeats."""
    seen = set()  # seen.add returns None, so the test below adds each id not seen yet
    return [] if len(set(ids)) == len(ids) else [
        f"{label} {id_}: duplicate id" for id_ in ids if id_ in seen or seen.add(id_)]


def _gateway_problems(topology: Topology, tasks: Sequence[Task], node_ids: set) -> list:
    """The gateway rule: ``device_gateways`` maps device ids to node ids, each
    naming a node of ``node_ids``, and every task's source device has a gateway."""
    gateways = topology.device_gateways
    if not isinstance(gateways, Mapping):
        return [f"device_gateways must be a mapping, got {gateways!r}"]
    devices, nodes = list(gateways), list(gateways.values())
    problems = []
    if not (_fits(_ID, devices) and _fits(_ID, nodes) and node_ids.issuperset(nodes)):
        for device, node in gateways.items():
            fault = _ID("device id", device) or _ID("gateway", node) or (
                None if node in node_ids else f"gateway {node} names no node")
            if fault:
                problems.append(f"device {device!r}: {fault}")
    # a source device of the wrong kind is the task rule's to report
    sources = [t.source_device for t in tasks]
    if not (_fits(_ID, sources) and gateways.keys() >= set(sources)):
        problems += [
            f"task {t.id}: unknown source device {t.source_device}" for t in tasks
            if _ID.is_kind(t.source_device) and t.source_device not in gateways
        ]
    return problems


class Instance:
    """A topology plus its task batch; the shared read-only input of every
    optimizer and metric evaluation."""

    def __init__(self, topology: Topology, tasks: Sequence[Task]):
        self.topology = topology
        self.tasks = tuple(tasks)
        # the metrics.Evaluator of this instance, built on first use by
        # metrics._evaluator
        self._evaluator_cache = None

    @property
    def n_tasks(self) -> int:
        return len(self.tasks)

    @cached_property
    def _task_by_id(self) -> dict:
        """Built on first use, so an instance with an unhashable id is made, and its check refuses it."""
        return {t.id: t for t in self.tasks}

    def task(self, task_id: int) -> Task:
        return self._task_by_id[task_id]

    def gateway_of(self, task: Task) -> int:
        return self.topology.device_gateways[task.source_device]


@dataclass(frozen=True)
class ValidationResult:
    ok: bool
    violations: tuple


def validate_instance(topology: Topology, tasks: Sequence[Task]) -> ValidationResult:
    """Check every structural invariant; violations are data, not failures.  The graph-wide rules
    (task ids contiguous from 0, a connected node graph) run once every item meets its rules."""
    violations = _instance_problems(topology, tasks)
    if not violations:
        if sorted(t.id for t in tasks) != list(range(len(tasks))):
            violations.append("task ids must be unique and contiguous from 0")
        if topology.nodes and not _is_connected(topology):
            violations.append("topology: node graph is not connected")
    return ValidationResult(ok=not violations, violations=tuple(violations))


def _is_connected(topology: Topology) -> bool:
    adjacency = {node.id: set() for node in topology.nodes}
    for a, b in (link.endpoints for link in topology.links):
        adjacency[a].add(b)
        adjacency[b].add(a)
    seen = {topology.nodes[0].id}
    stack = list(seen)
    while stack:
        for nxt in adjacency[stack.pop()] - seen:
            seen.add(nxt)
            stack.append(nxt)
    return len(seen) == len(topology.nodes)


def generate_scenario(config: ScenarioConfig):
    """Build a seeded random instance; same seed gives a bit-identical one.

    The topology is a random spanning tree plus extra edges until the average
    node degree reaches 3, so multi-hop routing is always exercised.
    """
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
    node_ids = {n.id for n in instance.topology.nodes}
    for task_id, node_id in assignment.mapping.items():
        if task_id not in instance._task_by_id:
            violations.append(f"mapping references unknown task {task_id}")
        if node_id not in node_ids:
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


@cache
def _field_names(cls) -> tuple:
    return tuple(f.name for f in fields(cls))


def _as_row(item) -> dict:
    """``asdict(item)`` for a dataclass of plain values, without its deep copy: the
    same values under the same keys in the same order, so the same JSON."""
    names = _field_names(type(item))
    return dict(zip(names, attrgetter(*names)(item)))


def scenario_to_dict(config: ScenarioConfig, topology: Topology, tasks) -> dict:
    """The scenario file's document; its tuples write as JSON lists."""
    return {
        "config": _as_row(config),
        "nodes": list(map(_as_row, topology.nodes)),
        "links": list(map(_as_row, topology.links)),
        "tasks": list(map(_as_row, tasks)),
        "gateways": {str(dev): node for dev, node in sorted(topology.device_gateways.items())},
    }


def _build(cls, entry, where: str):
    """``cls(**entry)`` with JSON lists as tuples.  A non-object entry, an unknown or missing
    key, a value of the wrong kind for its field's rule, or a value ``cls`` refuses when built
    (a ScenarioConfig checks every rule) raise ValueError prefixed with ``where``."""
    if not isinstance(entry, dict):
        raise ValueError(f"{where}: expected an object, got {entry!r}")
    rules = FIELD_RULES[cls.__name__]
    for key, value in entry.items():
        if key in rules and not rules[key].is_kind(value):
            raise ValueError(f"{where}: {rules[key](key, value)}")
    try:
        return cls(**{k: tuple(v) if isinstance(v, list) else v for k, v in entry.items()})
    except (TypeError, ValueError) as exc:  # TypeError: an unknown or missing key
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
    config = _build(ScenarioConfig, doc["config"], "config")
    nodes = tuple(_build(FogNode, n, f"nodes[{i}]") for i, n in enumerate(doc["nodes"]))
    links = tuple(_build(Link, l, f"links[{i}]") for i, l in enumerate(doc["links"]))
    tasks = [_build(Task, t, f"tasks[{i}]") for i, t in enumerate(doc["tasks"])]
    gateways = {}
    for dev, node in doc["gateways"].items():
        try:
            device = int(dev)
        except ValueError:
            raise ValueError(f"gateways: device {dev!r} must be an integer id") from None
        if not _ID.is_kind(node):
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
