import json
import math
import re
import sys
import tempfile
from dataclasses import asdict, fields, replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fogsched import (
    Assignment,
    FogNode,
    Instance,
    Link,
    ScenarioConfig,
    Task,
    Topology,
    build_assignment,
    generate_scenario,
    load_scenario,
    merge_assignments,
    save_scenario,
    validate_instance,
)
from fogsched.metrics import Evaluator
from fogsched.model import FIELD_RULES, scenario_from_dict, scenario_to_dict

from conftest import simple_tasks


def test_validate_ok_instance():
    nodes = tuple(FogNode(id=j, mips=1000.0, active_power=50.0, idle_power=5.0) for j in range(3))
    links = (
        Link(endpoints=(0, 1), bandwidth=100.0, propagation_delay=1.0, traffic_load=0.2),
        Link(endpoints=(1, 2), bandwidth=100.0, propagation_delay=1.0, traffic_load=0.4),
    )
    tasks = simple_tasks([(100.0, 10.0, 50.0)] * 5)
    topology = Topology(nodes=nodes, links=links, device_gateways={t.id: 0 for t in tasks})
    result = validate_instance(topology, tasks)
    assert result.ok
    assert result.violations == ()


def test_validate_flags_zero_deadline():
    tasks = simple_tasks([(100.0, 10.0, 50.0)])
    bad = [Task(id=0, length=100.0, data_size=10.0, deadline=0.0, arrival_time=0.0, source_device=0)]
    node = FogNode(id=0, mips=1000.0, active_power=50.0, idle_power=5.0)
    topology = Topology(nodes=(node,), links=(), device_gateways={0: 0})
    result = validate_instance(topology, bad)
    assert not result.ok
    assert any("deadline must be finite and positive" in v and "task 0" in v for v in result.violations)
    assert validate_instance(topology, tasks).ok


def test_validate_flags_dangling_link():
    nodes = tuple(FogNode(id=j, mips=1000.0, active_power=50.0, idle_power=5.0) for j in range(3))
    links = (
        Link(endpoints=(0, 1), bandwidth=100.0, propagation_delay=1.0, traffic_load=0.2),
        Link(endpoints=(1, 2), bandwidth=100.0, propagation_delay=1.0, traffic_load=0.2),
        Link(endpoints=(1, 99), bandwidth=100.0, propagation_delay=1.0, traffic_load=0.2),
    )
    topology = Topology(nodes=nodes, links=links, device_gateways={})
    result = validate_instance(topology, [])
    assert any("dangling endpoint" in v for v in result.violations)


def test_generate_respects_ranges():
    config = ScenarioConfig(n_tasks=200, n_nodes=20, rng_seed=42)
    topology, tasks = generate_scenario(config)
    assert len(tasks) == 200
    assert len(topology.nodes) == 20
    for node in topology.nodes:
        assert 2000.0 <= node.mips <= 6000.0
        assert 80.0 <= node.active_power <= 200.0
    for task in tasks:
        assert config.deadline_range[0] <= task.deadline <= config.deadline_range[1]
        assert config.task_length_range[0] <= task.length <= config.task_length_range[1]


def test_generate_deterministic():
    config = ScenarioConfig(n_tasks=30, n_nodes=5, rng_seed=9)
    a = scenario_to_dict(config, *generate_scenario(config))
    b = scenario_to_dict(config, *generate_scenario(config))
    assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)


def test_generate_degenerate_range():
    config = ScenarioConfig(n_tasks=5, n_nodes=4, mips_range=(3000.0, 3000.0), rng_seed=0)
    topology, _ = generate_scenario(config)
    assert all(node.mips == 3000.0 for node in topology.nodes)


def test_generate_output_validates():
    for seed in range(10):
        config = ScenarioConfig(n_tasks=20, n_nodes=6, rng_seed=seed)
        topology, tasks = generate_scenario(config)
        assert validate_instance(topology, tasks).ok


def test_generate_rejects_invalid_config():
    with pytest.raises(ValueError):
        generate_scenario(ScenarioConfig(n_nodes=0))
    with pytest.raises(ValueError):
        generate_scenario(ScenarioConfig(mips_range=(6000.0, 2000.0)))


def test_distinct_seeds_differ():
    collisions = 0
    for seed in range(100):
        a = scenario_to_dict(
            ScenarioConfig(n_tasks=5, n_nodes=3, rng_seed=seed),
            *generate_scenario(ScenarioConfig(n_tasks=5, n_nodes=3, rng_seed=seed)),
        )
        b = scenario_to_dict(
            ScenarioConfig(n_tasks=5, n_nodes=3, rng_seed=seed + 1000),
            *generate_scenario(ScenarioConfig(n_tasks=5, n_nodes=3, rng_seed=seed + 1000)),
        )
        a["config"] = b["config"] = None
        if json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True):
            collisions += 1
    assert collisions == 0


def test_scenario_roundtrip(tmp_path):
    config = ScenarioConfig(n_tasks=15, n_nodes=4, rng_seed=3)
    topology, tasks = generate_scenario(config)
    path = tmp_path / "scenario.json"
    save_scenario(path, config, topology, tasks)

    doc = json.loads(path.read_text())
    assert set(doc) == {"config", "nodes", "links", "tasks", "gateways"}

    config2, topology2, tasks2 = load_scenario(path)
    assert config2 == config
    assert topology2.nodes == topology.nodes
    assert topology2.links == topology.links
    assert topology2.device_gateways == topology.device_gateways
    assert tasks2 == tasks
    assert scenario_from_dict(doc) == (config2, topology2, tasks2)


def _asdict_document(config, topology, tasks) -> dict:
    """The scenario document as ``dataclasses.asdict`` builds it."""
    return {
        "config": asdict(config),
        "nodes": [asdict(n) for n in topology.nodes],
        "links": [asdict(link) for link in topology.links],
        "tasks": [asdict(t) for t in tasks],
        "gateways": {str(dev): node for dev, node in sorted(topology.device_gateways.items())},
    }


# values whose JSON text a copy or a conversion could change
_NUMBERS = st.one_of(
    st.integers(-(10**20), 10**20),
    st.sampled_from([0.0, -0.0, 5e-324, 1e-310, sys.float_info.min, 1e308, sys.float_info.max]),
    st.floats(),
    st.floats().map(np.float64),
)


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 10), st.integers(1, 5), st.integers(0, 2**32), st.data())
def test_scenario_document_has_the_asdict_bytes(n_tasks, n_nodes, seed, data):
    """The digest's JSON and the scenario file keep the bytes ``asdict`` gave,
    on generated scenarios and on items built with other numbers."""
    config = ScenarioConfig(n_tasks=n_tasks, n_nodes=n_nodes, rng_seed=seed)
    topology, tasks = generate_scenario(config)

    def vary(item, skip=("id", "endpoints", "source_device")):
        names = [f.name for f in fields(item) if f.name not in skip]
        return replace(item, **data.draw(st.dictionaries(st.sampled_from(names), _NUMBERS)))

    if data.draw(st.booleans(), label="library-built"):
        # a config is built only if its ranges meet their rules: draw them sorted, keep those that do
        pairs = st.tuples(_NUMBERS, _NUMBERS).map(sorted).map(tuple) | st.lists(
            _NUMBERS, min_size=2, max_size=2).map(sorted)
        ranges = [f.name for f in fields(config) if f.name.endswith("_range")]
        drawn = data.draw(st.dictionaries(st.sampled_from(ranges), pairs))
        rules = FIELD_RULES["ScenarioConfig"]
        config = replace(config, **{k: v for k, v in drawn.items() if rules[k](k, v) is None})
        links = [replace(link, endpoints=list(link.endpoints)) for link in topology.links]
        topology = replace(topology, nodes=tuple(map(vary, topology.nodes)),
                           links=tuple(map(vary, links)))
        tasks = list(map(vary, tasks))
    expected = _asdict_document(config, topology, tasks)
    document = scenario_to_dict(config, topology, tasks)
    assert json.dumps(document, sort_keys=True) == json.dumps(expected, sort_keys=True)
    with tempfile.TemporaryDirectory() as folder:
        saved, reference = Path(folder, "saved.json"), Path(folder, "reference.json")
        save_scenario(saved, config, topology, tasks)
        with open(reference, "w") as fh:
            json.dump(expected, fh, indent=2)
            fh.write("\n")
        assert saved.read_bytes() == reference.read_bytes()


def test_build_assignment_orders_by_deadline():
    tasks = simple_tasks([(100.0, 0.0, 300.0), (100.0, 0.0, 100.0), (100.0, 0.0, 100.0)])
    assignment = build_assignment(tasks, {0: 0, 1: 0, 2: 0})
    assert assignment.order[0] == (1, 2, 0)  # deadline asc, ties by id


def test_merge_assignments_rejects_overlap():
    tasks = simple_tasks([(100.0, 0.0, 100.0), (100.0, 0.0, 100.0)])
    a = build_assignment(tasks, {0: 0})
    b = build_assignment(tasks, {0: 1, 1: 1})
    with pytest.raises(ValueError):
        merge_assignments(tasks, a, b)
    merged = merge_assignments(tasks, build_assignment(tasks, {0: 0}), build_assignment(tasks, {1: 1}))
    assert merged.mapping == {0: 0, 1: 1}


def test_build_assignment_refuses_an_unknown_task():
    tasks = simple_tasks([(100.0, 0.0, 100.0), (100.0, 0.0, 100.0)])
    with pytest.raises(ValueError, match=r"^task 99: unknown id$"):
        build_assignment(tasks, {0: 0, 99: 1})


def test_merge_assignments_refuses_an_unknown_task():
    tasks = simple_tasks([(100.0, 0.0, 100.0), (100.0, 0.0, 100.0)])
    stray = Assignment(mapping={99: 1}, order={1: (99,)})
    with pytest.raises(ValueError, match=r"^task 99: unknown id$"):
        merge_assignments(tasks, build_assignment(tasks, {0: 0}), stray)


NUMERIC_FIELDS = [
    ("tasks", name) for name in ("length", "data_size", "deadline", "arrival_time")
] + [
    ("nodes", name) for name in ("mips", "active_power", "idle_power", "alpha", "beta")
] + [
    ("links", name) for name in ("bandwidth", "propagation_delay", "traffic_load")
]


@pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
@pytest.mark.parametrize("section,name", NUMERIC_FIELDS)
def test_validate_flags_non_finite_field(section, name, value):
    doc = scenario_to_dict(*_saved_scenario())
    doc[section][0][name] = value
    _, topology, tasks = scenario_from_dict(doc)
    result = validate_instance(topology, tasks)
    assert not result.ok
    assert any(f"{name} must be finite" in v for v in result.violations)


@pytest.mark.parametrize(
    "section,name,value",
    [(section, name, value) for section, name in NUMERIC_FIELDS for value in (float("nan"), float("inf"))]
    + [("links", "bandwidth", 0.0), ("nodes", "mips", 0.0)],
)
def test_evaluator_rejects_non_finite_field(section, name, value):
    # a library-built instance skips validate_instance; its Evaluator must
    # not turn a NaN into a zero violation or a NaN fitness, nor a zero
    # bandwidth or mips into an infinite one
    doc = scenario_to_dict(*_saved_scenario())
    entry = doc[section][0]
    entry[name] = value
    _, topology, tasks = scenario_from_dict(doc)
    where = tuple(entry["endpoints"]) if section == "links" else entry["id"]
    rule = "must be finite" if value else "must be finite and positive"
    with pytest.raises(ValueError, match=re.escape(f"{section[:-1]} {where}: {name} {rule}")):
        Evaluator(Instance(topology, tasks))


def _saved_scenario():
    config = ScenarioConfig(n_tasks=4, n_nodes=3, rng_seed=1)
    return (config, *generate_scenario(config))


def _paths(value, path=()):
    """Every position in a JSON document, the document itself first."""
    yield path
    items = value.items() if isinstance(value, dict) else (
        enumerate(value) if isinstance(value, list) else ()
    )
    for key, child in items:
        yield from _paths(child, path + (key,))


BAD_VALUES = st.one_of(
    st.sampled_from([None, True, False, math.nan, -1, -0.5, -(10**400), 2**64, 10**400, 1e308]),
    st.text(max_size=4),
    st.lists(st.integers(-3, 3), max_size=3),
    st.dictionaries(st.text(max_size=3), st.integers(-3, 3), max_size=2),
    st.integers(max_value=-1),
)


@settings(max_examples=300, deadline=None)
@given(
    n_tasks=st.integers(1, 4),
    n_nodes=st.integers(1, 3),
    seed=st.integers(0, 20),
    data=st.data(),
)
def test_scenario_with_one_bad_value_loads_or_raises_value_error(n_tasks, n_nodes, seed, data):
    config = ScenarioConfig(n_tasks=n_tasks, n_nodes=n_nodes, rng_seed=seed)
    doc = json.loads(json.dumps(scenario_to_dict(config, *generate_scenario(config))))
    path = data.draw(st.sampled_from(list(_paths(doc))), label="path")
    value = data.draw(BAD_VALUES, label="value")
    if path:
        parent = doc
        for key in path[:-1]:
            parent = parent[key]
        parent[path[-1]] = value
    else:
        doc = value
    try:
        _, topology, tasks = scenario_from_dict(doc)
    except ValueError:
        return
    validate_instance(topology, tasks)


@pytest.mark.parametrize("section,key,value", [
    ("links", "endpoints", [[0], 1]),
    ("links", "endpoints", [0, {"id": 1}]),
    ("links", "endpoints", [0, True]),
    ("nodes", "id", 1.0),
    ("nodes", "id", [1]),
    ("tasks", "id", False),
    ("tasks", "source_device", "0"),
    ("tasks", "length", 10**400),
])
def test_scenario_rejects_non_integer_id_or_huge_number(section, key, value):
    doc = scenario_to_dict(*_saved_scenario())
    doc[section][0][key] = value
    with pytest.raises(ValueError, match=re.escape(f"{section}[0]: {key} must be")):
        scenario_from_dict(doc)



@pytest.mark.parametrize("key,value,message", [
    ("n_tasks", "lots", "config: n_tasks must be an integer, got 'lots'"),
    ("n_nodes", 3.0, "config: n_nodes must be an integer"),
    ("rng_seed", True, "config: rng_seed must be an integer"),
    ("mips_range", [1.0], "config: mips_range must be a pair of finite numbers"),
    ("deadline_range", [1.0, math.nan], "config: deadline_range must be a pair of finite numbers"),
    ("traffic_range", [0.0, 10**400], "config: traffic_range must be a pair of finite numbers"),
    ("n_tasks", 0, "config: n_tasks must be > 0"),
    ("rng_seed", -1, "config: rng_seed must be >= 0"),
    ("bandwidth_range", [9.0, 1.0], "config: bandwidth_range must satisfy min <= max"),
])
def test_scenario_config_is_checked(key, value, message):
    doc = json.loads(json.dumps(scenario_to_dict(*_saved_scenario())))
    doc["config"][key] = value
    with pytest.raises(ValueError, match=re.escape(message)):
        scenario_from_dict(doc)


def test_config_refuses_negative_seed():
    with pytest.raises(ValueError, match="rng_seed must be >= 0"):
        ScenarioConfig(rng_seed=-1)
    assert not hasattr(ScenarioConfig, "validate")


RANGE_FIELDS = (
    "mips_range", "active_power_range", "deadline_range", "task_length_range",
    "data_size_range", "traffic_range", "bandwidth_range", "propagation_range",
)


@pytest.mark.parametrize("changes,field", [
    ({"deadline_range": (-5.0, -1.0)}, "deadline_range"),
    ({"mips_range": (-5.0, -1.0)}, "mips_range"),
    ({"bandwidth_range": (0.0, 10.0)}, "bandwidth_range"),
    ({"data_size_range": (-1.0, 10.0)}, "data_size_range"),
    ({"n_tasks": 2.5}, "n_tasks"),
    ({"n_nodes": True}, "n_nodes"),
    ({"rng_seed": 1.0}, "rng_seed"),
    ({"deadline_range": (math.nan, 10.0)}, "deadline_range"),
    ({"traffic_range": (0.0, math.inf)}, "traffic_range"),
    ({"propagation_range": (0.0, 10**400)}, "propagation_range"),
    ({"mips_range": (1.0, 2.0, 3.0)}, "mips_range"),
    ({"active_power_range": (-1.0, 5.0)}, "active_power_range"),
    ({"task_length_range": (0.0, 10.0)}, "task_length_range"),
])
def test_config_refuses_a_field_whose_instance_would_not_validate(changes, field):
    with pytest.raises(ValueError, match=f"^(.*; )?{field} must"):
        ScenarioConfig(**{"n_tasks": 3, "n_nodes": 2, **changes})


_bound = st.one_of(
    st.floats(-10.0, 1e4), st.sampled_from([0.0, -0.0, 5e-324, math.nan, math.inf, -math.inf]),
    st.integers(-5, 5), st.just(10**400), st.booleans(),
)
_range = st.one_of(st.tuples(_bound, _bound), st.lists(_bound, max_size=3))
_count = st.one_of(st.integers(-2, 10), st.sampled_from([2.5, 3.0, True, "4"]))


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_a_valid_config_generates_a_valid_instance(data):
    """Whatever ``ScenarioConfig`` accepts generates an instance that
    ``validate_instance`` accepts; anything else fails to build with a
    ValueError naming the field."""
    seeds = st.one_of(_count, st.integers(0, 2**32))
    strategies = {"n_tasks": _count, "n_nodes": _count, "rng_seed": seeds}
    strategies.update(dict.fromkeys(RANGE_FIELDS, _range))
    changes = {
        name: data.draw(strategy, label=name)
        for name, strategy in strategies.items()
        if data.draw(st.booleans(), label=f"change {name}")
    }
    try:
        config = ScenarioConfig(**{"n_tasks": 6, "n_nodes": 3, **changes})
    except ValueError as exc:
        assert all(p.split(" ", 1)[0] in changes for p in str(exc).split("; ")), str(exc)
        return
    result = validate_instance(*generate_scenario(config))
    assert result.ok, result.violations
