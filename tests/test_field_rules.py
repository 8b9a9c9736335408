"""The field-rule table in ``fogsched.model``: every input dataclass field
has one rule, and every check reads it."""

import math
import re
from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from fogsched import (
    ExperimentPlan,
    FitnessWeights,
    FogNode,
    GeoParams,
    IgeoParams,
    Link,
    RlConfig,
    Instance,
    ScenarioConfig,
    Task,
    ResponseBreakdown,
    Topology,
    build_assignment,
    deadline_violation,
    evaluate,
    generate_scenario,
    geo_optimize,
    igeo_optimize,
    rl_optimize,
    validate_instance,
)
from fogsched.harness import run_and_evaluate
from fogsched.metrics import Evaluator
from fogsched.model import FIELD_RULES

from conftest import make_instance, simple_tasks


@pytest.mark.parametrize("cls", [
    Task, FogNode, Link, ScenarioConfig, GeoParams, IgeoParams, RlConfig, FitnessWeights,
    ExperimentPlan,
])
def test_every_field_has_exactly_one_rule(cls):
    assert sorted(FIELD_RULES[cls.__name__]) == sorted(f.name for f in fields(cls))


@pytest.mark.parametrize("value,fault", [
    (math.nan, "length must be finite and positive"),
    (-math.inf, "length must be finite and positive"),
    (-1.0, "length must be finite and positive"),
    (True, "length must be a number, got True"),
    ("7", "length must be a number, got '7'"),
    (7, None),
])
def test_a_bad_task_value_after_good_ones_is_found(value, fault):
    # a column passes whole only if every value fits: a NaN that min and max
    # skip, or a bool among floats, sends it value by value
    topology, tasks = generate_scenario(ScenarioConfig(n_tasks=6, n_nodes=3, rng_seed=2))
    tasks[-1] = replace(tasks[-1], length=value)
    assert validate_instance(topology, tasks).violations == ((f"task 5: {fault}",) if fault else ())


def test_a_bad_endpoint_after_good_ones_is_found():
    topology, tasks = generate_scenario(ScenarioConfig(n_tasks=6, n_nodes=3, rng_seed=2))
    a, b = topology.links[-1].endpoints
    links = topology.links[:-1] + (replace(topology.links[-1], endpoints=(a, float(b))),)
    violations = validate_instance(replace(topology, links=links), tasks).violations
    assert violations == (f"link {(a, float(b))}: endpoints must be a pair of integers, got {(a, float(b))}",)


@pytest.mark.parametrize("deadline", [0.0, -1.0, math.nan, "10"])
def test_deadline_violation_takes_the_task_deadline_rule(deadline):
    with pytest.raises(ValueError, match="^deadline must be "):
        deadline_violation(ResponseBreakdown(0, 0.0, 0.0, 5.0, 0.0, 5.0), deadline)


def test_instance_kind_and_cross_rules_name_the_item():
    tasks = simple_tasks([(100.0, 10.0, 50.0)] * 2)
    tasks[1] = replace(tasks[1], length="x")
    nodes = (FogNode(0, 1000.0, 50.0, 5.0), FogNode(1, 1000.0, 5.0, 50.0))  # node 1 idles hotter
    links = (Link((0, 1), 100.0, 1.0, 0.2), Link((1, 1), 100.0, 1.0, 0.2), Link((0, 1.0), 1.0, 1.0, 0.0))
    topology = Topology(nodes=nodes, links=links, device_gateways={0: 0, 1: 0})
    violations = validate_instance(topology, tasks).violations
    assert violations[:4] == (
        "task 1: length must be a number, got 'x'",
        "node 1: active_power >= idle_power violated",
        "link (1, 1): endpoints must be distinct",
        "link (0, 1.0): endpoints must be a pair of integers, got (0, 1.0)",
    )
    with pytest.raises(ValueError, match="^task 1: length must be a number, got 'x'; node 1: "):
        Evaluator(Instance(topology, tasks))


@pytest.mark.parametrize("item,change,fault", [
    ("task", dict(id="a"), "task a: id must be an integer, got 'a'"),
    ("link", dict(endpoints=(0, 1, 2)), "link (0, 1, 2): endpoints must be a pair of integers, got (0, 1, 2)"),
], ids=["task-id", "link-endpoints"])
def test_validate_instance_reports_an_id_of_the_wrong_kind(item, change, fault):
    # the graph-wide checks (contiguous ids, connectivity) and the dangling
    # endpoint check cannot sort a str id or unpack a triple; the fault is
    # reported, not raised
    topology, tasks = generate_scenario(ScenarioConfig(n_tasks=3, n_nodes=3, rng_seed=1))
    if item == "task":
        tasks[1] = replace(tasks[1], **change)
    else:
        topology = replace(topology, links=(replace(topology.links[0], **change),) + topology.links[1:])
    result = validate_instance(topology, tasks)
    assert (result.ok, result.violations) == (False, (fault,))


def _gateways(change):
    """A change of the topology's gateways, given them as a dict and the task list."""
    return lambda topology, tasks: replace(
        topology, device_gateways=change(dict(topology.device_gateways), tasks))


@pytest.mark.parametrize("change,fault", [
    (_gateways(lambda gateways, tasks: {**gateways, 0: [1]}),
     "device 0: gateway must be an integer, got [1]"),
    (_gateways(lambda gateways, tasks: {**gateways, 0: 999}), "device 0: gateway 999 names no node"),
    (_gateways(lambda gateways, tasks: {**gateways, "0": 0}),
     "device '0': device id must be an integer, got '0'"),
    (_gateways(lambda gateways, tasks: tasks.__setitem__(1, replace(tasks[1], source_device=77)) or gateways),
     "task 1: unknown source device 77"),
    (_gateways(lambda gateways, tasks: [(0, 0)]), "device_gateways must be a mapping, got [(0, 0)]"),
    (lambda topology, tasks: replace(topology, nodes=topology.nodes + (topology.nodes[1],)),
     "node 1: duplicate id"),
    (lambda topology, tasks: tasks.__setitem__(2, replace(tasks[2], id=1)) or topology,
     "task 1: duplicate id"),
    (lambda topology, tasks: replace(
        topology, links=topology.links + (replace(topology.links[0], endpoints=(0, 999)),)),
     "link (0, 999): dangling endpoint 999"),
], ids=["unhashable", "dangling", "device-kind", "unknown-device", "not-a-mapping",
        "node-id-repeated", "task-id-repeated", "link-endpoint-dangling"])
def test_a_bad_gateway_is_named_by_every_check(change, fault):
    # a library-built topology: validate_instance reports the gateway or id,
    # and the evaluator behind evaluate and every optimizer refuses it
    topology, tasks = generate_scenario(ScenarioConfig(n_tasks=3, n_nodes=3, rng_seed=1))
    topology = change(topology, tasks)
    assert validate_instance(topology, tasks).violations == (fault,)
    instance = Instance(topology, tasks)
    assignment = build_assignment(tasks, {t.id: 0 for t in tasks})
    with pytest.raises(ValueError, match=f"^{re.escape(fault)}$"):
        evaluate(instance, assignment, FitnessWeights())


def test_rl_ratio_rule_computes_in_python_floats():
    # numpy scalars would overflow with a RuntimeWarning, an error under pytest
    with pytest.raises(ValueError, match=r"^learning_rate \* penalty_value / reward_value must be < 1$"):
        RlConfig(penalty_value=np.float64(1e308), reward_value=np.float64(1e-10))
    RlConfig(learning_rate=np.float32(0.5), penalty_value=np.float64(1.0), reward_value=np.int64(2))


def _plan(**changes):
    tiny = dict(
        task_counts=(2,), n_nodes=2, repetitions=1, algorithms=("RANDOM",), output_dir="unused",
        geo=GeoParams(population_size=2, iterations=2),
        igeo=IgeoParams(population_size=2, iterations=2),
        rl=RlConfig(episodes=3), workers=1,
    )
    return ExperimentPlan(**{**tiny, **changes})


@pytest.mark.parametrize("field,value,message", [
    ("geo", 3, "^geo must be GeoParams, got 3$"),
    ("igeo", GeoParams(), "^igeo must be IgeoParams, got GeoParams"),
    ("rl", IgeoParams(), "^rl must be RlConfig, got IgeoParams"),
    ("output_dir", None, "^output_dir must be str or PurePath, got None$"),
    ("task_counts", 5, "^task_counts must be a nonempty tuple, got 5$"),
    ("algorithms", "GEO", "^algorithms must be a nonempty tuple, got 'GEO'$"),
    ("algorithms", ("GEO", "NOPE"), r"^algorithm must be one of .*, got 'NOPE' \(in algorithms\)$"),
    ("fitness_weights", (1.0, 1.0),
     r"^fitness_weights: not enough values to unpack \(expected 3, got 2\)$"),
    ("fitness_weights", 5, "^fitness_weights: cannot unpack"),
])
def test_plan_refuses_a_wrong_typed_field_by_name(field, value, message):
    with pytest.raises(ValueError, match=message):
        _plan(**{field: value})


@pytest.mark.parametrize("cls,field,value", [
    (GeoParams, "pa_schedule", "ab"),
    (GeoParams, "pa_schedule", 5),
    (IgeoParams, "mutation_rate", "x"),
    (RlConfig, "learning_rate", "x"),
    (FitnessWeights, "w_response", None),
    pytest.param(FitnessWeights, "w_response", 10**400, id="FitnessWeights-w_response-10**400"),
    (RlConfig, "episodes", True),
    (IgeoParams, "mutation_rate", True),
    (FitnessWeights, "w_response", True),
])
def test_wrong_typed_parameter_raises_value_error_naming_it(cls, field, value):
    with pytest.raises(ValueError, match=f"^{field} must be "):
        cls(**{field: value})


# a value of the wrong type or out of every range, or a valid edge value
BAD_VALUES = st.one_of(
    st.sampled_from([
        None, True, False, math.nan, math.inf, -math.inf, -1, -0.5, 0, 0.0, 0.5, 1, 3,
        -(10**400), 2**64, 10**400, 1e308, 5e-324, "", "GEO", (), (1.0,), (0.0, 2.0),
    ]),
    st.text(max_size=4),
    st.lists(st.integers(-3, 3), max_size=3),
    st.tuples(st.floats(-1.0, 3.0), st.floats(-1.0, 3.0)),
    st.dictionaries(st.text(max_size=3), st.integers(-3, 3), max_size=2),
    st.integers(max_value=-1),
)
# a search budget above these is valid, but its run is not tiny
_BUDGETS = {"population_size": 4, "iterations": 4, "episodes": 20}


def _construct(cls, field, value, **base):
    """``cls`` with one field replaced; None if construction raised a
    ValueError naming that field."""
    try:
        return cls(**{**base, field: value})
    except ValueError as exc:
        assert field in str(exc), str(exc)
        return None


def _finite_or_overflow_by_name(run):
    """A finite fitness, or the ValueError naming an overflow that a weight
    too large for float range ends in, as the harness reports it."""
    try:
        fitness = run()
    except ValueError as exc:
        assert str(exc).endswith("overflowed float range"), str(exc)
        return
    assert math.isfinite(fitness)


_INSTANCE = make_instance(2, 2, seed=0)
_NODES = [n.id for n in _INSTANCE.topology.nodes]
_TASKS = [t.id for t in _INSTANCE.tasks]


@pytest.mark.parametrize("cls,optimize,base", [
    (GeoParams, geo_optimize, dict(population_size=2, iterations=2)),
    (IgeoParams, igeo_optimize, dict(population_size=2, iterations=2)),
    (RlConfig, rl_optimize, dict(episodes=3)),
])
@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_search_parameters_with_one_bad_field_raise_or_run(cls, optimize, base, data):
    field = data.draw(st.sampled_from([f.name for f in fields(cls)]), label="field")
    value = data.draw(BAD_VALUES, label="value")
    params = _construct(cls, field, value, **base)
    if params is None:
        return
    assume(not (field in _BUDGETS and value > _BUDGETS[field]))
    assignment, fitness = optimize(_INSTANCE, _NODES, _TASKS, params, FitnessWeights())
    assert math.isfinite(fitness)
    assert sorted(assignment.mapping) == _TASKS


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_weights_with_one_bad_field_raise_or_run(data):
    field = data.draw(st.sampled_from([f.name for f in fields(FitnessWeights)]), label="field")
    weights = _construct(FitnessWeights, field, data.draw(BAD_VALUES, label="value"))
    if weights is None:
        return
    assignment = build_assignment(_INSTANCE.tasks, {t: _NODES[t % 2] for t in _TASKS})
    _finite_or_overflow_by_name(lambda: evaluate(_INSTANCE, assignment, weights).fitness)


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_plan_with_one_bad_field_raises_or_runs(data):
    field = data.draw(st.sampled_from([f.name for f in fields(ExperimentPlan)]), label="field")
    plan = _construct(_plan, field, data.draw(BAD_VALUES, label="value"))
    if plan is None:
        return
    algorithm = plan.algorithms[0]
    _finite_or_overflow_by_name(lambda: run_and_evaluate(plan, algorithm, _INSTANCE, 0)[0].fitness)


def test_a_plan_may_hold_igeo_parameters_for_geo():
    # an IgeoParams is a GeoParams, and geo_optimize reads only those fields
    plan = _plan(algorithms=("GEO",), geo=IgeoParams(population_size=2, iterations=2))
    assert math.isfinite(run_and_evaluate(plan, "GEO", _INSTANCE, 0)[0].fitness)
