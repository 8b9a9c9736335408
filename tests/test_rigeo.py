import hashlib
import json
import math
import multiprocessing
import os
import pickle
import signal
import sys
import threading
from dataclasses import replace
from fractions import Fraction
from statistics import fmean

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fogsched import (
    FitnessWeights,
    FogNode,
    IgeoParams,
    Instance,
    Link,
    RlConfig,
    ScenarioConfig,
    Topology,
    classify_nodes,
    generate_scenario,
    igeo_optimize,
    partition_tasks,
    rigeo_schedule,
)
from fogsched import rigeo
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


@pytest.mark.parametrize("traffic", [0.5, 0.1, 0.7])
def test_classify_nodes_all_equal_traffic(traffic):
    # fmean([0.1] * 3) rounds above 0.1 and fmean([0.7] * 3) below 0.7; no
    # node is strictly below the exact mean of equal traffics
    topology = _line_topology([traffic, traffic])
    c = classify_nodes(topology)
    assert c.average_traffic == fmean([traffic] * 3)
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


def test_reclassify_traffic_shift():
    before = classify_nodes(_line_topology([10.0, 30.0]))
    assert 0 in before.low_traffic_nodes
    # raising the first link's traffic far above the rest moves node 0 high:
    # node traffics become 100, 65, 30 with average 65
    after = classify_nodes(_line_topology([100.0, 30.0]))
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


@pytest.mark.parametrize("deadline,count", [(150.0, 4), (0.1, 3), (0.1, 12), (0.7, 6)])
def test_partition_tasks_all_equal(deadline, count):
    tasks = simple_tasks([(100.0, 0.0, deadline)] * count)
    p = partition_tasks(tasks)
    assert p.low_deadline_tasks == frozenset()
    assert p.deadline_threshold == fmean([deadline] * count)


def _fmean_or_none(values):
    try:
        return fmean(values)
    except OverflowError:
        return None


@settings(max_examples=300, deadline=None)
@given(st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=1, max_size=30)
       | st.lists(st.sampled_from([1e308, -1e308, sys.float_info.max, 5e-324, 0.0]), min_size=1))
def test_mean_split_compares_with_the_exact_mean(values):
    # the reported mean is fmean's, or where fmean's sum overflows, the exact mean rounded once
    average, low = rigeo._split_at_mean(dict(enumerate(values)), "values")
    exact = sum(map(Fraction, values)) / len(values)
    assert low == {i for i, v in enumerate(values) if Fraction(v) < exact}
    assert len(low) < len(values)
    expected = _fmean_or_none(values)
    assert average == (float(exact) if expected is None else expected)
    assert math.isfinite(average)


_BIG = sys.float_info.max


@pytest.mark.parametrize("loads,expected", [
    ([1e308, 1e308], [1e308, 1e308, 1e308]),
    ([_BIG, 1e308], [_BIG, float((Fraction(_BIG) + Fraction(1e308)) / 2), 1e308]),
])
def test_classify_nodes_takes_the_exact_mean_where_fmean_overflows(loads, expected):
    c = classify_nodes(_line_topology(loads))
    assert list(c.node_traffic.values()) == expected
    assert c.average_traffic == float(sum(map(Fraction, expected)) / 3)


def test_rigeo_schedules_two_deadlines_whose_sum_overflows(tmp_path, unit_weights):
    topology, tasks = generate_scenario(ScenarioConfig(n_tasks=8, n_nodes=4, rng_seed=0))
    tasks = [replace(t, deadline=1e308) if t.id < 2 else t for t in tasks]
    path = tmp_path / "summary.json"
    _, report = rigeo_schedule(
        Instance(topology, tasks),
        IgeoParams(population_size=4, iterations=5, rng_seed=0),
        RlConfig(episodes=20, rng_seed=0),
        unit_weights,
        summary_path=path,
    )
    assert math.isfinite(report.fitness)
    threshold = json.loads(path.read_text())["deadline"]["threshold"]
    assert threshold == float(sum(Fraction(t.deadline) for t in tasks) / 8)


@pytest.mark.parametrize("policy", ["median", "", None, True, math.nan, math.inf, -math.inf, [1.0]])
def test_partition_tasks_refuses_a_policy_not_mean_or_a_finite_number(policy):
    tasks = simple_tasks([(100.0, 0.0, 100.0), (100.0, 0.0, 900.0)])
    with pytest.raises(ValueError, match="threshold_policy"):
        partition_tasks(tasks, threshold_policy=policy)


@pytest.mark.parametrize("deadline", [math.nan, math.inf])
def test_mean_split_refuses_a_value_that_is_not_finite(deadline):
    tasks = simple_tasks([(100.0, 0.0, 100.0), (100.0, 0.0, deadline)])
    with pytest.raises(ValueError, match="deadlines must be finite"):
        partition_tasks(tasks)


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


# ---------------------------------------------------------------------------
# The RL half runs in a forked child; the inline call must give the same bits.

_SMALL_SEARCH = (
    IgeoParams(population_size=6, iterations=20, rng_seed=2),
    RlConfig(episodes=150, rng_seed=2),
)


def _rigeo_digest(instance, weights, threshold_policy="mean"):
    """sha256 of the pickled (assignment, report) of one RIGEO run."""
    result = rigeo_schedule(instance, *_SMALL_SEARCH, weights, threshold_policy=threshold_policy)
    return hashlib.sha256(pickle.dumps(result)).hexdigest()


def _recording_fork(pids):
    """``os.fork`` that appends each child's pid to ``pids``."""
    fork = os.fork

    def recording_fork():
        pid = fork()
        if pid:
            pids.append(pid)
        return pid

    return recording_fork


@pytest.fixture
def forks(monkeypatch):
    """The pids of the children ``os.fork`` makes during the test."""
    pids = []
    monkeypatch.setattr(os, "fork", _recording_fork(pids))
    return pids


def _two_tasks(traffic):
    tasks = simple_tasks([(200.0, 10.0, 100.0), (200.0, 10.0, 900.0)])
    return line_instance(tasks, n_nodes=3, traffic=traffic)


_CASES = {  # name -> (instance factory, deadline threshold, forks)
    "6x3": (lambda: make_instance(6, 3, seed=6), "mean", 1),
    "40x5": (lambda: make_instance(40, 5, seed=40), "mean", 1),
    "200x20": (lambda: make_instance(200, 20, seed=200), "mean", 1),
    "no-low-traffic-node": (lambda: _two_tasks([0.5, 0.5]), "mean", 1),  # all at the mean
    "all-low-deadline": (_routing_instance, 1e9, 0),
    "all-high-deadline": (_routing_instance, 0.0, 1),
}


@pytest.mark.parametrize("case", list(_CASES))
def test_forked_and_inline_rl_half_give_the_same_bits(monkeypatch, forks, unit_weights, case):
    make, threshold, n_forks = _CASES[case]
    classification = classify_nodes(make().topology)
    if case.startswith("no-low"):
        assert not classification.low_traffic_nodes
    forked = _rigeo_digest(make(), unit_weights, threshold)
    assert len(forks) == n_forks
    monkeypatch.delattr(os, "fork")
    assert _rigeo_digest(make(), unit_weights, threshold) == forked


def test_rl_half_runs_inline_while_another_thread_runs(forks, unit_weights):
    instance = make_instance(10, 4, seed=1)
    alone = _rigeo_digest(instance, unit_weights)
    release = threading.Event()
    other = threading.Thread(target=release.wait)
    other.start()
    try:
        assert _rigeo_digest(instance, unit_weights) == alone
    finally:
        release.set()
        other.join()
    assert len(forks) == 1  # the first run only


def _stranded_high_traffic_instance():
    """Nodes 0-1 and 2-3 with no link between the pairs; every device
    enters at node 0, so the high-traffic nodes 2 and 3 are unreachable."""
    nodes = tuple(
        FogNode(id=j, mips=1000.0, active_power=100.0, idle_power=10.0) for j in range(4)
    )
    links = (
        Link(endpoints=(0, 1), bandwidth=100.0, propagation_delay=1.0, traffic_load=0.1),
        Link(endpoints=(2, 3), bandwidth=100.0, propagation_delay=1.0, traffic_load=0.9),
    )
    tasks = simple_tasks([(200.0, 10.0, 100.0), (200.0, 10.0, 900.0)])
    gateways = {t.source_device: 0 for t in tasks}
    return Instance(Topology(nodes=nodes, links=links, device_gateways=gateways), tasks)


def test_rl_half_value_error_reaches_the_caller(forks, unit_weights):
    with pytest.raises(ValueError, match="no route from gateway of task 1 to any candidate node"):
        rigeo_schedule(_stranded_high_traffic_instance(), *_SMALL_SEARCH, unit_weights)
    assert len(forks) == 1


def test_rl_half_exception_keeps_its_type_and_message(monkeypatch, forks, unit_weights):
    def failing_rl(*args, **kwargs):
        raise ValueError("the RL half failed")

    monkeypatch.setattr(rigeo, "rl_optimize", failing_rl)
    with pytest.raises(ValueError, match="^the RL half failed$"):
        rigeo_schedule(_routing_instance(), *_SMALL_SEARCH, unit_weights)
    assert len(forks) == 1


class _TwoArgumentError(Exception):
    """Pickles, but cannot be rebuilt from its one-element ``args``."""

    def __init__(self, first, second):
        super().__init__(f"{first} and {second}")


def _local_error():
    class LocalError(Exception):  # a local class cannot be pickled
        pass

    return LocalError("not picklable")


@pytest.mark.parametrize("make,message", [
    (_local_error, "LocalError: not picklable"),
    (lambda: _TwoArgumentError("this", "that"), "_TwoArgumentError: this and that"),
])
def test_rl_half_exception_that_does_not_round_trip_becomes_runtime_error(
    monkeypatch, forks, unit_weights, make, message
):
    def failing_rl(*args, **kwargs):
        raise make()

    monkeypatch.setattr(rigeo, "rl_optimize", failing_rl)
    with pytest.raises(RuntimeError, match=f"^{message}$"):
        rigeo_schedule(_routing_instance(), *_SMALL_SEARCH, unit_weights)
    assert len(forks) == 1


def test_killed_rl_half_raises_runtime_error(monkeypatch, forks, unit_weights):
    parent = os.getpid()

    def dying_rl(*args, **kwargs):
        assert os.getpid() != parent, "the RL half ran inline"
        os.kill(os.getpid(), signal.SIGKILL)

    monkeypatch.setattr(rigeo, "rl_optimize", dying_rl)
    with pytest.raises(RuntimeError, match=r"RL half \(pid \d+\) was killed by signal 9"):
        rigeo_schedule(_routing_instance(), *_SMALL_SEARCH, unit_weights)
    assert len(forks) == 1
    with pytest.raises(ChildProcessError):
        os.waitpid(forks[0], os.WNOHANG)


def test_igeo_half_exception_leaves_no_unreaped_child(monkeypatch, forks, unit_weights):
    def failing_igeo(*args, **kwargs):
        raise ValueError("the IGEO half failed")

    monkeypatch.setattr(rigeo, "igeo_optimize", failing_igeo)
    with pytest.raises(ValueError, match="the IGEO half failed"):
        rigeo_schedule(_routing_instance(), *_SMALL_SEARCH, unit_weights)
    assert len(forks) == 1
    with pytest.raises(ChildProcessError):  # already reaped
        os.waitpid(forks[0], os.WNOHANG)


def _digest_in_pool_worker(_):
    """(daemonic?, forks made, RIGEO digest) inside a pool worker."""
    pids = []
    fork = os.fork
    os.fork = _recording_fork(pids)
    try:
        digest = _rigeo_digest(make_instance(40, 5, seed=3), FitnessWeights())
    finally:
        os.fork = fork
    return multiprocessing.current_process().daemon, len(pids), digest


def test_rigeo_in_a_daemonic_pool_worker(monkeypatch, unit_weights):
    with multiprocessing.get_context("fork").Pool(1) as pool:
        daemon, n_forks, digest = pool.apply(_digest_in_pool_worker, (None,))
    assert daemon and n_forks == 1
    monkeypatch.delattr(os, "fork")
    assert digest == _rigeo_digest(make_instance(40, 5, seed=3), unit_weights)
