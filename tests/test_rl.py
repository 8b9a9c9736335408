import copy
import io
import math
import pickle
from dataclasses import replace

import numpy as np
import pytest

from fogsched import (
    FitnessWeights,
    FogNode,
    Instance,
    PolicyState,
    RlConfig,
    Topology,
    rl_episode,
    rl_init,
    rl_optimize,
)
from fogsched.geo import _SubProblem
from fogsched.metrics import Evaluator

from conftest import make_instance, simple_tasks
from oracle import exhaustive_best


def two_node_instance(tasks):
    nodes = (
        FogNode(id=0, mips=4000.0, active_power=80.0, idle_power=8.0),
        FogNode(id=1, mips=500.0, active_power=200.0, idle_power=20.0),
    )
    from fogsched import Link

    links = (Link(endpoints=(0, 1), bandwidth=500.0, propagation_delay=1.0, traffic_load=0.5),)
    gateways = {t.source_device: 0 for t in tasks}
    return Instance(Topology(nodes=nodes, links=links, device_gateways=gateways), tasks)


def test_rl_init_uniform(small_instance, unit_weights):
    state = rl_init(small_instance, [0, 1, 2, 3, 4, 5], [0, 1, 2], RlConfig(rng_seed=4), unit_weights)
    assert state.preference.shape == (6, 3)
    assert np.allclose(state.preference, 1.0 / 3.0)
    assert state.best_seen[1] == state.fitness


def test_empty_columns_fall_back_to_uniform(small_instance, unit_weights):
    # one candidate and a floor of 1: the update leaves no mass above the
    # floor in any column, so every episode takes the uniform fallback;
    # without it the projection divides 0 by 0
    config = RlConfig(probability_floor=1.0, rng_seed=3)
    state = rl_init(small_instance, [0, 1, 2, 3, 4, 5], [1], config, unit_weights)
    rng = np.random.default_rng(3)
    for _ in range(5):
        state = rl_episode(state, small_instance, unit_weights, config, rng)
        assert state.preference.tolist() == [[1.0]] * 6


def test_rl_init_empty_tasks(small_instance, unit_weights):
    with pytest.raises(ValueError, match="task set must be nonempty"):
        rl_init(small_instance, [], [0, 1], RlConfig(rng_seed=0), unit_weights)


def test_rl_init_deterministic(small_instance, unit_weights):
    a = rl_init(small_instance, [0, 1, 2], [0, 1, 2], RlConfig(rng_seed=8), unit_weights)
    b = rl_init(small_instance, [0, 1, 2], [0, 1, 2], RlConfig(rng_seed=8), unit_weights)
    assert np.array_equal(a.assignment, b.assignment)


def test_rl_init_rejects_empty_candidates(small_instance, unit_weights):
    with pytest.raises(ValueError):
        rl_init(small_instance, [0], [], RlConfig(), unit_weights)


def test_rl_episode_updates_preferences(small_instance, unit_weights):
    config = RlConfig(rng_seed=5)
    state = rl_init(small_instance, [0, 1, 2, 3, 4, 5], [0, 1, 2], config, unit_weights)
    rng = np.random.default_rng(5)
    rows = np.arange(6)
    floor = config.probability_floor
    for _ in range(200):
        nxt = rl_episode(state, small_instance, unit_weights, config, rng)
        assert np.allclose(nxt.preference.sum(axis=1), 1.0, atol=1e-9)
        assert (nxt.preference >= floor - 1e-12).all()
        before = state.preference[rows, nxt.assignment]
        after = nxt.preference[rows, nxt.assignment]
        if nxt.fitness < state.fitness:
            assert (after > before - 1e-15).all()
            assert after.sum() > before.sum()  # strictly reinforced overall
        else:
            assert (after <= before + 1e-12).all()
        assert nxt.best_seen[1] <= state.best_seen[1]
        state = nxt


def test_rl_learns_dominant_assignment(unit_weights):
    tasks = simple_tasks([(400.0, 10.0, 200.0), (400.0, 10.0, 300.0)])
    instance = two_node_instance(tasks)
    _, optimum = exhaustive_best(instance, unit_weights)
    hits = 0
    for seed in range(50):
        _, fit = rl_optimize(
            instance, [0, 1], [0, 1], RlConfig(episodes=500, rng_seed=seed), unit_weights
        )
        if fit <= optimum * (1 + 1e-9):
            hits += 1
    assert hits >= 48  # >= 95% of seeds


def test_rl_single_candidate(small_instance, unit_weights):
    assignment, _ = rl_optimize(
        small_instance, [1], [0, 1, 2], RlConfig(episodes=3, rng_seed=0), unit_weights
    )
    assert set(assignment.mapping.values()) == {1}


def test_rl_empty_tasks(small_instance, unit_weights):
    with pytest.raises(ValueError, match="task set must be nonempty"):
        rl_optimize(small_instance, [0, 1], [], RlConfig(rng_seed=0), unit_weights)


def test_rl_one_episode_returns_better_of_two(small_instance, unit_weights):
    config = RlConfig(episodes=1, rng_seed=17)
    state = rl_init(small_instance, [0, 1, 2, 3, 4, 5], [0, 1, 2], config, unit_weights)
    _, fit = rl_optimize(small_instance, [0, 1, 2], [0, 1, 2, 3, 4, 5], config, unit_weights)
    assert fit <= state.best_seen[1]


def test_rl_optimize_deterministic(small_instance, unit_weights):
    config = RlConfig(episodes=50, rng_seed=3)
    a1, f1 = rl_optimize(small_instance, [0, 1, 2], [0, 1, 2, 3, 4, 5], config, unit_weights)
    a2, f2 = rl_optimize(small_instance, [0, 1, 2], [0, 1, 2, 3, 4, 5], config, unit_weights)
    assert a1.mapping == a2.mapping and f1 == f2


def test_rl_best_seen_monotone(small_instance, unit_weights):
    trace = []
    rl_optimize(
        small_instance, [0, 1, 2], [0, 1, 2, 3, 4, 5],
        RlConfig(episodes=300, rng_seed=9), unit_weights, trace=trace,
    )
    best = [row[2] for row in trace]
    assert all(b2 <= b1 for b1, b2 in zip(best, best[1:]))


def test_rl_pure_random_search_mode(small_instance, unit_weights):
    # exploration pinned at 1 degenerates to random search; best still improves weakly
    config = RlConfig(episodes=200, exploration_rate=1.0, exploration_decay=1.0,
                      learning_rate=0.05, rng_seed=2)
    trace = []
    _, fit = rl_optimize(small_instance, [0, 1, 2], [0, 1, 2, 3, 4, 5], config, unit_weights, trace=trace)
    best = [row[2] for row in trace]
    assert all(b2 <= b1 for b1, b2 in zip(best, best[1:]))
    assert best[-1] <= best[0]


def test_rl_near_optimal_small_instance(unit_weights):
    instance = make_instance(6, 3, seed=13)
    _, optimum = exhaustive_best(instance, unit_weights)
    hits = 0
    for seed in range(20):
        _, fit = rl_optimize(
            instance, [0, 1, 2], [0, 1, 2, 3, 4, 5],
            RlConfig(episodes=2000, rng_seed=seed), unit_weights,
        )
        if fit <= optimum * 1.05:
            hits += 1
    assert hits >= 18  # >= 90%


@pytest.mark.parametrize("n_tasks,n_nodes,seed", [(6, 3, 7), (40, 9, 2)])
def test_rl_optimize_matches_stepped_episodes(unit_weights, n_tasks, n_nodes, seed):
    # rl_optimize must replay exactly as repeated calls to the public
    # single-episode function with the same generator, on the list stepper
    # (6 x 3) and on the numpy one (40 x 9)
    instance = make_instance(n_tasks, n_nodes, seed=seed)
    tasks, nodes = range(n_tasks), range(n_nodes)
    config = RlConfig(episodes=80, rng_seed=6)
    assignment, fit = rl_optimize(instance, nodes, tasks, config, unit_weights)
    state = rl_init(instance, tasks, nodes, config, unit_weights)
    rng = np.random.default_rng(config.rng_seed + 1)
    for _ in range(config.episodes):
        state = rl_episode(state, instance, unit_weights, config, rng)
    genome, best = state.best_seen
    assert fit == best
    assert assignment.mapping == {
        task: state.candidate_nodes[g] for task, g in zip(state.task_ids, genome)
    }


@pytest.mark.parametrize("assignment", [
    np.full(6, -1), np.full(6, 7), np.full(6, 3), np.zeros(5, dtype=np.intp),
    np.zeros((6, 1), dtype=np.intp), np.zeros(6), np.zeros(6, dtype=bool),
])
def test_rl_episode_rejects_assignment_outside_candidates(small_instance, unit_weights, assignment):
    # exploration copies the caller's assignment into the scored genome
    config = RlConfig(exploration_rate=1.0)
    state = rl_init(small_instance, range(6), [0, 1, 2], config, unit_weights)
    state = replace(state, assignment=assignment)
    with pytest.raises(ValueError, match="assignment"):
        rl_episode(state, small_instance, unit_weights, config, np.random.default_rng(0))


def test_rl_optimize_builds_one_subproblem(monkeypatch, small_instance, unit_weights):
    from fogsched import rl

    built = []

    class Counting(rl._SubProblem):
        def __init__(self, *args):
            built.append(args)
            super().__init__(*args)

    monkeypatch.setattr(rl, "_SubProblem", Counting)
    rl_optimize(small_instance, [0, 1, 2], range(6), RlConfig(episodes=5), unit_weights)
    assert len(built) == 1


def test_rl_episode_scores_on_the_instance_and_weights_it_is_called_with(small_instance, unit_weights):
    # a state stepped with another instance or other weights than it was
    # made with is scored on what the call names
    config = RlConfig(rng_seed=2)
    state = rl_init(small_instance, range(6), [0, 1, 2], config, unit_weights)
    rng = np.random.default_rng(2)
    for _ in range(10):
        state = rl_episode(state, small_instance, unit_weights, config, rng)
    stale = _SubProblem(small_instance, state.candidate_nodes, state.task_ids, unit_weights)
    other = make_instance(6, 3, seed=8)
    for instance, weights in ((other, unit_weights), (small_instance, FitnessWeights(w_energy=2.0))):
        nxt = rl_episode(state, instance, weights, config, np.random.default_rng(5))
        problem = _SubProblem(instance, state.candidate_nodes, state.task_ids, weights)
        assert nxt.fitness == problem.fitness_of(nxt.assignment)
        assert nxt.fitness != stale.fitness_of(nxt.assignment)


def test_a_stepped_state_pickles_and_copies(small_instance, unit_weights):
    # a pickled or deep-copied state steps as the original does
    config = RlConfig(rng_seed=4)
    state = rl_init(small_instance, range(6), [0, 1, 2], config, unit_weights)
    state = rl_episode(state, small_instance, unit_weights, config, np.random.default_rng(4))
    want = rl_episode(state, small_instance, unit_weights, config, np.random.default_rng(7))
    for twin in (pickle.loads(pickle.dumps(state)), copy.deepcopy(state)):
        got = rl_episode(twin, small_instance, unit_weights, config, np.random.default_rng(7))
        assert got.assignment.tobytes() == want.assignment.tobytes()
        assert got.preference.tobytes() == want.preference.tobytes()
        assert (got.fitness, got.best_seen[1]) == (want.fitness, want.best_seen[1])


def test_a_stepped_state_pickles_without_its_instance(unit_weights):
    # a state holds only its values: no instance, evaluator tables or
    # fitness cache travel with it
    instance = make_instance(600, 20, seed=1)
    config = RlConfig(rng_seed=1)
    state = rl_init(instance, range(600), range(20), config, unit_weights)
    rng = np.random.default_rng(1)
    for _ in range(5):
        state = rl_episode(state, instance, unit_weights, config, rng)
    pickled = []

    class Recording(pickle.Pickler):
        def persistent_id(self, obj):
            pickled.append(type(obj))
            return None

    Recording(io.BytesIO()).dump(state)
    assert PolicyState in pickled and np.ndarray in pickled
    assert not {Instance, Evaluator, _SubProblem} & set(pickled)


def test_rl_overflow_reads_inf_without_warning(unit_weights):
    # fitnesses beyond float range read inf under pytest's
    # error::RuntimeWarning filter, in every RL entry point
    base = make_instance(6, 3, seed=1)
    nodes = tuple(replace(node, active_power=1e10) for node in base.topology.nodes)
    instance = Instance(
        replace(base.topology, nodes=nodes), [replace(t, length=1e300) for t in base.tasks]
    )
    config = RlConfig(episodes=20, rng_seed=1)
    state = rl_init(instance, range(6), range(3), config, unit_weights)
    assert state.fitness == math.inf
    state = rl_episode(state, instance, unit_weights, config, np.random.default_rng(0))
    assert state.fitness == state.best_seen[1] == math.inf
    assert rl_optimize(instance, range(3), range(6), config, unit_weights)[1] == math.inf


def test_rl_config_validation():
    with pytest.raises(ValueError):
        RlConfig(episodes=0)
    with pytest.raises(ValueError):
        RlConfig(learning_rate=0.0)
    with pytest.raises(ValueError):
        RlConfig(exploration_rate=1.5)
    with pytest.raises(ValueError):
        RlConfig(penalty_value=0.0)


@pytest.mark.parametrize(
    "field,value",
    [
        ("episodes", math.nan),
        ("episodes", 2.5),
        ("episodes", -1),
        ("rng_seed", -1),
        ("rng_seed", 1.5),
        ("learning_rate", math.nan),
        ("learning_rate", math.inf),
        ("exploration_rate", math.nan),
        ("exploration_rate", -0.1),
        ("exploration_decay", math.nan),
        ("exploration_decay", -0.5),
        ("exploration_decay", 1.5),
        ("reward_value", math.nan),
        ("reward_value", math.inf),
        ("reward_value", -1.0),
        ("penalty_value", math.nan),
        ("penalty_value", math.inf),
        ("penalty_value", -1.0),
        ("probability_floor", math.nan),
        ("probability_floor", math.inf),
        ("probability_floor", -0.01),
        ("probability_floor", 1.5),
    ],
)
def test_rl_config_rejects_nonfinite_or_out_of_range(field, value):
    with pytest.raises(ValueError, match=field):
        RlConfig(**{field: value})


@pytest.mark.parametrize(
    "fields",
    [
        {"learning_rate": 1.0, "penalty_value": 1.0},
        {"learning_rate": 0.5, "penalty_value": 4.0, "reward_value": 2.0},
    ],
)
def test_rl_config_rejects_penalty_that_erases_preferences(fields):
    # a decay factor of 1 - 1 = 0 left a one-candidate policy dividing 0/0
    with pytest.raises(ValueError, match="penalty_value"):
        RlConfig(**fields)


def test_rl_config_accepts_range_ends():
    RlConfig(exploration_decay=0.0, probability_floor=0.0)
    RlConfig(exploration_decay=1.0, probability_floor=1.0, learning_rate=1.0)


def test_rl_rejects_unreachable_candidates(unit_weights):
    from conftest import unlinked_instance

    instance = unlinked_instance(simple_tasks([(100.0, 10.0, 50.0)] * 3))
    with pytest.raises(ValueError, match="no route"):
        rl_optimize(instance, [1], [0, 1, 2], RlConfig(rng_seed=0), unit_weights)
    assignment, fit = rl_optimize(
        instance, [0, 1], [0, 1, 2], RlConfig(episodes=200, rng_seed=0), unit_weights
    )
    assert set(assignment.mapping.values()) == {0}
    assert np.isfinite(fit)
