"""Both RL steppers, the numpy one on a ``(k, n)`` matrix and the one on a
flat Python list, against the ``(n, k)`` stepper they replaced: from the
same generator each must sample the same assignments, see the same
fitnesses and end with the same preferences, bit for bit."""

import itertools
from functools import partial

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from fogsched import FitnessWeights, RlConfig, rl, rl_episode, rl_init, rl_optimize
from fogsched.geo import _SubProblem
from fogsched.rl import _LIST_POLICY_CELLS, _column_totals, _list_stepper, _stepper

from conftest import make_instance
from rl_reference import reference_stepper

TASK_COUNTS = (1, 2, 6, 300)
CANDIDATE_COUNTS = (1, 2, 3, 7, 8, 9, 16, 17, 20, 129, 130)
STEPPERS = ("numpy", "list")


def steppers(k):
    """The steppers of a policy of k candidates: the list one takes fewer than 8."""
    return STEPPERS if k < 8 else ("numpy",)


def synthetic_fitness(n, k, seed):
    """A fixed cost per (task, candidate); the fitness of an assignment is
    the sum of its costs, so consecutive samples both improve and worsen."""
    cost = np.random.default_rng(seed).random((n, k))
    tasks = np.arange(n)
    return lambda sampled: float(cost[tasks, sampled].sum())


def replay_both(n, k, config, episodes, seed, fitness_of=None, stepper="numpy", list_fitness=None):
    """Run the reference and ``stepper`` from uniform preferences and the
    same generator seed; returns per-episode (sampled, fitness) of each,
    both final preference matrices in ``(n, k)`` form and how often each
    branch ran.  The list stepper scores with ``list_fitness`` if given,
    else with ``fitness_of``."""
    fitness_of = fitness_of or synthetic_fitness(n, k, seed)
    reference = np.full((n, k), 1.0 / k)
    matrix = np.full((k, n), 1.0 / k)
    ref_step = reference_stepper(fitness_of, config, n, k)
    if stepper == "numpy":
        new_step, start = _stepper(fitness_of, config, matrix), np.zeros(n, dtype=np.intp)
    else:
        policy = matrix.ravel().tolist()
        new_step, start = _list_stepper(list_fitness or fitness_of, config, policy, n), [0] * n
    runs = []
    branches = {"reinforced": 0, "decayed": 0}
    ref_start = np.zeros(n, dtype=np.intp)
    for take, assignment in ((lambda *a: ref_step(reference, *a), ref_start), (new_step, start)):
        rng = np.random.default_rng(seed)
        fitness = np.inf
        exploration = config.exploration_rate
        rows = []
        for _ in range(episodes):
            sampled, fit = take(assignment, fitness, exploration, rng)
            branches["reinforced" if fit < fitness else "decayed"] += 1
            rows.append((sampled.copy(), fit))
            assignment, fitness = sampled, fit
            exploration *= config.exploration_decay
        runs.append(rows)
    if stepper == "list":
        matrix = np.array(policy).reshape(k, n)
    return runs, reference, matrix.T, branches


def assert_replays_agree(runs, reference, final):
    for (ref_sampled, ref_fit), (sampled, fit) in zip(*runs):
        if isinstance(sampled, list):
            assert set(map(type, sampled)) == {int}
        else:
            assert sampled.dtype == ref_sampled.dtype
        assert np.array_equal(sampled, ref_sampled)
        assert fit == ref_fit
    assert len(runs[0]) == len(runs[1])
    assert reference.tobytes() == np.ascontiguousarray(final).tobytes()


@pytest.mark.parametrize("k", CANDIDATE_COUNTS)
@pytest.mark.parametrize("n", TASK_COUNTS)
def test_stepper_matches_reference_grid(n, k, monkeypatch):
    # a floor of 0.9 is clamped to 1/k.  A column still keeps mass above
    # it: a reinforced column on its sampled row, a decayed one on the rows
    # its normalising divide lifts.  Only a floor of 1 with one candidate
    # leaves a column no mass above the floor, which takes the projection's
    # uniform fallback.  The list stepper's totals are watched through the
    # zero check's "in", which a fallback that never ran would turn into a
    # ZeroDivisionError
    zero_totals = []
    column_totals = rl._column_totals

    def watched(matrix):
        totals = column_totals(matrix)

        def call():
            out = totals()
            zero_totals.append(np.count_nonzero(out) < out.size)
            return out

        return call

    monkeypatch.setattr(rl, "_column_totals", watched)
    configs = (
        RlConfig(rng_seed=0),
        RlConfig(exploration_rate=0.0, probability_floor=0.9, learning_rate=0.3),
        RlConfig(probability_floor=1.0),
    )
    for stepper, config in itertools.product(steppers(k), configs):
        zero_totals.clear()
        runs, reference, final, branches = replay_both(
            n, k, config, episodes=30, seed=n * 1000 + k, stepper=stepper
        )
        assert_replays_agree(runs, reference, final)
        assert branches["reinforced"] > 0 and branches["decayed"] > 0
        if stepper == "numpy":
            # a zero column total is the condition of the fallback branch
            assert any(zero_totals) == (k == 1 and config.probability_floor == 1.0)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_stepper_matches_reference(data):
    n = data.draw(st.sampled_from(TASK_COUNTS), label="n")
    k = data.draw(st.sampled_from(CANDIDATE_COUNTS), label="k")
    learning_rate = data.draw(st.sampled_from([0.01, 0.05, 0.5, 1.0]), label="learning_rate")
    penalty_value = data.draw(st.sampled_from([0.1, 1.0, 5.0]), label="penalty_value")
    assume(learning_rate * penalty_value < 1.0)
    config = RlConfig(
        learning_rate=learning_rate,
        exploration_rate=data.draw(st.sampled_from([0.0, 0.3, 1.0]), label="exploration_rate"),
        exploration_decay=data.draw(st.sampled_from([0.9, 0.995, 1.0]), label="exploration_decay"),
        penalty_value=penalty_value,
        probability_floor=data.draw(
            st.sampled_from([0.0, 0.01, 1.0 / k, 0.45, 1.0]), label="probability_floor"
        ),
    )
    seed = data.draw(st.integers(0, 2**32 - 1), label="seed")
    episodes = data.draw(st.integers(1, 40), label="episodes")
    stepper = data.draw(st.sampled_from(steppers(k)), label="stepper")
    assert_replays_agree(*replay_both(n, k, config, episodes, seed, stepper=stepper)[:3])


@pytest.mark.parametrize("n_tasks,n_nodes", [(6, 3), (40, 9), (200, 20)])
def test_stepper_matches_reference_on_instance(n_tasks, n_nodes):
    # real fitnesses from the optimizers' sub-problem; the list stepper
    # finds the reference's samples in its cache through fitness_of_list
    instance = make_instance(n_tasks, n_nodes, seed=n_tasks)
    problem = _SubProblem(
        instance, [node.id for node in instance.topology.nodes],
        [t.id for t in instance.tasks], FitnessWeights(),
    )
    for stepper in steppers(n_nodes):
        runs, reference, final, branches = replay_both(
            n_tasks, n_nodes, RlConfig(), episodes=150, seed=3, fitness_of=problem.fitness_of,
            stepper=stepper, list_fitness=problem.fitness_of_list,
        )
        assert_replays_agree(runs, reference, final)
        assert branches["reinforced"] > 0 and branches["decayed"] > 0


def _log_call(log, name, function, *args):
    log.append(name)
    return function(*args)


def test_rl_optimize_replays_reference_loop(monkeypatch, unit_weights):
    # rl_optimize's trace and result equal the old loop on the old stepper,
    # stepping a policy of fewer than 8 candidates and at most
    # _LIST_POLICY_CELLS cells k * n on a list
    picked = []
    for name in ("_stepper", "_list_stepper"):
        monkeypatch.setattr(rl, name, partial(_log_call, picked, name, getattr(rl, name)))
    shapes = [
        (30, [1, 2, 4, 5]), (_LIST_POLICY_CELLS // 2, [1, 2]), (_LIST_POLICY_CELLS // 2 + 1, [1, 2]),
        (_LIST_POLICY_CELLS // 9, list(range(9))),
    ]
    for n_tasks, nodes in shapes:
        picked.clear()
        instance = make_instance(n_tasks, max(6, len(nodes)), seed=2)
        task_ids = [t.id for t in instance.tasks]
        config = RlConfig(episodes=300, rng_seed=4)
        trace = []
        _, fit = rl_optimize(instance, nodes, task_ids, config, unit_weights, trace=trace)
        small = len(nodes) < 8 and len(nodes) * n_tasks <= _LIST_POLICY_CELLS
        assert picked == ["_list_stepper" if small else "_stepper"]

        state = rl_init(instance, task_ids, nodes, config, unit_weights)
        problem = _SubProblem(instance, state.candidate_nodes, state.task_ids, unit_weights)
        preference = np.array(state.preference)
        step = reference_stepper(problem.fitness_of, config, *preference.shape)
        rng = np.random.default_rng(config.rng_seed + 1)
        assignment, fitness, best = state.assignment, state.fitness, state.best_seen[1]
        exploration = state.exploration
        expected = []
        for episode in range(config.episodes):
            assignment, fitness = step(preference, assignment, fitness, exploration, rng)
            best = min(best, fitness)
            exploration *= config.exploration_decay
            expected.append((episode, float(fitness), float(best), exploration))
        assert trace == expected
        assert fit == best


@pytest.mark.parametrize("k", [*range(1, 21), 127, 128, 129, 130, 256, 300])
def test_column_totals_add_in_numpy_pairwise_order(k):
    # fails if numpy changes how it sums a contiguous row
    rng = np.random.default_rng(k)
    for n in (1, 5, 64):
        matrix = rng.random((k, n)) * rng.choice([1e-6, 1.0, 1e6], size=(k, n))
        expected = np.ascontiguousarray(matrix.T).sum(axis=1)
        assert _column_totals(matrix)().tobytes() == expected.tobytes()


def test_column_totals_follow_matrix_updates():
    matrix = np.random.default_rng(0).random((20, 7))
    totals = _column_totals(matrix)
    totals()
    matrix *= 3.0
    assert totals().tobytes() == np.ascontiguousarray(matrix.T).sum(axis=1).tobytes()


def test_rl_episode_leaves_input_state_unchanged(small_instance, unit_weights):
    config = RlConfig(rng_seed=1)
    state = rl_init(small_instance, [0, 1, 2, 3, 4, 5], [0, 1, 2], config, unit_weights)
    rng = np.random.default_rng(1)
    for _ in range(30):
        preference, assignment = state.preference.copy(), state.assignment.copy()
        nxt = rl_episode(state, small_instance, unit_weights, config, rng)
        assert state.preference.tobytes() == preference.tobytes()
        assert np.array_equal(state.assignment, assignment)
        assert nxt.preference.shape == (6, 3)
        assert not np.shares_memory(nxt.preference, state.preference)
        state = nxt


@pytest.mark.parametrize("floor", [0.0, 0.01])
@pytest.mark.parametrize("exploration_rate", [0.0, 1.0])
def test_steppers_agree_from_a_negative_zero_preference(floor, exploration_rate):
    # the list stepper's "0.0 if d < 0.0 else d" keeps d = -0.0, which the
    # numpy stepper's clamp makes +0.0; the projection q * scale / t + floor
    # maps both to one value, so the two end with the same bits
    d = -0.0
    assert np.signbit(0.0 if d < 0.0 else d) and not np.signbit(np.maximum(d, 0.0))
    n, k = 4, 3
    start = np.full((k, n), 1.0 / k)
    start[:, 1] = (-0.0, 0.5, 0.5)
    config = RlConfig(probability_floor=floor, exploration_rate=exploration_rate)
    fitness_of = synthetic_fitness(n, k, 11)
    matrix, policy = start.copy(), start.ravel().tolist()
    runs = []
    for step, assignment in (
        (_stepper(fitness_of, config, matrix), np.zeros(n, dtype=np.intp)),
        (_list_stepper(fitness_of, config, policy, n), [0] * n),
    ):
        rng = np.random.default_rng(5)
        fitness, rows = np.inf, []
        for _ in range(12):
            assignment, fitness = step(assignment, fitness, exploration_rate, rng)
            rows.append((list(map(int, assignment)), fitness))
        runs.append(rows)
    assert runs[0] == runs[1]
    assert matrix.tobytes() == np.array(policy).reshape(k, n).tobytes()
    assert not np.signbit(matrix).any()
