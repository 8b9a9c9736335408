"""Reward/penalty assigner for relaxed-deadline tasks.

The learner keeps one preference distribution over candidate nodes per task
(a learning-automata formulation: a value table over whole assignment arrays
would be astronomically large).  Each episode samples a fresh assignment,
compares its fitness to the previous one, and reinforces or decays the
chosen node of every task accordingly.

The preferences live in a C-contiguous ``(k, n)`` matrix: one row per
candidate node, one column per task.  With k candidates (20 by default)
and hundreds of tasks, every per-task operation of an episode (cumulative
sum, sampling count, column totals, normalising divide) is then a few
length-n numpy calls instead of a reduction over n rows of only k entries,
where per-row overhead dominates.  ``PolicyState.preference`` shows the
matrix as its ``(n, k)`` transpose.  The column totals add in numpy's
pairwise order for a contiguous row of k entries, and the cumulative sums
add row after row, so every sample, fitness and preference is bit for bit
what the row-per-task layout computes (``tests/rl_reference.py``).

The episode code calls numpy's ufuncs and C methods directly: no ndarray
reduction method (``.sum``, ``.any``, ``.all``, ``.min``, ``.max``) and no
``np.flatnonzero`` or ``np.*_along_axis``.  Those pay a Python-level
wrapper on every call, and at 6 tasks x 3 nodes, where an array holds a few
dozen numbers, the wrapper costs more than the arithmetic.
``tests/test_hot_loops.py`` checks the rule.

Even so, a numpy episode is some 35 calls whatever the policy's size, so
on a small policy it costs its fixed call overhead.  The one episode
loop, ``_run``, which ``rl_episode`` and ``rl_optimize`` both run,
therefore steps a policy of fewer than 8 candidates and at most
``_LIST_POLICY_CELLS`` cells k * n on the same matrix held as a flat
Python list (``_list_stepper``), whose cost grows with the cell count
instead: at 6 x 3 with a warm fitness cache an episode took about 0.65x
the numpy one, and the two met at about 40 cells.  Both layouts give the
same bits: every preference goes through the same IEEE double operations
in the same order (a Python float operation rounds as the numpy one
does), the list's column totals add row after row as ``_pairwise_ops``
adds fewer than 8 rows, and the uniform draws are the same numpy calls.
Both score a sample through the one function ``_SubProblem.scorer()``
makes for the run: the numpy stepper samples in the key dtype, which is
the narrowest unsigned type that counts to k - 1, and the list stepper's
list keys without numpy.  A ``PolicyState`` holds its assignments as
``intp``, and only its values: ``rl_episode`` scores on the instance and
weights it is called with.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from operator import add
from typing import Optional

import numpy as np

from .geo import _checked_genome, _SubProblem
from .metrics import FitnessWeights
from .model import Instance, check_fields

__all__ = ["RlConfig", "PolicyState", "rl_init", "rl_episode", "rl_optimize"]


@dataclass(frozen=True)
class RlConfig:
    episodes: int = 2000
    learning_rate: float = 0.05
    exploration_rate: float = 0.3
    exploration_decay: float = 0.995
    reward_value: float = 1.0
    penalty_value: float = 0.1
    probability_floor: float = 0.01
    rng_seed: int = 0

    __post_init__ = check_fields


@dataclass(frozen=True)
class PolicyState:
    task_ids: tuple
    candidate_nodes: tuple
    assignment: np.ndarray  # candidate index per task
    preference: np.ndarray  # (n, k): per-task distribution over candidates
    best_seen: tuple  # (assignment array, fitness)
    fitness: float  # fitness of the current assignment
    exploration: float


def rl_init(
    instance: Instance,
    tasks,
    candidate_nodes,
    config: RlConfig,
    weights: FitnessWeights,
) -> PolicyState:
    """Uniform preferences; the initial assignment is sampled from them."""
    return _initial_state(_SubProblem(instance, candidate_nodes, tasks, weights, 1), config)


@np.errstate(over="ignore", invalid="ignore")  # as geo.geo_optimize
def _initial_state(problem: _SubProblem, config: RlConfig) -> PolicyState:
    rng = np.random.default_rng(config.rng_seed)
    k, n = problem.n_candidates, problem.dim
    preference = np.full((k, n), 1.0 / k).T
    assignment = rng.integers(0, k, size=n, dtype=np.intp)
    fit = problem.scorer()(assignment.astype(problem.key_dtype))
    return PolicyState(
        task_ids=tuple(problem.task_ids),
        candidate_nodes=tuple(problem.candidates),
        assignment=assignment,
        preference=preference,
        best_seen=(assignment.copy(), fit),
        fitness=fit,
        exploration=config.exploration_rate,
    )


def _column_totals(matrix: np.ndarray):
    """Return a function that writes the column sums of the C-contiguous
    ``(k, n)`` ``matrix`` into one reused ``(n,)`` buffer and returns it.

    Each column is added in the order numpy's pairwise summation adds a
    contiguous length-k row: below k = 8 one running sum; up to k = 128
    eight interleaved lanes combined as ((r0+r1)+(r2+r3))+((r4+r5)+(r6+r7))
    and then the remaining rows one by one; above that the two halves split
    at a multiple of 8 and summed separately.  So the totals equal the row
    sums of the ``(n, k)`` transpose bit for bit (``matrix.sum(axis=0)``
    adds sequentially and differs once k >= 8).  Each step is one numpy
    call on views made once, here, instead of n reductions over k entries."""
    ops, total = _pairwise_ops(matrix)

    def totals():
        for op, args in ops:
            op(*args)
        return total

    return totals


def _pairwise_ops(matrix: np.ndarray):
    """The ``(function, arguments)`` calls of ``_column_totals`` and the
    buffer the last one writes."""
    k, n = matrix.shape
    total = np.empty(n)
    if k > 128:
        half = k // 2 - (k // 2) % 8
        left, left_total = _pairwise_ops(matrix[:half])
        right, right_total = _pairwise_ops(matrix[half:])
        return left + right + [(np.add, (left_total, right_total, total))], total
    if k == 1:
        ops, tail = [(np.copyto, (total, matrix[0]))], matrix[1:]
    elif k < 8:
        ops, tail = [(np.add, (matrix[0], matrix[1], total))], matrix[2:]
    else:
        blocks = k - k % 8
        lanes = matrix[:8] if blocks == 8 else np.empty((8, n))
        quads, pairs = np.empty((4, n)), np.empty((2, n))
        ops = [
            (np.add, (lanes if start > 8 else matrix[:8], matrix[start:start + 8], lanes))
            for start in range(8, blocks, 8)
        ]
        ops += [
            (np.add, (lanes[0::2], lanes[1::2], quads)),
            (np.add, (quads[0::2], quads[1::2], pairs)),
            (np.add, (pairs[0], pairs[1], total)),
        ]
        tail = matrix[blocks:]
    ops += [(np.add, (total, row, total)) for row in tail]
    return ops, total


# the largest policy, in cells k * n, that _run steps on a Python list
# if it has fewer than 8 candidates.  A list step pays per cell, a numpy step
# per call.  With a warm fitness cache (numpy 2.4, Python 3.11, 2-CPU x86 VM)
# the list took 0.64-0.97x the numpy time at every shape of up to 36 cells
# with two or more tasks and 1.02-1.27x at 40; with 8 to 36 candidates, which
# no workload runs, 1.05-1.57x at five shapes and 0.68-0.90x at three
_LIST_POLICY_CELLS = 36


def _rates(config: RlConfig, k: int) -> tuple:
    """``(lr, keep, fade, floor, scale)`` of both steppers: the learning
    rate, the reward's and the penalty's factors on a preference, the
    projection's floor and the share of mass above it, computed from the
    config's own values (numpy scalars stay numpy scalars)."""
    lr = config.learning_rate
    decay = lr * config.penalty_value / config.reward_value
    floor = min(config.probability_floor, 1.0 / k)
    return lr, 1.0 - lr, 1.0 - decay, floor, 1.0 - k * floor


def _stepper(score, config: RlConfig, preference: np.ndarray):
    """The episode function of the C-contiguous ``(k, n)`` policy matrix
    ``preference`` (one row per candidate, one column per task):
    ``step(assignment, fitness, exploration, rng)`` samples an assignment,
    scores it, reinforces (improved) or decays (not improved) the sampled
    node of every task in ``preference``, in place, and projects each column
    back onto the simplex slice {p: sum p = 1, p >= floor}, keeping the
    relative order of the mass above the floor.  It returns the sampled
    assignment, in the narrowest unsigned type that counts to k - 1, and
    its fitness, which ``score`` gives; an assignment passed in is of that
    type too."""
    k, n = preference.shape
    flat = preference.reshape(-1)
    columns = np.arange(n)
    lr, keep, fade, floor, scale = _rates(config, k)
    column_totals = _column_totals(preference)
    # per-column cumulative sums of every row but the last, added row after
    # row as numpy's cumsum adds along a row of the transpose.  A sample
    # counts the sums below its uniform draw; the sums never decrease down
    # a column, so leaving the last one out caps the count at k - 1, as
    # clipping the count of all k would
    cum = np.empty((k - 1, n))
    first = (cum[:1], preference[:1])  # no rows when k = 1
    cum_steps = list(zip(cum[:-1], preference[1:], cum[1:]))
    below = np.empty((k - 1, n), dtype=bool)
    # the narrowest unsigned type that counts to k - 1: reducing the bool
    # columns into it is ~3x cheaper than into intp
    count_type = np.min_scalar_type(k - 1)
    # the clamp's bound as an array of the policy's shape, which numpy
    # clamps against some 4x faster than against the scalar 0.0, to the
    # same bits (tests/test_hot_loops.py); then the draws, the sampled
    # cells' flat indices and their values, reused from step to step
    zeros = np.zeros((k, n))
    u, index, chosen, gain = np.empty(n), np.empty(n, np.intp), np.empty(n), np.empty(n)

    def step(assignment, fitness, exploration, rng):
        if rng.random() < exploration:
            sampled = assignment.copy()
            sampled[int(rng.integers(0, n))] = int(rng.integers(0, k))
        else:
            rng.random(out=u)
            np.copyto(*first)
            for previous, row, out in cum_steps:
                np.add(previous, row, out=out)
            np.less(cum, u, out=below)
            sampled = np.add.reduce(below, 0, count_type)
        fit = score(sampled)
        np.multiply(sampled, n, out=index, dtype=np.intp)
        np.add(index, columns, out=index)
        flat.take(index, out=chosen, mode="clip")  # in range: "clip" does not buffer
        if fit < fitness:
            np.multiply(preference, keep, out=preference)
            # chosen + lr * (1.0 - chosen)
            np.subtract(1.0, chosen, out=gain)
            np.multiply(lr, gain, out=gain)
            flat[index] = np.add(chosen, gain, out=gain)
        else:
            flat[index] = np.multiply(chosen, fade, out=chosen)
            np.divide(preference, column_totals(), out=preference)
        np.subtract(preference, floor, out=preference)
        np.maximum(preference, zeros, out=preference)
        totals = column_totals()
        if np.count_nonzero(totals) < n:
            # columns with no mass above the floor fall back to uniform
            np.copyto(preference, 1.0, where=totals == 0.0)
            totals = column_totals()
        np.multiply(preference, scale, out=preference)
        np.divide(preference, totals, out=preference)
        np.add(preference, floor, out=preference)
        return sampled, fit

    return step


def _list_stepper(score, config: RlConfig, policy: list, n: int):
    """``_stepper`` on the policy matrix held in ``policy``, a flat Python
    list of its k < 8 rows of n preferences (the ``(k, n)`` matrix's ravel),
    updated in place; an assignment is a list of candidate indices, and
    ``score`` scores one.  Every preference goes through the IEEE
    operations of ``_stepper`` in the same order, so both return the same
    samples and fitnesses and leave the same preferences."""
    k = len(policy) // n
    lr, keep, fade, floor, scale = map(float, _rates(config, k))
    rows = [slice(i * n, (i + 1) * n) for i in range(k)]
    first, middle = rows[0], rows[1:-1]

    def totals(p):
        """Every column's total, repeated for each of its k cells; a running sum, row after row."""
        total = p[first]
        for r in rows[1:]:
            total = list(map(add, total, p[r]))
        return total * k

    def step(assignment, fitness, exploration, rng):
        if rng.random() < exploration:
            sampled = assignment.copy()
            sampled[int(rng.integers(0, n))] = int(rng.integers(0, k))
        else:
            # count the cumulative sums below the draw, row after row; as in
            # _stepper the last row is left out, capping the count at k - 1
            u = rng.random(n).tolist()
            cum = policy[first]
            sampled = [1 if c < x else 0 for c, x in zip(cum, u)] if k > 1 else [0] * n
            for r in middle:
                cum = list(map(add, cum, policy[r]))
                sampled = [s + 1 if c < x else s for s, c, x in zip(sampled, cum, u)]
        fit = score(sampled)
        # each "0.0 if d < 0.0 else d" is np.maximum(d, 0.0), NaN included,
        # but for d = -0.0, which it keeps and numpy makes +0.0.  The two
        # steppers still agree: the projection below, q * scale / t + floor,
        # maps -0.0 and +0.0 to one value, and it never leaves a preference
        # at -0.0 (it adds floor >= 0 last, and -0.0 + 0.0 is +0.0)
        if fit < fitness:
            p = [0.0 if (d := q * keep - floor) < 0.0 else d for q in policy]
            for j, s in enumerate(sampled):
                chosen = policy[s * n + j]
                d = chosen + lr * (1.0 - chosen) - floor
                p[s * n + j] = 0.0 if d < 0.0 else d
        else:
            for j, s in enumerate(sampled):
                policy[s * n + j] *= fade
            p = [0.0 if (d := q / t - floor) < 0.0 else d for q, t in zip(policy, totals(policy))]
        cell_totals = totals(p)
        if 0.0 in cell_totals:
            # columns with no mass above the floor fall back to uniform
            p = [1.0 if t == 0.0 else q for q, t in zip(p, cell_totals)]
            cell_totals = totals(p)
        policy[:] = [q * scale / t + floor for q, t in zip(p, cell_totals)]
        return sampled, fit

    return step


@np.errstate(over="ignore", invalid="ignore")  # as geo.geo_optimize
def _run(problem: _SubProblem, config: RlConfig, state: PolicyState, episodes: int,
         rng: np.random.Generator, trace: Optional[list] = None) -> PolicyState:
    """Run ``episodes`` episodes from ``state``, which is left unchanged,
    and return the state they end in.  Each episode appends ``(episode,
    fitness, best fitness, exploration)`` to ``trace``."""
    matrix = state.preference.T.copy()  # a fresh (k, n) buffer: the steps write it in place
    assignment, fitness = np.asarray(state.assignment, problem.key_dtype), state.fitness
    best_genome, best_fit = state.best_seen
    exploration = state.exploration
    on_list = len(matrix) < 8 and matrix.size <= _LIST_POLICY_CELLS
    if on_list:
        policy, assignment = matrix.ravel().tolist(), assignment.tolist()
        step = _list_stepper(problem.scorer(), config, policy, problem.dim)
    else:
        step = _stepper(problem.scorer(), config, matrix)
    for episode in range(episodes):
        assignment, fitness = step(assignment, fitness, exploration, rng)
        if fitness < best_fit:
            best_fit = fitness
            best_genome = assignment.copy()
        exploration *= config.exploration_decay
        if trace is not None:
            trace.append((episode, float(fitness), float(best_fit), exploration))
    if on_list:
        matrix = np.array(policy).reshape(matrix.shape)
    best_seen = (np.array(best_genome, dtype=np.intp), best_fit)
    return replace(state, assignment=np.array(assignment, dtype=np.intp), preference=matrix.T,
                   best_seen=best_seen, fitness=fitness, exploration=exploration)


def rl_episode(
    state: PolicyState,
    instance: Instance,
    weights: FitnessWeights,
    config: RlConfig,
    rng: np.random.Generator,
) -> PolicyState:
    """One sample-evaluate-reinforce cycle, scored on ``instance`` and
    ``weights``."""
    n, k = len(state.task_ids), len(state.candidate_nodes)
    if _checked_genome("assignment", state.assignment, k).shape != (n,):
        raise ValueError(f"assignment must be {n} candidate indices in [0, {k})")
    problem = _SubProblem(instance, state.candidate_nodes, state.task_ids, weights, 1)
    return _run(problem, config, state, 1, rng)


def rl_optimize(
    instance: Instance,
    candidate_nodes,
    tasks,
    config: RlConfig,
    weights: FitnessWeights,
    trace: Optional[list] = None,
) -> tuple:
    """Run the configured number of episodes; returns the best assignment
    ever sampled and its fitness."""
    problem = _SubProblem(instance, candidate_nodes, tasks, weights, config.episodes + 1)
    rng = np.random.default_rng(config.rng_seed + 1)
    state = _run(problem, config, _initial_state(problem, config), config.episodes, rng, trace)
    genome, fit = state.best_seen
    return problem.to_assignment(genome), float(fit)
