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
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from .geo import _SubProblem
from .metrics import FitnessWeights
from .model import Instance

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

    def __post_init__(self):
        # written so that NaN fails every range check
        for name, least in (("episodes", 1), ("rng_seed", 0)):
            value = getattr(self, name)
            if not (isinstance(value, numbers.Integral) and value >= least):
                raise ValueError(f"{name} must be an integer >= {least}")
        if not 0.0 < self.learning_rate <= 1.0:
            raise ValueError("learning_rate must be in (0, 1]")
        for name in ("exploration_rate", "exploration_decay", "probability_floor"):
            if not 0.0 <= getattr(self, name) <= 1.0:
                raise ValueError(f"{name} must be in [0, 1]")
        for name in ("reward_value", "penalty_value"):
            if not (math.isfinite(getattr(self, name)) and getattr(self, name) > 0):
                raise ValueError(f"{name} must be finite and positive")
        if self.learning_rate * self.penalty_value / self.reward_value >= 1.0:
            # the penalty scales a preference by 1 minus this; at 1 or more
            # it wipes the mass out and a lone candidate's column divides 0/0
            raise ValueError("learning_rate * penalty_value / reward_value must be < 1")


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
    return _initial_state(_SubProblem(instance, candidate_nodes, tasks, weights), config)


def _initial_state(problem: _SubProblem, config: RlConfig) -> PolicyState:
    rng = np.random.default_rng(config.rng_seed)
    k, n = problem.n_candidates, problem.dim
    preference = np.full((k, n), 1.0 / k).T
    assignment = rng.integers(0, k, size=n, dtype=np.intp)
    fit = problem.fitness_of(assignment)
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


def _stepper(fitness_of, config: RlConfig, preference: np.ndarray):
    """The episode function of the C-contiguous ``(k, n)`` policy matrix
    ``preference`` (one row per candidate, one column per task):
    ``step(assignment, fitness, exploration, rng)`` samples an assignment,
    scores it, reinforces (improved) or decays (not improved) the sampled
    node of every task in ``preference``, in place, and projects each column
    back onto the simplex slice {p: sum p = 1, p >= floor}, keeping the
    relative order of the mass above the floor.  It returns the sampled
    assignment and its fitness."""
    k, n = preference.shape
    flat = preference.reshape(-1)
    columns = np.arange(n)
    lr = config.learning_rate
    decay = lr * config.penalty_value / config.reward_value
    floor = min(config.probability_floor, 1.0 / k)
    scale = 1.0 - k * floor
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

    def step(assignment, fitness, exploration, rng):
        if rng.random() < exploration:
            sampled = assignment.copy()
            sampled[int(rng.integers(0, n))] = int(rng.integers(0, k))
        else:
            u = rng.random(n)
            np.copyto(*first)
            for previous, row, out in cum_steps:
                np.add(previous, row, out=out)
            np.less(cum, u, out=below)
            sampled = np.add.reduce(below, 0, count_type).astype(np.intp)
        fit = fitness_of(sampled)
        index = sampled * n
        index += columns
        if fit < fitness:
            chosen = flat[index]
            np.multiply(preference, 1.0 - lr, out=preference)
            flat[index] = chosen + lr * (1.0 - chosen)
        else:
            flat[index] *= 1.0 - decay
            np.divide(preference, column_totals(), out=preference)
        np.subtract(preference, floor, out=preference)
        np.maximum(preference, 0.0, out=preference)
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


def rl_episode(
    state: PolicyState,
    instance: Instance,
    weights: FitnessWeights,
    config: RlConfig,
    rng: np.random.Generator,
) -> PolicyState:
    """One sample-evaluate-reinforce cycle."""
    assignment = np.asarray(state.assignment)
    n, k = len(state.task_ids), len(state.candidate_nodes)
    if not (
        assignment.shape == (n,)
        and np.issubdtype(assignment.dtype, np.integer)
        and ((assignment >= 0) & (assignment < k)).all()
    ):
        raise ValueError(
            f"assignment must be {n} integer candidate indices in [0, {k})"
        )
    exploration = state.exploration * config.exploration_decay
    problem = _SubProblem(instance, state.candidate_nodes, state.task_ids, weights)
    # a fresh (k, n) buffer: np.ascontiguousarray would hand back the
    # input state's own matrix and the step would overwrite it
    preference = state.preference.T.copy()
    step = _stepper(problem.fitness_of, config, preference)
    sampled, fit = step(assignment, state.fitness, state.exploration, rng)
    best = (sampled.copy(), fit) if fit < state.best_seen[1] else state.best_seen
    return replace(
        state,
        assignment=sampled,
        preference=preference.T,
        best_seen=best,
        fitness=fit,
        exploration=exploration,
    )


@np.errstate(over="ignore", invalid="ignore")  # as geo.geo_optimize
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
    problem = _SubProblem(instance, candidate_nodes, tasks, weights)
    state = _initial_state(problem, config)
    rng = np.random.default_rng(config.rng_seed + 1)

    # the episode loop keeps its state in locals and updates the state's
    # (k, n) preference matrix in place, building no PolicyState per episode
    assignment = state.assignment
    fitness = state.fitness
    best_genome, best_fit = state.best_seen
    exploration = state.exploration
    step = _stepper(problem.fitness_of, config, np.ascontiguousarray(state.preference.T))
    for episode in range(config.episodes):
        assignment, fitness = step(assignment, fitness, exploration, rng)
        if fitness < best_fit:
            best_fit = fitness
            best_genome = assignment.copy()
        exploration *= config.exploration_decay
        if trace is not None:
            trace.append((episode, float(fitness), float(best_fit), exploration))

    return problem.to_assignment(best_genome), float(best_fit)
