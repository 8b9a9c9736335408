"""Reward/penalty assigner for relaxed-deadline tasks.

The learner keeps one preference distribution over candidate nodes per task
(a learning-automata formulation: a value table over whole assignment arrays
would be astronomically large).  Each episode samples a fresh assignment,
compares its fitness to the previous one, and reinforces or decays the
chosen node of every task accordingly.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from .geo import _SubProblem
from .metrics import FitnessWeights
from .model import Assignment, Instance

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
        if self.episodes < 1:
            raise ValueError("episodes must be >= 1")
        if not 0.0 < self.learning_rate <= 1.0:
            raise ValueError("learning_rate must be in (0, 1]")
        if not 0.0 <= self.exploration_rate <= 1.0:
            raise ValueError("exploration_rate must be in [0, 1]")
        if self.reward_value <= 0 or self.penalty_value <= 0:
            raise ValueError("reward_value and penalty_value must be positive")


@dataclass(frozen=True)
class PolicyState:
    task_ids: tuple
    candidate_nodes: tuple
    assignment: np.ndarray  # candidate index per task
    preference: np.ndarray  # per-task distribution over candidates
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
    task_ids = tuple(sorted(tasks))
    candidates = tuple(sorted(candidate_nodes))
    if not candidates:
        raise ValueError("candidate node set must be nonempty")
    rng = np.random.default_rng(config.rng_seed)
    k = len(candidates)
    n = len(task_ids)
    preference = np.full((n, k), 1.0 / k)
    if n == 0:
        empty = np.zeros(0, dtype=np.intp)
        return PolicyState(task_ids, candidates, empty, preference, (empty, 0.0), 0.0, config.exploration_rate)
    assignment = rng.integers(0, k, size=n, dtype=np.intp)
    problem = _SubProblem(instance, candidates, task_ids, weights)
    fit = problem.fitness_of(assignment)
    return PolicyState(
        task_ids=task_ids,
        candidate_nodes=candidates,
        assignment=assignment,
        preference=preference,
        best_seen=(assignment.copy(), fit),
        fitness=fit,
        exploration=config.exploration_rate,
    )


def _stepper(fitness_of, config: RlConfig, n: int, k: int):
    """The episode function of an ``(n, k)`` policy:
    ``step(preference, assignment, fitness, exploration, rng)`` samples an
    assignment, scores it, reinforces (improved) or decays (not improved)
    the sampled node of every task in ``preference``, in place, and projects
    each row back onto the simplex slice {p: sum p = 1, p >= floor}, keeping
    the relative order of the mass above the floor.  It returns the sampled
    assignment and its fitness."""
    rows = np.arange(n)
    lr = config.learning_rate
    decay = lr * config.penalty_value / config.reward_value
    floor = min(config.probability_floor, 1.0 / k)
    scale = 1.0 - k * floor

    def step(preference, assignment, fitness, exploration, rng):
        if rng.random() < exploration:
            sampled = assignment.copy()
            sampled[int(rng.integers(0, n))] = int(rng.integers(0, k))
        else:
            cum = np.cumsum(preference, axis=1)
            u = rng.random(n)
            sampled = np.minimum((cum < u[:, None]).sum(axis=1), k - 1).astype(np.intp)
        fit = fitness_of(sampled)
        if fit < fitness:
            chosen = preference[rows, sampled]
            preference *= 1.0 - lr
            preference[rows, sampled] = chosen + lr * (1.0 - chosen)
        else:
            preference[rows, sampled] *= 1.0 - decay
            preference /= preference.sum(axis=1, keepdims=True)
        np.subtract(preference, floor, out=preference)
        np.maximum(preference, 0.0, out=preference)
        totals = preference.sum(axis=1, keepdims=True)
        if (totals == 0.0).any():
            # rows with no mass above the floor fall back to uniform
            np.copyto(preference, 1.0, where=totals == 0.0)
            totals = preference.sum(axis=1, keepdims=True)
        preference *= scale
        preference /= totals
        preference += floor
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
    exploration = state.exploration * config.exploration_decay
    if len(state.task_ids) == 0:
        return replace(state, exploration=exploration)
    problem = _SubProblem(instance, state.candidate_nodes, state.task_ids, weights)
    preference = state.preference.copy()
    step = _stepper(problem.fitness_of, config, *preference.shape)
    sampled, fit = step(preference, state.assignment, state.fitness, state.exploration, rng)
    best = (sampled.copy(), fit) if fit < state.best_seen[1] else state.best_seen
    return replace(
        state,
        assignment=sampled,
        preference=preference,
        best_seen=best,
        fitness=fit,
        exploration=exploration,
    )


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
    state = rl_init(instance, tasks, candidate_nodes, config, weights)
    if len(state.task_ids) == 0:
        return Assignment(mapping={}, order={}), 0.0
    problem = _SubProblem(instance, state.candidate_nodes, state.task_ids, weights)
    rng = np.random.default_rng(config.rng_seed + 1)

    # the episode loop keeps its state in locals and updates one
    # preference matrix in place, building no PolicyState per episode
    preference = state.preference
    assignment = state.assignment
    fitness = state.fitness
    best_genome, best_fit = state.best_seen
    exploration = state.exploration
    step = _stepper(problem.fitness_of, config, *preference.shape)
    for episode in range(config.episodes):
        assignment, fitness = step(preference, assignment, fitness, exploration, rng)
        if fitness < best_fit:
            best_fit = fitness
            best_genome = assignment.copy()
        exploration *= config.exploration_decay
        if trace is not None:
            trace.append((episode, float(fitness), float(best_fit), exploration))

    return problem.to_assignment(best_genome), float(best_fit)
