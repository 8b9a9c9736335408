"""Continuous golden-eagle swarm core: attack/cruise geometry, step update,
and the rounding-discretized optimizer used as the GEO baseline.

Positions live in [0, m'-1]^d where m' is the number of candidate nodes; a
position decodes to an assignment by rounding each coordinate to the nearest
candidate index.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .metrics import Evaluator, FitnessWeights, _evaluator
from .model import Assignment, Instance, build_assignment

__all__ = [
    "GeoParams",
    "attack_vector",
    "cruise_vector",
    "step_vector",
    "decode_position",
    "geo_optimize",
]


@dataclass(frozen=True)
class GeoParams:
    population_size: int = 30
    iterations: int = 200
    pa_schedule: tuple = (0.5, 2.0)
    pc_schedule: tuple = (1.0, 0.5)
    rng_seed: int = 0

    def __post_init__(self):
        if self.population_size < 2:
            raise ValueError("population_size must be >= 2")
        if self.iterations < 1:
            raise ValueError("iterations must be >= 1")
        if min(*self.pa_schedule, *self.pc_schedule) < 0:
            raise ValueError("propensity coefficients must be >= 0")


def attack_vector(eagle_position: np.ndarray, prey_position: np.ndarray) -> np.ndarray:
    """Exploitation direction: prey minus eagle, componentwise."""
    eagle_position = np.asarray(eagle_position, dtype=float)
    prey_position = np.asarray(prey_position, dtype=float)
    if eagle_position.shape != prey_position.shape:
        raise ValueError("eagle and prey positions must have equal length")
    return prey_position - eagle_position


def cruise_vector(attack: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """A random vector orthogonal to the attack direction.

    One coordinate with a nonzero attack component is fixed by solving the
    orthogonality equation; all other coordinates are drawn uniformly from
    [-1, 1].
    """
    attack = np.asarray(attack, dtype=float)
    nonzero = np.flatnonzero(attack)
    if nonzero.size == 0:
        raise ValueError("cruise vector is undefined for a zero attack vector")
    k = int(rng.choice(nonzero))
    cruise = rng.uniform(-1.0, 1.0, size=attack.shape)
    cruise[k] = 0.0
    cruise[k] = -float(attack @ cruise) / attack[k]
    return cruise


def step_vector(
    attack: np.ndarray,
    cruise: np.ndarray,
    pa: float,
    pc: float,
    rng: np.random.Generator,
):
    """Movement for one eagle: scalar-weighted sum of the attack and cruise
    unit directions.  Returns (delta, r1*pa, r2*pc); the two magnitude
    products drive the discrete operator choice downstream."""
    attack = np.asarray(attack, dtype=float)
    cruise = np.asarray(cruise, dtype=float)
    a_norm = float(np.linalg.norm(attack))
    c_norm = float(np.linalg.norm(cruise))
    if a_norm == 0.0 or c_norm == 0.0:
        raise ValueError("attack and cruise vectors must be nonzero")
    r1 = float(rng.random())
    r2 = float(rng.random())
    delta = r1 * pa * attack / a_norm + r2 * pc * cruise / c_norm
    return delta, r1 * pa, r2 * pc


def decode_position(position: np.ndarray, n_candidates: int) -> np.ndarray:
    """Round-half-up each clamped coordinate to a candidate index; decodes
    one position or a whole ``(pop, dim)`` flock."""
    clamped = np.clip(position, 0.0, n_candidates - 1.0)
    return np.floor(clamped + 0.5).astype(np.intp)


def _propensities(params: GeoParams):
    pa = np.linspace(params.pa_schedule[0], params.pa_schedule[1], params.iterations)
    pc = np.linspace(params.pc_schedule[0], params.pc_schedule[1], params.iterations)
    return pa, pc


def _swarm_move(positions, prey, pa, pc, rng, upper):
    """Vectorized one-iteration move for the whole flock.

    Returns the new positions plus per-eagle (delta_sum, r1*pa, r2*pc),
    which the discrete variant consumes for operator selection.  Eagles that
    sit exactly on their prey do not move.
    """
    pop, dim = positions.shape
    attack = prey - positions
    cruise = rng.uniform(-1.0, 1.0, size=(pop, dim))
    r1 = rng.random(pop)
    r2 = rng.random(pop)
    pick = rng.random((pop, dim))

    nonzero = attack != 0.0
    moving = nonzero.any(axis=1)
    # uniform choice among each row's nonzero attack coordinates: random
    # scores masked to the nonzero positions, argmax picks one
    k = np.where(nonzero, pick, -1.0).argmax(axis=1)
    rows = np.flatnonzero(moving)
    cruise[~moving] = 0.0
    cruise[rows, k[rows]] = 0.0
    dot = (attack[rows] * cruise[rows]).sum(axis=1)
    cruise[rows, k[rows]] = -dot / attack[rows, k[rows]]

    a_norm = np.sqrt((attack * attack).sum(axis=1))
    c_norm = np.sqrt((cruise * cruise).sum(axis=1))
    a_scale = np.where(a_norm > 0.0, r1 * pa / np.where(a_norm > 0.0, a_norm, 1.0), 0.0)
    c_scale = np.where(c_norm > 0.0, r2 * pc / np.where(c_norm > 0.0, c_norm, 1.0), 0.0)
    delta = a_scale[:, None] * attack + c_scale[:, None] * cruise
    new_positions = np.clip(positions + delta, 0.0, upper)
    return new_positions, delta.sum(axis=1), r1 * pa, r2 * pc


class _SubProblem:
    """Shared optimizer plumbing: candidate decoding and cached fitness of a
    task subset mapped onto a candidate node set."""

    def __init__(self, instance: Instance, candidate_nodes, tasks, weights: FitnessWeights):
        if not candidate_nodes:
            raise ValueError("candidate node set must be nonempty")
        if not tasks:
            raise ValueError("task set must be nonempty")
        self.instance = instance
        self.weights = weights
        self.task_ids = sorted(tasks)
        self.candidates = sorted(candidate_nodes)
        evaluator: Evaluator = _evaluator(instance)
        self.candidate_idx = np.array(
            [evaluator.node_index(c) for c in self.candidates], dtype=np.intp
        )
        self.ctx = evaluator.subset_context(self.task_ids)
        # fitness values depend only on (tasks, candidates, weights), so the
        # cache is shared across optimizer runs on the same instance
        shared = getattr(evaluator, "_fitness_caches", None)
        if shared is None:
            shared = {}
            evaluator._fitness_caches = shared
        cache_key = (tuple(self.task_ids), tuple(self.candidates), weights)
        self._cache = shared.setdefault(cache_key, {})

    @property
    def dim(self) -> int:
        return len(self.task_ids)

    @property
    def n_candidates(self) -> int:
        return len(self.candidates)

    def fitness_of(self, genome) -> float:
        genome = np.asarray(genome, dtype=np.intp)
        key = genome.tobytes()
        cached = self._cache.get(key)
        if cached is None:
            cached = self.ctx.fitness(self.candidate_idx[genome], self.weights)
            self._cache[key] = cached
        return cached

    def fitness_many(self, genomes) -> np.ndarray:
        """Fitness of every row of a ``(pop, dim)`` genome matrix.  Rows
        already cached are looked up; the distinct misses are scored in one
        kernel call, so a genome repeated in the batch is computed once."""
        genomes = np.ascontiguousarray(genomes, dtype=np.intp)
        raw = genomes.tobytes()
        step = genomes.shape[1] * genomes.itemsize
        keys = [raw[i : i + step] for i in range(0, len(raw), step)]
        cache = self._cache
        missing = {key: i for i, key in enumerate(keys) if key not in cache}
        if missing:
            rows = genomes[list(missing.values())]
            values = self.ctx.fitness(self.candidate_idx[rows], self.weights)
            cache.update(zip(missing, values.tolist()))
        return np.array([cache[key] for key in keys])

    def to_assignment(self, genome) -> Assignment:
        mapping = {
            task_id: self.candidates[int(g)]
            for task_id, g in zip(self.task_ids, genome)
        }
        tasks = [self.instance.task(t) for t in self.task_ids]
        return build_assignment(tasks, mapping)


def geo_optimize(
    instance: Instance,
    candidate_nodes,
    tasks,
    params: GeoParams,
    weights: FitnessWeights,
    trace: Optional[list] = None,
) -> tuple:
    """Full continuous GEO loop with rounding decode; returns the best
    decoded assignment ever evaluated and its fitness."""
    problem = _SubProblem(instance, candidate_nodes, tasks, weights)
    rng = np.random.default_rng(params.rng_seed)
    pop, dim = params.population_size, problem.dim
    upper = float(problem.n_candidates - 1)

    positions = rng.uniform(0.0, upper, size=(pop, dim))
    genomes = decode_position(positions, problem.n_candidates)
    fitnesses = problem.fitness_many(genomes)
    memory_pos = positions.copy()
    memory_fit = fitnesses.copy()
    best_i = int(np.argmin(fitnesses))
    best_genome = genomes[best_i]
    best_fit = float(fitnesses[best_i])

    pa_sched, pc_sched = _propensities(params)
    for t in range(params.iterations):
        perm = rng.permutation(pop)
        prey = memory_pos[perm]
        positions, _, _, _ = _swarm_move(
            positions, prey, pa_sched[t], pc_sched[t], rng, upper
        )
        genomes = decode_position(positions, problem.n_candidates)
        fits = problem.fitness_many(genomes)
        improved = fits < memory_fit
        memory_fit[improved] = fits[improved]
        memory_pos[improved] = positions[improved]
        # the first eagle holding the iteration's minimum, as a sequential
        # scan with a strict comparison would pick
        fit_i = int(fits.argmin())
        if fits[fit_i] < best_fit:
            best_fit = float(fits[fit_i])
            best_genome = genomes[fit_i]
        if trace is not None:
            trace.append((t, best_fit))

    return problem.to_assignment(best_genome), best_fit
