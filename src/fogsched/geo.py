"""Continuous golden-eagle swarm core: attack/cruise geometry, step update,
and the rounding-discretized optimizer used as the GEO baseline.

Positions live in [0, m'-1]^d where m' is the number of candidate nodes; a
position decodes to an assignment by rounding each coordinate to the nearest
candidate index.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from typing import Optional

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
        for name, least in (("population_size", 2), ("iterations", 1), ("rng_seed", 0)):
            value = getattr(self, name)
            if not (isinstance(value, numbers.Integral) and value >= least):
                raise ValueError(f"{name} must be an integer >= {least}")
        for name in ("pa_schedule", "pc_schedule"):
            schedule = getattr(self, name)
            if len(schedule) != 2 or not all(math.isfinite(c) and c >= 0 for c in schedule):
                raise ValueError(f"{name} must be two finite coefficients >= 0")


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
    if not attack.any():
        raise ValueError("cruise vector is undefined for a zero attack vector")
    cruise = rng.uniform(-1.0, 1.0, size=(1, attack.size))
    pick = rng.random((1, attack.size))
    return _orthogonal_cruise(attack[None, :], cruise, pick)[0]


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
    if not (attack.any() and cruise.any()):
        raise ValueError("attack and cruise vectors must be nonzero")
    r1pa = float(rng.random()) * pa
    r2pc = float(rng.random()) * pc
    delta = _scaled_step(attack[None, :], cruise[None, :], np.array([r1pa]), np.array([r2pc]))
    return delta[0], r1pa, r2pc


def decode_position(position: np.ndarray, n_candidates: int) -> np.ndarray:
    """Round-half-up each clamped coordinate to a candidate index; decodes
    one position or a whole ``(pop, dim)`` flock."""
    clamped = np.clip(position, 0.0, n_candidates - 1.0)
    return np.floor(clamped + 0.5).astype(np.intp)


def _propensities(params: GeoParams):
    pa = np.linspace(params.pa_schedule[0], params.pa_schedule[1], params.iterations)
    pc = np.linspace(params.pc_schedule[0], params.pc_schedule[1], params.iterations)
    return pa, pc


def _orthogonal_cruise(attack, cruise, pick):
    """Make every row of ``cruise`` orthogonal to its ``attack`` row, in
    place: the row's nonzero attack coordinate with the highest ``pick``
    score (a uniform choice for uniform scores) is solved from the
    orthogonality equation.  Rows with a zero attack get a zero cruise."""
    nonzero = attack != 0.0
    moving = nonzero.any(axis=1)
    k = np.where(nonzero, pick, -1.0).argmax(axis=1)
    rows = np.flatnonzero(moving)
    cruise[~moving] = 0.0
    cruise[rows, k[rows]] = 0.0
    dot = (attack[rows] * cruise[rows]).sum(axis=1)
    cruise[rows, k[rows]] = -dot / attack[rows, k[rows]]
    return cruise


def _scaled_step(attack, cruise, r1pa, r2pc):
    """Per-row ``r1pa`` times the attack unit direction plus ``r2pc`` times
    the cruise unit direction; a zero row contributes nothing."""
    a_norm = np.sqrt((attack * attack).sum(axis=1))
    c_norm = np.sqrt((cruise * cruise).sum(axis=1))
    a_scale = np.where(a_norm > 0.0, r1pa / np.where(a_norm > 0.0, a_norm, 1.0), 0.0)
    c_scale = np.where(c_norm > 0.0, r2pc / np.where(c_norm > 0.0, c_norm, 1.0), 0.0)
    return a_scale[:, None] * attack + c_scale[:, None] * cruise


def _swarm_move(positions, prey, pa, pc, rng, upper):
    """Vectorized one-iteration move for the whole flock.

    Returns the new positions plus per-eagle (delta_sum, r1*pa, r2*pc),
    which the discrete variant consumes for operator selection.  Eagles that
    sit exactly on their prey do not move.
    """
    pop, dim = positions.shape
    attack = prey - positions
    cruise = rng.uniform(-1.0, 1.0, size=(pop, dim))
    r1pa = rng.random(pop) * pa
    r2pc = rng.random(pop) * pc
    cruise = _orthogonal_cruise(attack, cruise, rng.random((pop, dim)))
    delta = _scaled_step(attack, cruise, r1pa, r2pc)
    new_positions = np.clip(positions + delta, 0.0, upper)
    return new_positions, delta.sum(axis=1), r1pa, r2pc


class _SubProblem:
    """Shared optimizer plumbing: candidate decoding and cached fitness of a
    task subset mapped onto a candidate node set.

    A cache key is a genome's bytes in ``key_dtype``, the narrowest unsigned
    type that holds every candidate index (``uint8`` up to 256 candidates,
    ``uint16`` up to 65,536).  The cache is the largest allocation of a run,
    and a 600-task key is 600 bytes this way instead of 4,800 as ``intp``.
    The kernel still reads ``intp`` node indices, gathered from
    ``candidate_idx`` by the same narrow genome the key holds, so a key
    always names the genome that was scored."""

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
        stranded = np.isinf(self.ctx.delay[:, self.candidate_idx]).all(axis=1)
        if stranded.any():
            task_id = self.task_ids[self.ctx.edf_order[stranded.argmax()]]
            raise ValueError(
                f"no route from gateway of task {task_id} to any candidate node"
            )
        self.key_dtype = np.min_scalar_type(len(self.candidates) - 1)
        cache_key = (tuple(self.task_ids), tuple(self.candidates), weights)
        self._cache = evaluator.fitness_caches.setdefault(cache_key, {})

    @property
    def dim(self) -> int:
        return len(self.task_ids)

    @property
    def n_candidates(self) -> int:
        return len(self.candidates)

    def fitness_of(self, genome) -> float:
        genome = np.asarray(genome).astype(self.key_dtype)
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
        genomes = np.asarray(genomes).astype(self.key_dtype)
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
