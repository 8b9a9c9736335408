"""Continuous golden-eagle swarm core: attack/cruise geometry, step update,
and the rounding-discretized optimizer used as the GEO baseline.

Positions live in [0, m'-1]^d where m' is the number of candidate nodes; a
position decodes to an assignment by rounding each coordinate to the nearest
candidate index.

The per-iteration code here and in ``igeo`` (the swarm step, the genetic
operators, the fitness lookups and the optimizers' loop bodies) calls
numpy's ufuncs and C methods directly: ``np.add.reduce`` rather than
``.sum``, ``np.logical_and.reduce`` rather than ``.all``, ``.nonzero()[0]``
rather than ``np.flatnonzero``, flat indices rather than
``np.*_along_axis``.  The ndarray reduction methods and those helpers pay a
Python-level wrapper on every call, and at 6 tasks x 3 nodes, where an
array holds a few dozen numbers, the wrapper costs more than the
arithmetic.  Every replacement gives the same bits;
``tests/test_hot_loops.py`` checks the rule.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .metrics import Evaluator, FitnessWeights, _evaluator
from .model import Assignment, Instance, build_assignment, check_fields

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

    __post_init__ = check_fields


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
    attack = np.array(attack, dtype=float, ndmin=2)  # copies: scaled in place
    cruise = np.array(cruise, dtype=float, ndmin=2)
    if not (attack.any() and cruise.any()):
        raise ValueError("attack and cruise vectors must be nonzero")
    r1pa = float(rng.random()) * pa
    r2pc = float(rng.random()) * pc
    delta = _scaled_step(attack, cruise, np.array([r1pa]), np.array([r2pc]))
    return delta[0], r1pa, r2pc


def decode_position(position: np.ndarray, n_candidates: int) -> np.ndarray:
    """Round-half-up each clamped coordinate to a candidate index in the
    narrowest unsigned dtype; decodes one position or a ``(pop, dim)`` flock."""
    clamped = np.maximum(position, 0.0)
    np.minimum(clamped, n_candidates - 1.0, out=clamped)
    return np.floor(clamped + 0.5).astype(np.min_scalar_type(n_candidates - 1))


def _propensities(params: GeoParams):
    pa = np.linspace(params.pa_schedule[0], params.pa_schedule[1], params.iterations)
    pc = np.linspace(params.pc_schedule[0], params.pc_schedule[1], params.iterations)
    return pa, pc


def _orthogonal_cruise(attack, cruise, pick):
    """Make every row of ``cruise`` orthogonal to its ``attack`` row, in
    place, overwriting ``pick``: the row's nonzero attack coordinate with the
    highest ``pick`` score (a uniform choice for uniform scores) is solved
    from the orthogonality equation; rows with a zero attack get zeros."""
    zero = attack == 0.0
    still = np.logical_and.reduce(zero, axis=1)
    pick[zero] = -1.0
    rows = np.logical_not(still).nonzero()[0]
    solved = (rows, pick.argmax(axis=1)[rows])
    cruise[still] = 0.0
    cruise[solved] = 0.0
    dot = np.add.reduce(np.multiply(attack, cruise, out=pick), axis=1)
    cruise[solved] = -dot[rows] / attack[solved]
    return cruise


def _scaled_step(attack, cruise, r1pa, r2pc):
    """Per-row ``r1pa`` times the attack unit direction plus ``r2pc`` times
    the cruise unit direction; a zero row contributes nothing.  Both are
    scaled in place, and the step is returned in ``attack``'s buffer."""
    for vector, length in ((attack, r1pa), (cruise, r2pc)):
        norm = np.sqrt(np.add.reduce(vector * vector, axis=1))
        np.multiply(vector, (length / np.where(norm > 0.0, norm, np.inf))[:, None], out=vector)
    return np.add(attack, cruise, out=attack)


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
    _orthogonal_cruise(attack, cruise, rng.random((pop, dim)))
    delta = _scaled_step(attack, cruise, r1pa, r2pc)
    delta_sum = np.add.reduce(delta, axis=1)
    new_positions = np.add(positions, delta, out=delta)  # over the step's buffer
    np.maximum(new_positions, 0.0, out=new_positions)
    np.minimum(new_positions, upper, out=new_positions)
    return new_positions, delta_sum, r1pa, r2pc


class _SubProblem:
    """Shared optimizer plumbing: candidate decoding and cached fitness of a
    task subset mapped onto a candidate node set.

    GEO and IGEO carry genomes in ``key_dtype``, the narrowest unsigned
    type that holds every candidate index (``uint8`` up to 256 candidates,
    ``uint16`` up to 65,536), and a cache key is a genome's bytes in it.
    The cache is the largest allocation of a run, and a 600-task key is 600
    bytes this way instead of 4,800 as ``intp``.  The kernel still reads
    ``intp`` node indices, gathered from ``candidate_idx`` by the same
    narrow genome the key holds, so a key names the genome that was scored.
    ``fitness_many`` keys a whole batch in one call, viewing each row of a
    C-contiguous genome matrix as one ``np.void`` value of its bytes.
    A NaN fitness (a zero weight times an inf objective) is cached as inf."""

    def __init__(self, instance: Instance, candidate_nodes, tasks, weights: FitnessWeights):
        if not candidate_nodes:
            raise ValueError("candidate node set must be nonempty")
        if not tasks:
            raise ValueError("task set must be nonempty")
        evaluator: Evaluator = _evaluator(instance)  # refuses an instance that breaks a rule
        self.instance = instance
        self.weights = weights
        self.task_ids = sorted(tasks)
        self.candidates = sorted(candidate_nodes)
        self.candidate_idx = np.array(
            [evaluator.node_index(c) for c in self.candidates], dtype=np.intp
        )
        self.ctx = evaluator.subset_context(self.task_ids)
        # a base response is inf where the network delay is (or where the
        # sum overflows, which no finite schedule survives either)
        stranded = np.isinf(self.ctx.base_response[:, self.candidate_idx]).all(axis=1)
        if stranded.any():
            task_id = self.task_ids[self.ctx.edf_order[stranded.argmax()]]
            raise ValueError(
                f"no route from gateway of task {task_id} to any candidate node"
            )
        self.key_dtype = np.min_scalar_type(len(self.candidates) - 1)
        self._key_row = np.dtype((np.void, self.dim * self.key_dtype.itemsize))  # one genome
        cache_key = (tuple(self.task_ids), tuple(self.candidates), weights)
        self._cache = evaluator.fitness_caches.setdefault(cache_key, {})

    @property
    def dim(self) -> int:
        return len(self.task_ids)

    @property
    def n_candidates(self) -> int:
        return len(self.candidates)

    def fitness_of(self, genome) -> float:
        genome = np.asarray(genome).astype(self.key_dtype, copy=False)
        key = genome.tobytes()
        cached = self._cache.get(key)
        if cached is None:
            cached = self.ctx.fitness(self.candidate_idx.take(genome), self.weights)
            cached = self._cache[key] = math.inf if math.isnan(cached) else cached
        return cached

    def fitness_many(self, genomes) -> np.ndarray:
        """Fitness of every row of a ``(pop, dim)`` genome matrix.  Rows
        already cached are looked up; the distinct misses are scored in one
        kernel call, so a genome repeated in the batch is computed once."""
        genomes = np.ascontiguousarray(genomes, dtype=self.key_dtype)
        keys = genomes.view(self._key_row).ravel().tolist()  # each row's bytes
        cache = self._cache
        missing = {key: i for i, key in enumerate(keys) if key not in cache}
        if missing:
            rows = genomes[list(missing.values())]
            values = self.ctx.fitness(self.candidate_idx.take(rows), self.weights)
            cache.update(zip(missing, np.fmin(values, np.inf).tolist()))
        return np.array([cache[key] for key in keys])

    def to_assignment(self, genome) -> Assignment:
        mapping = {
            task_id: self.candidates[int(g)]
            for task_id, g in zip(self.task_ids, genome)
        }
        tasks = [self.instance.task(t) for t in self.task_ids]
        return build_assignment(tasks, mapping)


# an overflowed fitness reads inf and ranks last; re-evaluating names it
@np.errstate(over="ignore", invalid="ignore")
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
        np.copyto(memory_fit, fits, where=improved)
        np.copyto(memory_pos, positions, where=improved[:, None])
        # the first eagle holding the iteration's minimum, as a sequential
        # scan with a strict comparison would pick
        fit_i = int(fits.argmin())
        if fits[fit_i] < best_fit:
            best_fit = float(fits[fit_i])
            best_genome = genomes[fit_i]
        if trace is not None:
            trace.append((t, best_fit))

    return problem.to_assignment(best_genome), best_fit
