"""Continuous golden-eagle swarm core: attack/cruise geometry, step update,
and the rounding-discretized optimizer used as the GEO baseline.

Positions live in [0, m'-1]^d where m' is the number of candidate nodes; a
position decodes to an assignment by rounding each coordinate to the nearest
candidate index.

A swarm moves as a ``_Flock``, which keeps its positions and one float
buffer for a whole run.  The buffer holds the attack directions, then the
cruise directions, r1, r2 and the pick scores; the last four are a move's
draws in the order they are drawn, so one ``rng.random(out=...)`` fills
them.  ``uniform(-1, 1)`` would draw ``-1 + 2u`` from the same ``u``; ``2u``
is exact, so the move's ``(u + u) - 1`` has the same bits.  The attack and
cruise directions are stacked, so one multiply, reduce, sqrt and scale
pass covers both.  The move clamps its positions against the spent cruise
and pick regions filled with the bounds, so the loop rounds them without
clamping them again.

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
from itertools import islice
from typing import Optional

import numpy as np

from .metrics import Evaluator, FitnessWeights, _check_ids, _evaluator
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
    eagle = _Flock(np.zeros((1, attack.size)), 0.0)
    eagle.attack[0] = attack
    rng.random(out=eagle.cruise)
    rng.random(out=eagle.pick)
    eagle.orthogonal_cruise()
    return eagle.cruise[0]


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
    attack, cruise = np.asarray(attack, dtype=float), np.asarray(cruise, dtype=float)
    if attack.shape != cruise.shape:
        raise ValueError("attack and cruise vectors must have equal length")
    eagle = _Flock(np.zeros((1, attack.size)), 0.0)
    eagle.attack[0], eagle.cruise[0] = attack, cruise  # copies: scaled in place
    if not (eagle.attack.any() and eagle.cruise.any()):
        raise ValueError("attack and cruise vectors must be nonzero")
    r1pa = float(rng.random()) * pa
    r2pc = float(rng.random()) * pc
    eagle.lengths[:, 0] = r1pa, r2pc
    return eagle.scaled_step()[0], r1pa, r2pc


def decode_position(position: np.ndarray, n_candidates: int) -> np.ndarray:
    """Round-half-up each clamped coordinate to a candidate index in the
    narrowest unsigned dtype; decodes one position or a ``(pop, dim)`` flock."""
    clamped = np.maximum(position, 0.0)
    np.minimum(clamped, n_candidates - 1.0, out=clamped)
    return _round_half_up(clamped, np.empty(clamped.shape, np.min_scalar_type(n_candidates - 1)))


def _round_half_up(positions, out):
    """Round nonnegative ``positions`` half up into the integer array
    ``out``: the cast to it truncates, which is the floor of ``x + 0.5``."""
    return np.add(positions, 0.5, out=out, casting="unsafe")


def _propensities(params: GeoParams):
    pa = np.linspace(params.pa_schedule[0], params.pa_schedule[1], params.iterations)
    pc = np.linspace(params.pc_schedule[0], params.pc_schedule[1], params.iterations)
    return pa, pc


class _Flock:
    """A swarm's positions and the one buffer its moves reuse (see the
    module docstring).  The flock copies the positions it starts from and
    moves its copy in place."""

    def __init__(self, positions, upper: float):
        pop, dim = positions.shape
        cells = pop * dim
        self.positions = np.array(positions, dtype=float)
        self.upper = upper
        buffer = np.empty(3 * cells + 2 * pop)
        self.pair = buffer[: 2 * cells].reshape(2, pop, dim)
        self.attack, self.cruise = self.pair
        self.flat_attack, self.flat_cruise = buffer[:cells], buffer[cells : 2 * cells]
        self.draws = buffer[cells:]
        self.lengths = buffer[2 * cells : 2 * cells + 2 * pop].reshape(2, pop)  # r1, r2
        self.pick = buffer[2 * cells + 2 * pop :].reshape(pop, dim)
        self.rows = np.arange(0, cells, dim)  # the flat index of each row's first cell

    def move(self, source, perm, pa_pc, rng):
        """Move each eagle ``i`` toward its prey ``source[perm[i]]`` by
        r1*pa along the attack unit direction plus r2*pc along a random
        cruise direction orthogonal to it, then clamp to [0, upper];
        ``pa_pc`` is ``(pa, pc)`` shaped ``(2, 1)``.  An eagle on its
        prey does not move.  Returns the step, in the attack buffer, which
        holds it until the next move."""
        attack = self.attack
        source.take(perm, axis=0, out=attack, mode="clip")
        np.subtract(attack, self.positions, out=attack)
        rng.random(out=self.draws)
        np.multiply(self.lengths, pa_pc, out=self.lengths)
        self.orthogonal_cruise()
        delta = self.scaled_step()
        positions = np.add(self.positions, delta, out=self.positions)
        # the spent cruise and pick regions hold the bounds: numpy clamps
        # against arrays of the positions' shape some 4x faster than
        # against scalars, to the same bits (tests/test_hot_loops.py), and
        # reusing them adds no memory
        lower, upper = self.pick, self.cruise
        lower.fill(0.0)
        upper.fill(self.upper)
        np.maximum(positions, lower, out=positions)
        np.minimum(positions, upper, out=positions)
        return delta

    def orthogonal_cruise(self):
        """Turn the uniform [0, 1) draws in ``cruise`` into directions
        orthogonal to the ``attack`` rows, overwriting ``pick``.  A cruise
        coordinate is ``(u + u) - 1``, the bits of ``uniform(-1, 1)``.  Per
        row, the nonzero attack coordinate with the highest ``pick`` score
        (a uniform choice for uniform scores) is solved from the
        orthogonality equation; rows with a zero attack get zeros."""
        attack, cruise, pick, flat_cruise = self.attack, self.cruise, self.pick, self.flat_cruise
        np.add(cruise, cruise, out=cruise)
        np.subtract(cruise, 1.0, out=cruise)
        np.copyto(pick, -1.0, where=np.equal(attack, 0.0))
        cells = np.add(pick.argmax(axis=1), self.rows)
        solved = self.flat_attack[cells]  # zero only where the whole row is
        still = np.equal(solved, 0.0)
        flat_cruise[cells] = 0.0
        dot = np.add.reduce(np.multiply(attack, cruise, out=pick), axis=1)
        # -dot / attack, the sign of a NaN dot flipped too; a still row
        # divides by 1 and is zeroed
        np.negative(dot, out=dot)
        flat_cruise[cells] = np.divide(dot, np.add(still, solved, out=solved), out=dot)
        np.copyto(cruise, 0.0, where=still[:, None])

    def scaled_step(self):
        """Per row, ``lengths[0]`` times the attack unit direction plus
        ``lengths[1]`` times the cruise unit direction; a zero row
        contributes nothing.  Both are scaled in place, and the step is
        returned in the attack buffer."""
        pair = self.pair
        norm = np.sqrt(np.add.reduce(np.multiply(pair, pair), axis=2))
        np.divide(self.lengths, np.where(np.greater(norm, 0.0), norm, np.inf), out=norm)
        np.multiply(pair, norm[:, :, None], out=pair)
        return np.add(self.attack, self.cruise, out=self.attack)


# A fitness cache's byte budget, and what an entry costs beside its key:
# tracemalloc reads 33 B for the bytes header, 24 B for the float and
# 47-52 B for the dict's slot and index share, whatever the key's length
_CACHE_BYTES = 1 << 20
_ENTRY_OVERHEAD = 106


class _SubProblem:
    """Shared optimizer plumbing: candidate decoding and cached fitness of a
    task subset mapped onto a candidate node set.

    GEO and IGEO carry genomes in ``key_dtype``, the narrowest unsigned
    type that holds every candidate index (``uint8`` up to 256 candidates,
    ``uint16`` up to 65,536), and a cache key is a genome's bytes in it: a
    600-task key is 600 bytes this way instead of 4,800 as ``intp``.  The
    kernel still reads ``intp`` node indices, gathered from
    ``candidate_idx`` by the same narrow genome the key holds, so a key
    names the genome that was scored.  ``fitness_many`` keys a whole batch
    in one call, viewing each row of a C-contiguous genome matrix as one
    ``np.void`` value of its bytes.  A NaN fitness (a zero weight times an
    inf objective) is cached as inf.

    Every key of a cache has one length, so an entry costs the key's bytes
    plus ``_ENTRY_OVERHEAD``.  An insert that takes the cache past
    ``_CACHE_BYTES`` drops its oldest entries, in insertion order, until it
    holds at most half the budget; each drop frees half the budget, so the
    cost per insert is amortized O(1).  The dict is shared
    (``Evaluator.fitness_caches``, and RL's list stepper reads it for a
    whole run), so it is trimmed in place, never rebound.  Threads running
    on one instance share its caches, so a trim may find keys another
    thread's trim dropped, and ``fitness_many`` returns its misses from the
    values it scored, not from the cache.  A dropped entry is scored again
    if it comes back, to the same bits: the cache changes only speed."""

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
        _check_ids("task", self.task_ids, evaluator._task_index)
        _check_ids("candidate node", self.candidates, evaluator._node_index)
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
        self._cache_limit = _CACHE_BYTES // (self._key_row.itemsize + _ENTRY_OVERHEAD)  # entries

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
            if len(self._cache) > self._cache_limit:
                self._trim()
        return cached

    def fitness_many(self, genomes) -> np.ndarray:
        """Fitness of every row of a ``(pop, dim)`` genome matrix.  Rows
        already cached are looked up; the distinct misses are scored in one
        kernel call, so a genome repeated in the batch is computed once."""
        genomes = np.ascontiguousarray(genomes, dtype=self.key_dtype)
        keys = genomes.view(self._key_row).ravel().tolist()  # each row's bytes
        cache = self._cache
        values = list(map(cache.get, keys))  # a fitness is never None
        if None in values:
            missing = {key: i for i, (key, value) in enumerate(zip(keys, values)) if value is None}
            rows = genomes[list(missing.values())]
            fits = self.ctx.fitness(self.candidate_idx.take(rows), self.weights)
            scored = dict(zip(missing, np.fmin(fits, np.inf).tolist()))
            cache.update(scored)
            # a miss reads ``scored``, not the cache, which another thread may trim
            values = list(map(scored.get, keys, values))
            if len(cache) > self._cache_limit:
                self._trim()
        return np.array(values)

    def _trim(self):
        """Drop the cache's oldest entries until it holds at most half its
        budget; a key may be gone already, and the cache may be under half
        its budget (another thread trimmed or emptied it)."""
        cache = self._cache
        for key in list(islice(cache, max(0, len(cache) - self._cache_limit // 2))):
            cache.pop(key, None)

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

    memory_pos = rng.uniform(0.0, upper, size=(pop, dim))
    flock = _Flock(memory_pos, upper)
    positions = flock.positions
    genomes = decode_position(positions, problem.n_candidates)  # rewritten each iteration
    memory_fit = problem.fitness_many(genomes)
    best_i = int(np.argmin(memory_fit))
    best_genome = genomes[best_i].copy()
    best_fit = float(memory_fit[best_i])

    pa_pc = np.stack(_propensities(params), axis=1)[:, :, None]
    for t in range(params.iterations):
        flock.move(memory_pos, rng.permutation(pop), pa_pc[t], rng)
        fits = problem.fitness_many(_round_half_up(positions, genomes))  # clamped by the move
        improved = np.less(fits, memory_fit)
        np.copyto(memory_fit, fits, where=improved)
        np.copyto(memory_pos, positions, where=improved[:, None])
        # the first eagle holding the iteration's minimum, as a sequential
        # scan with a strict comparison would pick
        fit_i = int(fits.argmin())
        if fits[fit_i] < best_fit:
            best_fit = float(fits[fit_i])
            best_genome = genomes[fit_i].copy()
        if trace is not None:
            trace.append((t, best_fit))

    return problem.to_assignment(best_genome), best_fit
