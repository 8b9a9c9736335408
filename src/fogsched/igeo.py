"""Discrete golden-eagle variant: the continuous step geometry is kept only
as a shadow signal that selects between genetic operators, which act directly
on integer assignment genomes.

Operator choice: cruise dominance (|r1*pa| < |r2*pc|) selects mutation,
attack dominance selects crossover; an exact tie falls back to the sign of
the summed step components.  Within each branch a fresh uniform draw picks
the concrete operator.

The signal is the step magnitudes: the shadow's positions are computed
only to break an exact positive tie (a zero tie's step sum is +-0 or NaN,
never negative).  So ``igeo_optimize`` skips the shadow's other draws and
replays its moves from per-iteration generator checkpoints only on such a
tie, with the same bits as moving it every iteration.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .geo import GeoParams, _SubProblem, _propensities, _swarm_move
from .metrics import FitnessWeights
from .model import Instance

__all__ = [
    "IgeoParams",
    "OperatorDraw",
    "mutate",
    "crossover_single",
    "crossover_two",
    "classify_step",
    "igeo_step",
    "igeo_optimize",
]

NEGATIVE = -1
POSITIVE = 1


@dataclass(frozen=True)
class IgeoParams(GeoParams):
    mutation_rate: float = 0.2


@dataclass(frozen=True)
class OperatorDraw:
    """The randomness feeding one operator selection."""

    r1pa: float
    r2pc: float
    step_sign: int  # NEGATIVE -> mutation branch, POSITIVE -> crossover branch
    r: float


def _mutate_rows(parents: np.ndarray, n_candidates: int, mutation_rate: float, rng):
    """Reassign k = max(1, ceil(rate * dim)) distinct random genes of every
    row of the C-contiguous ``parents``, in place, each to a different
    candidate index.  With a single candidate there is no alternative allele
    and the rows stay unchanged."""
    rows, dim = parents.shape
    if n_candidates < 2 or dim == 0:
        return parents
    k = min(dim, max(1, math.ceil(mutation_rate * dim)))
    positions = rng.random((rows, dim)).argpartition(k - 1, axis=1)[:, :k]
    draws = rng.integers(0, n_candidates - 1, size=(rows, k))
    # flat cell indices: the positions of a row are distinct, so every
    # cell is read and written once
    cells = positions + np.arange(0, rows * dim, dim)[:, None]
    genes = parents.reshape(-1)  # a view: parents is C-contiguous
    draws += draws >= genes[cells]  # skip the current allele
    genes[cells] = draws
    return parents


def _cross_one(first: np.ndarray, second: np.ndarray, rng) -> np.ndarray:
    """One-point crossover per row of ``second``: the child takes ``first``
    (one row, or one per row) before a cut in [1, dim) and ``second`` after."""
    rows, dim = second.shape
    cuts = rng.integers(1, dim, size=rows)
    return np.where(np.arange(dim) < cuts[:, None], first, second)


def _cross_two(outside: np.ndarray, inside: np.ndarray, rng) -> np.ndarray:
    """Two-point crossover per row of ``inside``: the child takes ``inside``
    within [c1, c2) for two distinct cuts in [1, dim) and ``outside``
    elsewhere."""
    rows, dim = inside.shape
    cuts = rng.random((rows, dim - 1)).argpartition(1, axis=1)[:, :2] + 1
    cols = np.arange(dim)
    low, high = np.minimum(cuts[:, 0], cuts[:, 1]), np.maximum(cuts[:, 0], cuts[:, 1])
    within = (cols >= low[:, None]) & (cols < high[:, None])
    return np.where(within, inside, outside)


def _is_mutation(delta_sum, r1pa, r2pc):
    """Branch rule: cruise dominance (|r1*pa| < |r2*pc|) means exploration
    (mutation), attack dominance exploitation (crossover); an exact tie
    mutates when the step's component sum is negative."""
    abs_a, abs_c = np.abs(r1pa), np.abs(r2pc)
    return (abs_a < abs_c) | ((abs_a == abs_c) & (delta_sum < 0))


def _skip_doubles(rng, count):
    """Move ``rng`` past ``count`` float64 draws without making them, as
    ``rng.random(count)`` would.  ``advance`` drops the buffered 32-bit
    half, which a float draw keeps and a later integer draw reads, so it is
    put back."""
    bit_generator = rng.bit_generator
    state = bit_generator.state
    bit_generator.advance(count)
    if state["has_uint32"]:
        ahead = bit_generator.state
        ahead["has_uint32"], ahead["uinteger"] = 1, state["uinteger"]
        bit_generator.state = ahead


def _offspring(genomes, best, mutation, r, n_candidates, mutation_rate, rng):
    """One offspring per row of ``genomes`` against the ``best`` genome.
    Mutation rows mutate ``best`` (r >= 0.5) or their own genome; the other
    rows cross ``best`` with their genome, one-point for r >= 0.5 and
    two-point otherwise.  Genomes too short for a crossover fall back to the
    next simpler operator (two-point -> one-point -> copy of ``best``)."""
    dim = genomes.shape[1]
    best = best[None, :]
    children = np.empty_like(genomes)
    mut_rows = mutation.nonzero()[0]
    if mut_rows.size:
        parents = np.where((r[mut_rows] >= 0.5)[:, None], best, genomes[mut_rows])
        children[mut_rows] = _mutate_rows(parents, n_candidates, mutation_rate, rng)
    cross_rows = np.logical_not(mutation).nonzero()[0]
    if cross_rows.size and dim < 2:
        children[cross_rows] = best
    elif cross_rows.size:
        single = (r[cross_rows] >= 0.5) | (dim < 3)
        one_rows, two_rows = cross_rows[single], cross_rows[~single]
        if one_rows.size:
            children[one_rows] = _cross_one(best, genomes[one_rows], rng)
        if two_rows.size:
            children[two_rows] = _cross_two(best, genomes[two_rows], rng)
    return children


def mutate(
    genome: np.ndarray,
    n_candidates: int,
    rng: np.random.Generator,
    mutation_rate: float = 0.1,
) -> np.ndarray:
    """Reassign k = max(1, ceil(rate * len)) random genes to different
    candidate indices.  With a single candidate there is no alternative
    allele and the genome is returned unchanged."""
    child = np.array(genome, dtype=np.intp, ndmin=2)
    return _mutate_rows(child, n_candidates, mutation_rate, rng)[0]


def _parent_rows(parent_a, parent_b, min_length: int, name: str):
    parent_a = np.asarray(parent_a, dtype=np.intp)
    parent_b = np.asarray(parent_b, dtype=np.intp)
    if parent_a.shape != parent_b.shape:
        raise ValueError("parents must have equal length")
    if len(parent_a) < min_length:
        raise ValueError(f"{name} crossover needs length >= {min_length}")
    return parent_a[None, :], parent_b[None, :]


def crossover_single(
    parent_a: np.ndarray, parent_b: np.ndarray, rng: np.random.Generator
) -> np.ndarray:
    """One-point crossover: child takes a up to the cut, b after it."""
    return _cross_one(*_parent_rows(parent_a, parent_b, 2, "single-point"), rng)[0]


def crossover_two(
    parent_a: np.ndarray, parent_b: np.ndarray, rng: np.random.Generator
) -> np.ndarray:
    """Two-point crossover: child takes b inside [c1, c2), a outside."""
    return _cross_two(*_parent_rows(parent_a, parent_b, 3, "two-point"), rng)[0]


def classify_step(delta_sum: float, r1pa: float, r2pc: float) -> int:
    """Map a shadow step to an operator branch: cruise dominance means
    exploration (mutation), attack dominance means exploitation (crossover);
    exact magnitude ties are broken by the step's component sum."""
    return NEGATIVE if _is_mutation(delta_sum, r1pa, r2pc) else POSITIVE


def igeo_step(
    genome: np.ndarray,
    x_best: np.ndarray,
    draw: OperatorDraw,
    rng: np.random.Generator,
    n_candidates: int,
    mutation_rate: float = 0.1,
) -> np.ndarray:
    """Produce one offspring genome from the current genome and the best
    genome found so far.  Acceptance is the caller's decision.

    Genomes too short for a crossover fall back to the next simpler
    operator (two-point -> single-point -> copy of the best genome).
    """
    genome = np.asarray(genome, dtype=np.intp)
    x_best = np.asarray(x_best, dtype=np.intp)
    mutation = np.array([draw.step_sign == NEGATIVE])
    return _offspring(
        genome[None, :], x_best, mutation, np.array([draw.r]), n_candidates, mutation_rate, rng
    )[0]


@np.errstate(over="ignore", invalid="ignore")  # as geo_optimize
def igeo_optimize(
    instance: Instance,
    candidate_nodes,
    tasks,
    params: IgeoParams,
    weights: FitnessWeights,
    trace: Optional[list] = None,
) -> tuple:
    """Full discrete loop: shadow swarm supplies the branch signal and
    genetic operators move the genomes.  The best genome ever evaluated is
    tracked separately, so the reported fitness never worsens even though
    mutation offspring replace their eagle unconditionally.  Returns
    (assignment, fitness) of that best genome."""
    problem = _SubProblem(instance, candidate_nodes, tasks, weights)
    rng = np.random.default_rng(params.rng_seed)
    pop, dim = params.population_size, problem.dim
    n_cand = problem.n_candidates
    upper = float(n_cand - 1)

    # drawn as intp (a narrower draw takes other random bits), bred in key_dtype
    genomes = rng.integers(0, n_cand, size=(pop, dim), dtype=np.intp).astype(problem.key_dtype)
    # the shadow swarm after ``moved`` moves, advanced only on a positive tie
    shadow, moved = genomes.astype(float), 0
    checkpoints = []  # the generator's state at the start of each iteration
    bit_generator = rng.bit_generator
    fitnesses = problem.fitness_many(genomes)
    best_i = int(np.argmin(fitnesses))
    best_genome = genomes[best_i].copy()
    best_fit = float(fitnesses[best_i])

    pa_sched, pc_sched = _propensities(params)
    for t in range(params.iterations):
        # the draws of a shadow move: perm, cruise, r1, r2, pick
        checkpoints.append(bit_generator.state)
        rng.permutation(pop)
        _skip_doubles(rng, pop * dim)
        r1pa = rng.random(pop) * pa_sched[t]
        r2pc = rng.random(pop) * pc_sched[t]
        _skip_doubles(rng, pop * dim)
        mutation = _is_mutation(0.0, r1pa, r2pc)
        if np.count_nonzero((r1pa == r2pc) & (r1pa > 0.0)):
            # a positive tie reads the shadow: replay its moves up to this one
            resume = bit_generator.state
            while moved <= t:
                bit_generator.state = checkpoints[moved]
                perm = rng.permutation(pop)
                shadow, delta_sum, _, _ = _swarm_move(
                    shadow, shadow[perm], pa_sched[moved], pc_sched[moved], rng, upper
                )
                moved += 1
            bit_generator.state = resume
            mutation = _is_mutation(delta_sum, r1pa, r2pc)
        r = rng.random(pop)
        children = _offspring(
            genomes, best_genome, mutation, r, n_cand, params.mutation_rate, rng
        )

        fits = problem.fitness_many(children)
        # mutation offspring always become the new position (keeps the
        # population exploring); crossover offspring only when not worse
        accept = mutation | (fits <= fitnesses)
        np.copyto(genomes, children, where=accept[:, None])
        np.copyto(fitnesses, fits, where=accept)
        fit_i = int(fits.argmin())
        if fits[fit_i] < best_fit:
            best_fit = float(fits[fit_i])
            best_genome = children[fit_i].copy()
        if trace is not None:
            trace.append((t, best_fit))

    return problem.to_assignment(best_genome), best_fit
