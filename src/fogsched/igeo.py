"""Discrete golden-eagle variant: the step magnitudes of a continuous swarm
move select between genetic operators, which act directly on integer
assignment genomes.  Cruise dominance (r1*pa < r2*pc) selects mutation;
attack dominance, or an exact tie, selects crossover; within each branch a
fresh uniform draw picks the concrete operator.

``igeo_optimize`` moves no swarm, but it makes a move's draws, so its random
stream is that of the eager loop that moved one: it shuffles one index
buffer as the move's permutation, skips the cruise and pick with
``PCG64.advance`` and draws r1 and r2.

Every operator builds its children with one select (``_offspring``): a
child is its parent genome inside a window [low, high) and the best genome
outside it, whole for a mutation of the parent, empty for a mutation of
the best, and between the cut points for a crossover; a mutation then
redraws some of its child's genes in one scatter.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .geo import GeoParams, _SubProblem, _propensities
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


def _is_mutation(delta_sum, r1pa, r2pc):
    """Branch rule of a swarm step: cruise dominance (|r1*pa| < |r2*pc|)
    means exploration (mutation), attack dominance exploitation (crossover);
    an exact tie mutates when the step's component sum is negative."""
    abs_a, abs_c = np.abs(r1pa), np.abs(r2pc)
    return (abs_a < abs_c) | ((abs_a == abs_c) & (delta_sum < 0))


def _branch_draws(rng, pop: int, dim: int):
    """``(r1, r2)`` of a swarm move whose permutation ``rng`` has just drawn,
    skipping the ``(pop, dim)`` cruise before them and pick after them.
    ``advance`` drops the buffered 32-bit half, which float draws keep and a
    later integer draw reads, so it is put back."""
    bit_generator = rng.bit_generator
    state = bit_generator.state
    bit_generator.advance(pop * dim)
    r12 = rng.random(2 * pop)
    bit_generator.advance(pop * dim)
    if state["has_uint32"]:
        ahead = bit_generator.state
        ahead["has_uint32"], ahead["uinteger"] = 1, state["uinteger"]
        bit_generator.state = ahead
    return r12[:pop], r12[pop:]


def _prefix_table(dim: int):
    """Row i is ``cols < i``: the window [low, high) is ``table[high] > table[low]``."""
    return np.arange(dim) < np.arange(dim + 1)[:, None]


def _offspring(genomes, best, mutation, r, n_candidates, mutation_rate, rng, prefix=None):
    """One offspring per row of ``genomes`` against the ``best`` genome.
    Mutation rows mutate ``best`` (r >= 0.5) or their own genome; the other
    rows cross ``best`` with their genome, one-point for r >= 0.5 and
    two-point otherwise.  Genomes too short for a crossover fall back to the
    next simpler operator (two-point -> one-point -> copy of ``best``).

    Every child is one select: its row's genome inside a window [low, high)
    and ``best`` outside it.  The window is the whole genome for a mutation
    of it, empty for a mutation or a copy of ``best``, [cut, dim) for a
    one-point cut in [1, dim) and [c1, c2) for two distinct two-point cuts.
    A mutation then reassigns k = max(1, ceil(rate * dim)) distinct random
    genes of its child, each to a different candidate index; with a single
    candidate there is no other allele and the child stays as it is.  The
    draws come in that order: mutation positions and alleles, then
    one-point and then two-point cuts, each in row order."""
    rows, dim = genomes.shape
    upper = r >= 0.5
    window = np.empty((2, rows), dtype=np.intp)  # each row's low, then high
    window.fill(dim)  # empty
    np.copyto(window[0], 0, where=np.greater(mutation, upper))  # the whole genome
    mut_rows = mutation.nonzero()[0]
    mutated = mut_rows.size > 0 and n_candidates > 1 and dim > 0
    if mutated:
        k = min(dim, max(1, math.ceil(mutation_rate * dim)))
        positions = rng.random((mut_rows.size, dim)).argpartition(k - 1, axis=1)[:, :k]
        draws = rng.integers(0, n_candidates - 1, size=(mut_rows.size, k))
    if dim >= 2:
        cross = ~mutation
        single = cross & upper if dim >= 3 else cross
        one_rows = single.nonzero()[0]
        if one_rows.size:
            window[0, one_rows] = rng.integers(1, dim, size=one_rows.size)
        two_rows = (cross ^ single).nonzero()[0]
        if two_rows.size:
            cuts = rng.random((two_rows.size, dim - 1)).argpartition(1, axis=1)[:, :2] + 1
            cuts.sort(axis=1)
            window[:, two_rows] = cuts.T
    if prefix is None:
        prefix = _prefix_table(dim)
    low, high = prefix.take(window, axis=0)
    children = np.where(np.greater(high, low), genomes, best)
    if mutated:
        # flat cell indices: the positions of a row are distinct, so every
        # cell is read and written once
        cells = positions + (mut_rows * dim)[:, None]
        genes = children.reshape(-1)  # a view: np.where's result is C-contiguous
        draws += draws >= genes[cells]  # skip the current allele
        genes[cells] = draws
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
    mutation, r = np.ones(len(child), dtype=bool), np.zeros(len(child))  # of the genome itself
    return _offspring(child, child[0], mutation, r, n_candidates, mutation_rate, rng)[0]


def _crossover(parent_a, parent_b, r: float, rng, min_length: int, name: str):
    """The crossover row of ``_offspring`` that crosses ``parent_a``, as
    best, with ``parent_b``: one-point for r >= 0.5, two-point otherwise."""
    parent_a = np.asarray(parent_a, dtype=np.intp)
    parent_b = np.asarray(parent_b, dtype=np.intp)
    if parent_a.shape != parent_b.shape:
        raise ValueError("parents must have equal length")
    if len(parent_a) < min_length:
        raise ValueError(f"{name} crossover needs length >= {min_length}")
    crossing = np.zeros(1, dtype=bool)
    return _offspring(parent_b[None, :], parent_a, crossing, np.array([r]), 1, 0.0, rng)[0]


def crossover_single(
    parent_a: np.ndarray, parent_b: np.ndarray, rng: np.random.Generator
) -> np.ndarray:
    """One-point crossover: child takes a up to the cut, b after it."""
    return _crossover(parent_a, parent_b, 1.0, rng, 2, "single-point")


def crossover_two(
    parent_a: np.ndarray, parent_b: np.ndarray, rng: np.random.Generator
) -> np.ndarray:
    """Two-point crossover: child takes b inside [c1, c2), a outside."""
    return _crossover(parent_a, parent_b, 0.0, rng, 3, "two-point")


def classify_step(delta_sum: float, r1pa: float, r2pc: float) -> int:
    """Map a swarm step to an operator branch: cruise dominance means
    exploration (mutation), attack dominance means exploitation (crossover);
    exact magnitude ties are broken by the step's component sum.
    ``igeo_optimize`` reads no step: its exact tie crosses over."""
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
    genome found so far.  Acceptance is the caller's decision.  The branch
    is ``draw.step_sign``; ``igeo_optimize`` reads no step.

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
    """Full discrete loop: the step magnitudes r1*pa and r2*pc of a swarm
    move pick each eagle's branch and genetic operators move the genomes.
    The best genome ever evaluated is tracked separately, so the reported
    fitness never worsens even though mutation offspring replace their eagle
    unconditionally.  Returns (assignment, fitness) of that best genome."""
    problem = _SubProblem(instance, candidate_nodes, tasks, weights)
    rng = np.random.default_rng(params.rng_seed)
    pop, dim = params.population_size, problem.dim
    n_cand = problem.n_candidates

    # drawn as intp (a narrower draw takes other random bits), bred in key_dtype
    genomes = rng.integers(0, n_cand, size=(pop, dim), dtype=np.intp).astype(problem.key_dtype)
    fitnesses = problem.fitness_many(genomes)
    best_i = int(np.argmin(fitnesses))
    best_genome = genomes[best_i].copy()
    best_fit = float(fitnesses[best_i])

    # a swarm move draws perm, cruise, r1, r2 and pick; the perm is shuffled
    # into one buffer: ``permutation(n)`` is ``shuffle(arange(n))``, and a
    # shuffle's draws depend only on n
    order, prefix = np.arange(pop), _prefix_table(dim)
    pa_sched, pc_sched = _propensities(params)
    for t in range(params.iterations):
        rng.shuffle(order)
        r1, r2 = _branch_draws(rng, pop, dim)
        # |r1*pa| < |r2*pc|, as the schedules are nonnegative; a tie crosses over
        mutation = np.less(r1 * pa_sched[t], r2 * pc_sched[t])
        r = rng.random(pop)
        children = _offspring(
            genomes, best_genome, mutation, r, n_cand, params.mutation_rate, rng, prefix
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
