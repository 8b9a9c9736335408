"""Discrete golden-eagle variant: the continuous step geometry is kept only
as a shadow signal that selects between genetic operators, which act directly
on integer assignment genomes.

Operator choice: cruise dominance (|r1*pa| < |r2*pc|) selects mutation,
attack dominance selects crossover; an exact tie falls back to the sign of
the summed step components.  Within each branch a fresh uniform draw picks
the concrete operator.
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

    def __post_init__(self):
        super().__post_init__()
        if not 0.0 < self.mutation_rate <= 1.0:
            raise ValueError("mutation_rate must be in (0, 1]")


@dataclass(frozen=True)
class OperatorDraw:
    """The randomness feeding one operator selection."""

    r1pa: float
    r2pc: float
    step_sign: int  # NEGATIVE -> mutation branch, POSITIVE -> crossover branch
    r: float


def mutate(
    genome: np.ndarray,
    n_candidates: int,
    rng: np.random.Generator,
    mutation_rate: float = 0.1,
) -> np.ndarray:
    """Reassign k = max(1, ceil(rate * len)) random genes to different
    candidate indices.  With a single candidate there is no alternative
    allele and the genome is returned unchanged."""
    genome = np.asarray(genome, dtype=np.intp)
    child = genome.copy()
    if n_candidates < 2 or len(genome) == 0:
        return child
    k = max(1, math.ceil(mutation_rate * len(genome)))
    k = min(k, len(genome))
    positions = np.argpartition(rng.random(len(genome)), k - 1)[:k]
    draws = rng.integers(0, n_candidates - 1, size=k)
    draws += draws >= child[positions]  # skip over the current allele
    child[positions] = draws
    return child


def crossover_single(
    parent_a: np.ndarray, parent_b: np.ndarray, rng: np.random.Generator
) -> np.ndarray:
    """One-point crossover: child takes a up to the cut, b after it."""
    parent_a = np.asarray(parent_a, dtype=np.intp)
    parent_b = np.asarray(parent_b, dtype=np.intp)
    if parent_a.shape != parent_b.shape:
        raise ValueError("parents must have equal length")
    if len(parent_a) < 2:
        raise ValueError("single-point crossover needs length >= 2")
    cut = int(rng.integers(1, len(parent_a)))
    return np.concatenate([parent_a[:cut], parent_b[cut:]])


def crossover_two(
    parent_a: np.ndarray, parent_b: np.ndarray, rng: np.random.Generator
) -> np.ndarray:
    """Two-point crossover: child takes b inside [c1, c2), a outside."""
    parent_a = np.asarray(parent_a, dtype=np.intp)
    parent_b = np.asarray(parent_b, dtype=np.intp)
    if parent_a.shape != parent_b.shape:
        raise ValueError("parents must have equal length")
    if len(parent_a) < 3:
        raise ValueError("two-point crossover needs length >= 3")
    cuts = np.argpartition(rng.random(len(parent_a) - 1), 1)[:2]
    c1, c2 = sorted(int(c) + 1 for c in cuts)
    child = parent_a.copy()
    child[c1:c2] = parent_b[c1:c2]
    return child


def classify_step(delta_sum: float, r1pa: float, r2pc: float) -> int:
    """Map a shadow step to an operator branch: cruise dominance means
    exploration (mutation), attack dominance means exploitation (crossover);
    exact magnitude ties are broken by the step's component sum."""
    if abs(r1pa) < abs(r2pc):
        return NEGATIVE
    if abs(r1pa) > abs(r2pc):
        return POSITIVE
    return NEGATIVE if delta_sum < 0 else POSITIVE


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
    if draw.step_sign == NEGATIVE:
        parent = x_best if draw.r >= 0.5 else genome
        return mutate(parent, n_candidates, rng, mutation_rate)
    if len(genome) < 2:
        return x_best.copy()
    if draw.r >= 0.5 or len(genome) < 3:
        return crossover_single(x_best, genome, rng)
    return crossover_two(x_best, genome, rng)


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
    cols = np.arange(dim)
    k_mut = min(dim, max(1, math.ceil(params.mutation_rate * dim))) if dim else 0

    genomes = rng.integers(0, n_cand, size=(pop, dim), dtype=np.intp)
    shadow = genomes.astype(float)
    fitnesses = problem.fitness_many(genomes)
    best_i = int(np.argmin(fitnesses))
    best_genome = genomes[best_i].copy()
    best_fit = float(fitnesses[best_i])

    pa_sched, pc_sched = _propensities(params)
    for t in range(params.iterations):
        perm = rng.permutation(pop)
        shadow, delta_sum, r1pa, r2pc = _swarm_move(
            shadow, shadow[perm], pa_sched[t], pc_sched[t], rng, upper
        )
        # whole-flock operator application against the iteration's incumbent
        # best genome; same per-eagle semantics as igeo_step
        abs_a, abs_c = np.abs(r1pa), np.abs(r2pc)
        negative = (abs_a < abs_c) | ((abs_a == abs_c) & (delta_sum < 0))
        r = rng.random(pop)
        children = np.empty_like(genomes)

        neg_rows = np.flatnonzero(negative)
        if neg_rows.size and n_cand >= 2:
            parents = np.where(
                (r[neg_rows] >= 0.5)[:, None], best_genome[None, :], genomes[neg_rows]
            )
            pos = np.argpartition(rng.random((neg_rows.size, dim)), k_mut - 1, axis=1)[:, :k_mut]
            draws = rng.integers(0, n_cand - 1, size=(neg_rows.size, k_mut))
            draws += draws >= np.take_along_axis(parents, pos, axis=1)
            np.put_along_axis(parents, pos, draws, axis=1)
            children[neg_rows] = parents
        elif neg_rows.size:
            children[neg_rows] = np.where(
                (r[neg_rows] >= 0.5)[:, None], best_genome[None, :], genomes[neg_rows]
            )

        cross_rows = np.flatnonzero(~negative)
        if cross_rows.size:
            if dim < 2:
                children[cross_rows] = best_genome
            else:
                single = r[cross_rows] >= 0.5
                if dim < 3:
                    single[:] = True
                s_rows = cross_rows[single]
                if s_rows.size:
                    cuts = rng.integers(1, dim, size=s_rows.size)
                    children[s_rows] = np.where(
                        cols < cuts[:, None], best_genome[None, :], genomes[s_rows]
                    )
                t_rows = cross_rows[~single]
                if t_rows.size:
                    cut_pairs = np.argpartition(
                        rng.random((t_rows.size, dim - 1)), 1, axis=1
                    )[:, :2] + 1
                    c1 = cut_pairs.min(axis=1)[:, None]
                    c2 = cut_pairs.max(axis=1)[:, None]
                    inside = (cols >= c1) & (cols < c2)
                    children[t_rows] = np.where(
                        inside, genomes[t_rows], best_genome[None, :]
                    )

        fits = problem.fitness_many(children)
        # mutation offspring always become the new position (keeps the
        # population exploring); crossover offspring only when not worse
        accept = negative | (fits <= fitnesses)
        genomes[accept] = children[accept]
        fitnesses[accept] = fits[accept]
        fit_i = int(fits.argmin())
        if fits[fit_i] < best_fit:
            best_fit = float(fits[fit_i])
            best_genome = children[fit_i].copy()
        if trace is not None:
            trace.append((t, best_fit))

    return problem.to_assignment(best_genome), best_fit
