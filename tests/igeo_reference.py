"""Reference IGEO loop: the eager loop that ``igeo.igeo_optimize``
replaced.  It moves the continuous shadow swarm every iteration, with the
frozen step of ``geo_reference``, and reads the operator branch from the
move's ``(delta_sum, r1*pa, r2*pc)``.  The new
loop draws only ``r1*pa`` and ``r2*pc`` and rebuilds the shadow only on an
exact positive tie; it must match this one bit for bit: mapping, fitness
and trace.

The genetic operators below are a frozen copy of the ones the loop first
bred with: one gather, build and scatter per operator (``_mutate_rows``,
``_cross_one``, ``_cross_two``), and ``_skip_doubles``, which moved the
generator past the shadow's float draws.  ``igeo._offspring`` builds
every child with one window select instead and must return the same
children and leave the same generator state."""

import math

import numpy as np

from fogsched.geo import _SubProblem, _propensities
from geo_reference import _swarm_move


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


@np.errstate(over="ignore", invalid="ignore")  # as geo_optimize
def reference_igeo_optimize(instance, candidate_nodes, tasks, params, weights, trace=None):
    problem = _SubProblem(instance, candidate_nodes, tasks, weights)
    rng = np.random.default_rng(params.rng_seed)
    pop, dim = params.population_size, problem.dim
    n_cand = problem.n_candidates
    upper = float(n_cand - 1)

    # drawn as intp (a narrower draw takes other random bits), bred in key_dtype
    genomes = rng.integers(0, n_cand, size=(pop, dim), dtype=np.intp).astype(problem.key_dtype)
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
