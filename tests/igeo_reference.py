"""Reference IGEO loop: the eager loop that ``igeo.igeo_optimize``
replaced.  It moves the continuous shadow swarm every iteration and reads
the operator branch from the move's ``(delta_sum, r1*pa, r2*pc)``.  The new
loop draws only ``r1*pa`` and ``r2*pc`` and rebuilds the shadow only on an
exact positive tie; it must match this one bit for bit: mapping, fitness
and trace."""

import numpy as np

from fogsched.geo import _SubProblem, _propensities, _swarm_move
from fogsched.igeo import _is_mutation, _offspring


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
