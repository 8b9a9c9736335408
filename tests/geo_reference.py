"""Reference GEO step and loop: the code that ``geo._Flock`` replaced.

Each move allocated its own arrays, drew the cruise with
``rng.uniform(-1, 1)`` and r1, r2 and the pick in three more calls, scaled
the attack and cruise directions one after the other, returned the step's
component sums with every move, and decoded by clamping the positions the
move had already clamped.  ``fitness_many`` built its miss dict on every
batch.  The flock must match all of it bit for bit: positions, step sums,
decoded genomes, fitnesses, cache items and generator state."""

import numpy as np

from fogsched.geo import _SubProblem, _propensities


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
    """Vectorized one-iteration move for the whole flock: the new positions
    plus per-eagle (delta_sum, r1*pa, r2*pc).  Eagles that sit exactly on
    their prey do not move."""
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


def cruise_vector(attack, rng):
    attack = np.asarray(attack, dtype=float)
    cruise = rng.uniform(-1.0, 1.0, size=(1, attack.size))
    pick = rng.random((1, attack.size))
    return _orthogonal_cruise(attack[None, :], cruise, pick)[0]


def step_vector(attack, cruise, pa, pc, rng):
    attack = np.array(attack, dtype=float, ndmin=2)
    cruise = np.array(cruise, dtype=float, ndmin=2)
    r1pa = float(rng.random()) * pa
    r2pc = float(rng.random()) * pc
    delta = _scaled_step(attack, cruise, np.array([r1pa]), np.array([r2pc]))
    return delta[0], r1pa, r2pc


def decode_position(position, n_candidates):
    """Round-half-up each clamped coordinate to a candidate index in the
    narrowest unsigned dtype."""
    clamped = np.maximum(position, 0.0)
    np.minimum(clamped, n_candidates - 1.0, out=clamped)
    return np.floor(clamped + 0.5).astype(np.min_scalar_type(n_candidates - 1))


def fitness_many(problem, genomes):
    """``_SubProblem.fitness_many`` as it was: the miss dict built on every
    batch, the result read back from the cache."""
    genomes = np.ascontiguousarray(genomes, dtype=problem.key_dtype)
    keys = genomes.view(problem._key_row).ravel().tolist()
    cache = problem._cache
    missing = {key: i for i, key in enumerate(keys) if key not in cache}
    if missing:
        rows = genomes[list(missing.values())]
        values = problem.ctx.fitness(problem.candidate_idx.take(rows), problem.weights)
        cache.update(zip(missing, np.fmin(values, np.inf).tolist()))
    return np.array([cache[key] for key in keys])


@np.errstate(over="ignore", invalid="ignore")  # as geo_optimize
def reference_geo_optimize(instance, candidate_nodes, tasks, params, weights, trace=None):
    problem = _SubProblem(instance, candidate_nodes, tasks, weights)
    rng = np.random.default_rng(params.rng_seed)
    pop, dim = params.population_size, problem.dim
    upper = float(problem.n_candidates - 1)

    positions = rng.uniform(0.0, upper, size=(pop, dim))
    genomes = decode_position(positions, problem.n_candidates)
    fitnesses = fitness_many(problem, genomes)
    memory_pos = positions.copy()
    memory_fit = fitnesses.copy()
    best_i = int(np.argmin(fitnesses))
    best_genome = genomes[best_i]
    best_fit = float(fitnesses[best_i])

    pa_sched, pc_sched = _propensities(params)
    for t in range(params.iterations):
        perm = rng.permutation(pop)
        prey = memory_pos[perm]
        positions, _, _, _ = _swarm_move(positions, prey, pa_sched[t], pc_sched[t], rng, upper)
        genomes = decode_position(positions, problem.n_candidates)
        fits = fitness_many(problem, genomes)
        improved = fits < memory_fit
        np.copyto(memory_fit, fits, where=improved)
        np.copyto(memory_pos, positions, where=improved[:, None])
        fit_i = int(fits.argmin())
        if fits[fit_i] < best_fit:
            best_fit = float(fits[fit_i])
            best_genome = genomes[fit_i]
        if trace is not None:
            trace.append((t, best_fit))

    return problem.to_assignment(best_genome), best_fit

