"""Reference RL episode: the ``(n, k)`` stepper that the task-minor
``(k, n)`` stepper (``rl._stepper``) replaced.  Every per-task operation is
a numpy row operation over the k candidates of one task.  The new stepper
must match it bit for bit: same samples, fitnesses and preferences."""

import numpy as np


def reference_stepper(fitness_of, config, n: int, k: int):
    """The episode function of an ``(n, k)`` policy:
    ``step(preference, assignment, fitness, exploration, rng)`` samples an
    assignment, scores it, reinforces (improved) or decays (not improved)
    the sampled node of every task in ``preference``, in place, and projects
    each row back onto the simplex slice {p: sum p = 1, p >= floor}, keeping
    the relative order of the mass above the floor.  It returns the sampled
    assignment and its fitness."""
    rows = np.arange(n)
    lr = config.learning_rate
    decay = lr * config.penalty_value / config.reward_value
    floor = min(config.probability_floor, 1.0 / k)
    scale = 1.0 - k * floor

    def step(preference, assignment, fitness, exploration, rng):
        if rng.random() < exploration:
            sampled = assignment.copy()
            sampled[int(rng.integers(0, n))] = int(rng.integers(0, k))
        else:
            cum = np.cumsum(preference, axis=1)
            u = rng.random(n)
            sampled = np.minimum((cum < u[:, None]).sum(axis=1), k - 1).astype(np.intp)
        fit = fitness_of(sampled)
        if fit < fitness:
            chosen = preference[rows, sampled]
            preference *= 1.0 - lr
            preference[rows, sampled] = chosen + lr * (1.0 - chosen)
        else:
            preference[rows, sampled] *= 1.0 - decay
            preference /= preference.sum(axis=1, keepdims=True)
        np.subtract(preference, floor, out=preference)
        np.maximum(preference, 0.0, out=preference)
        totals = preference.sum(axis=1, keepdims=True)
        if (totals == 0.0).any():
            # rows with no mass above the floor fall back to uniform
            np.copyto(preference, 1.0, where=totals == 0.0)
            totals = preference.sum(axis=1, keepdims=True)
        preference *= scale
        preference /= totals
        preference += floor
        return sampled, fit

    return step
