import tracemalloc

import numpy as np
import pytest

from fogsched import (
    FitnessWeights,
    IgeoParams,
    OperatorDraw,
    crossover_single,
    crossover_two,
    igeo_optimize,
    igeo_step,
    mutate,
)
from fogsched.igeo import NEGATIVE, POSITIVE, classify_step
from fogsched.model import validate_assignment

from conftest import make_instance
from oracle import exhaustive_best


def test_mutate_single_candidate_is_identity():
    rng = np.random.default_rng(0)
    genome = np.zeros(8, dtype=int)
    assert mutate(genome, 1, rng).tolist() == genome.tolist()


def test_mutate_flips_exactly_k_positions():
    rng = np.random.default_rng(1)
    genome = np.zeros(10, dtype=int)
    for _ in range(100):
        child = mutate(genome, 3, rng, mutation_rate=0.1)  # k = 1
        assert int((child != genome).sum()) == 1
        child = mutate(genome, 3, rng, mutation_rate=0.35)  # k = 4
        assert int((child != genome).sum()) == 4
        assert child.min() >= 0 and child.max() <= 2


def test_mutate_binary_three_genes():
    rng = np.random.default_rng(2)
    genome = np.array([0, 0, 0])
    seen = set()
    for _ in range(50):
        child = mutate(genome, 2, rng, mutation_rate=0.1)
        assert child.sum() == 1  # exactly one position became 1
        seen.add(tuple(child))
    assert seen == {(1, 0, 0), (0, 1, 0), (0, 0, 1)}


def test_crossover_single():
    rng = np.random.default_rng(3)
    a = np.array([1, 1, 1, 1])
    b = np.array([2, 2, 2, 2])
    child = crossover_single(a, b, rng)
    cut = int((child == 2).argmax()) if (child == 2).any() else len(child)
    assert child.tolist() == [1] * cut + [2] * (4 - cut)
    assert 1 <= cut <= 3
    assert crossover_single(a, a, rng).tolist() == a.tolist()
    with pytest.raises(ValueError):
        crossover_single(a, b[:3], rng)
    with pytest.raises(ValueError):
        crossover_single(a[:1], b[:1], rng)


def test_crossover_two():
    rng = np.random.default_rng(4)
    a = np.array([1, 1, 1, 1, 1])
    b = np.array([2, 2, 2, 2, 2])
    for _ in range(50):
        child = crossover_two(a, b, rng)
        inside = np.flatnonzero(child == 2)
        assert len(inside) >= 1
        assert inside.tolist() == list(range(inside[0], inside[-1] + 1))
        assert child[0] == 1  # cut points start at >= 1
    assert crossover_two(a, a, rng).tolist() == a.tolist()
    with pytest.raises(ValueError):
        crossover_two(a[:2], b[:2], rng)


def test_crossover_positional_inheritance():
    rng = np.random.default_rng(5)
    a = rng.integers(0, 5, size=12)
    b = rng.integers(0, 5, size=12)
    for _ in range(100):
        for child in (crossover_single(a, b, rng), crossover_two(a, b, rng)):
            assert all(c in (x, y) for c, x, y in zip(child, a, b))


def test_classify_step_magnitude_rule():
    assert classify_step(10.0, r1pa=0.1, r2pc=0.5) == NEGATIVE
    assert classify_step(-10.0, r1pa=0.5, r2pc=0.1) == POSITIVE
    assert classify_step(-1.0, r1pa=0.3, r2pc=0.3) == NEGATIVE
    assert classify_step(1.0, r1pa=0.3, r2pc=0.3) == POSITIVE


def test_igeo_step_negative_branch_mutates_best():
    rng = np.random.default_rng(6)
    genome = np.array([0, 0, 0, 0, 0, 0])
    best = np.array([1, 1, 1, 1, 1, 1])
    draw = OperatorDraw(r1pa=0.1, r2pc=0.9, step_sign=NEGATIVE, r=0.7)
    child = igeo_step(genome, best, draw, rng, n_candidates=3)
    assert int((child != best).sum()) == 1  # mutation of x_best, k = 1

    draw = OperatorDraw(r1pa=0.1, r2pc=0.9, step_sign=NEGATIVE, r=0.3)
    child = igeo_step(genome, best, draw, rng, n_candidates=3)
    assert int((child != genome).sum()) == 1  # mutation of x_t


def test_igeo_step_positive_branch_crosses():
    rng = np.random.default_rng(7)
    genome = np.array([0, 0, 0, 0, 0, 0])
    best = np.array([1, 1, 1, 1, 1, 1])
    draw = OperatorDraw(r1pa=0.9, r2pc=0.1, step_sign=POSITIVE, r=0.7)
    child = igeo_step(genome, best, draw, rng, n_candidates=3)
    ones = np.flatnonzero(child == 1)
    assert ones.tolist() == list(range(len(ones)))  # one cut: best prefix

    same = igeo_step(best, best, draw, rng, n_candidates=3)
    assert same.tolist() == best.tolist()


def _draw(step_sign):
    return OperatorDraw(r1pa=0.1, r2pc=0.9, step_sign=step_sign, r=0.3)


@pytest.mark.parametrize("call,message", [
    (lambda rng: mutate(np.zeros(4, dtype=int), 3, rng, mutation_rate=5), "mutation_rate"),
    (lambda rng: mutate(np.zeros(4, dtype=int), 3, rng, mutation_rate=-1), "mutation_rate"),
    (lambda rng: mutate(np.zeros(4, dtype=int), 3, rng, mutation_rate=float("nan")), "mutation_rate"),
    (lambda rng: mutate(np.zeros(4, dtype=int), 3, rng, mutation_rate=0.0), "mutation_rate"),
    (lambda rng: mutate(np.zeros(4, dtype=int), 0, rng), "n_candidates"),
    (lambda rng: mutate(np.array([0, 7, 1]), 3, rng), r"genome must hold candidate indices in \[0, 3\)"),
    (lambda rng: mutate(np.array([0, -1, 1]), 3, rng), "genome"),
    (lambda rng: igeo_step(np.array([0, 7, 1]), np.zeros(3, dtype=int), _draw(POSITIVE), rng, 3), "genome"),
    (lambda rng: igeo_step(np.zeros(3, dtype=int), np.array([0, 9, 1]), _draw(POSITIVE), rng, 3), "x_best"),
    (lambda rng: igeo_step(np.zeros(3, dtype=int), np.zeros(3, dtype=int), _draw(NEGATIVE), rng, 0),
     "n_candidates"),
    (lambda rng: igeo_step(np.zeros(3, dtype=int), np.zeros(3, dtype=int), _draw(NEGATIVE), rng, 3,
                           mutation_rate=5), "mutation_rate"),
    # a float gene was truncated and a bool read as 0 or 1
    (lambda rng: mutate([0.5, 1.7, 2.9], 3, rng), "genome must hold integers, got float64"),
    (lambda rng: mutate([True, False], 3, rng), "genome must hold integers, got bool"),
    (lambda rng: igeo_step(np.zeros(3, dtype=int), [0.0, 1.0, 2.0], _draw(POSITIVE), rng, 3), "x_best"),
    (lambda rng: crossover_single([0.5, 1.7, 2.9], [1, 2, 0], rng), "parent_a must hold integers"),
    (lambda rng: crossover_two([0.5, 1.7, 2.9], [1, 2, 0], rng), "parent_a must hold integers"),
    (lambda rng: crossover_two([1, 2, 0], [True, False, True], rng), "parent_b must hold integers"),
], ids=["mutate-rate-5", "mutate-rate-minus-1", "mutate-rate-nan", "mutate-rate-0", "mutate-no-candidate",
        "mutate-gene-7", "mutate-gene-minus-1", "step-gene-7", "step-best-gene-9", "step-no-candidate",
        "step-rate-5", "mutate-float-genes", "mutate-bool-genes", "step-float-best", "single-float-parent",
        "two-float-parent", "two-bool-parent"])
def test_operators_refuse_what_igeo_params_and_candidates_refuse(call, message):
    with pytest.raises(ValueError, match=message):
        call(np.random.default_rng(0))


def test_igeo_single_candidate(small_instance, unit_weights):
    assignment, _ = igeo_optimize(
        small_instance, [2], [t.id for t in small_instance.tasks],
        IgeoParams(population_size=4, iterations=5, rng_seed=0), unit_weights,
    )
    assert set(assignment.mapping.values()) == {2}


def test_igeo_deterministic(small_instance, unit_weights):
    params = IgeoParams(population_size=6, iterations=20, rng_seed=11)
    tasks = [t.id for t in small_instance.tasks]
    a1, f1 = igeo_optimize(small_instance, [0, 1, 2], tasks, params, unit_weights)
    a2, f2 = igeo_optimize(small_instance, [0, 1, 2], tasks, params, unit_weights)
    assert a1.mapping == a2.mapping and f1 == f2


def test_igeo_elitism_and_validity(small_instance, unit_weights):
    trace = []
    assignment, _ = igeo_optimize(
        small_instance, [0, 1, 2], [t.id for t in small_instance.tasks],
        IgeoParams(population_size=8, iterations=40, rng_seed=2), unit_weights, trace=trace,
    )
    best = [f for _, f in trace]
    assert all(b2 <= b1 for b1, b2 in zip(best, best[1:]))
    assert validate_assignment(small_instance, assignment).ok


def test_igeo_finds_exhaustive_optimum():
    instance = make_instance(6, 3, seed=13)
    weights = FitnessWeights()
    _, optimum = exhaustive_best(instance, weights)
    exact = near = 0
    for seed in range(50):
        _, fit = igeo_optimize(
            instance, [0, 1, 2], [t.id for t in instance.tasks],
            IgeoParams(population_size=20, iterations=200, rng_seed=seed), weights,
        )
        exact += fit <= optimum * (1 + 1e-9)
        near += fit <= optimum * 1.05
    assert exact >= 40  # >= 80% of seeds hit the exhaustive optimum
    assert near >= 49  # >= 98% within 5%


def test_igeo_memory_does_not_grow_with_iterations():
    """A run keeps no per-iteration state beyond its two propensity
    schedules (16 bytes an iteration), so its traced peak at 2,000
    iterations stays within 1.25x its peak at 200."""

    def peak(iterations):
        instance = make_instance(6, 3, seed=0)
        params = IgeoParams(population_size=200, iterations=iterations, rng_seed=0)
        tracemalloc.start()
        try:
            igeo_optimize(instance, [0, 1, 2], [t.id for t in instance.tasks], params, FitnessWeights())
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    short, long = peak(200), peak(2000)
    assert long <= 1.25 * short, (short, long)


def test_igeo_branch_coverage():
    rng = np.random.default_rng(42)
    seen = set()
    for _ in range(10_000):
        r1pa = float(rng.random()) * 2.0
        r2pc = float(rng.random()) * 2.0
        sign = classify_step(float(rng.normal()), r1pa, r2pc)
        r = float(rng.random())
        seen.add((sign, r >= 0.5))
        if len(seen) == 4:
            break
    assert seen == {(NEGATIVE, True), (NEGATIVE, False), (POSITIVE, True), (POSITIVE, False)}


def test_igeo_params_validation():
    with pytest.raises(ValueError):
        IgeoParams(mutation_rate=0.0)
    with pytest.raises(ValueError):
        IgeoParams(population_size=1)


def test_igeo_rejects_unreachable_candidates(unit_weights):
    from conftest import simple_tasks, unlinked_instance

    instance = unlinked_instance(simple_tasks([(100.0, 10.0, 50.0)] * 3))
    with pytest.raises(ValueError, match="no route"):
        igeo_optimize(instance, [1], [0, 1, 2], IgeoParams(rng_seed=0), unit_weights)
    assignment, fit = igeo_optimize(
        instance, [0, 1], [0, 1, 2], IgeoParams(population_size=4, iterations=5), unit_weights
    )
    assert set(assignment.mapping.values()) == {0}
    assert np.isfinite(fit)
