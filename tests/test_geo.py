import math
import tracemalloc

import numpy as np
import pytest

from fogsched import GeoParams, IgeoParams, attack_vector, cruise_vector, geo_optimize, step_vector
from fogsched.geo import _Flock, decode_position
from fogsched.model import validate_assignment

from conftest import make_instance
from fogsched import FitnessWeights
from oracle import exhaustive_best


def test_attack_vector_basic():
    assert np.array_equal(attack_vector([3.0, 4.0], [3.0, 4.0]), [0.0, 0.0])
    a = attack_vector([0.0, 0.0], [3.0, 4.0])
    assert np.array_equal(a, [3.0, 4.0])
    assert np.linalg.norm(a) == 5.0
    assert np.array_equal(attack_vector([0.0, 0.0], [-3.0, -4.0]), -a)
    with pytest.raises(ValueError):
        attack_vector([1.0], [1.0, 2.0])


def test_cruise_vector_orthogonal():
    rng = np.random.default_rng(0)
    for _ in range(200):
        attack = rng.normal(size=5)
        cruise = cruise_vector(attack, rng)
        cos = abs(attack @ cruise) / (np.linalg.norm(attack) * np.linalg.norm(cruise))
        assert cos < 1e-9


def test_cruise_vector_axis_aligned_attack():
    rng = np.random.default_rng(1)
    cruise = cruise_vector(np.array([1.0, 0.0]), rng)
    assert cruise[0] == 0.0


def test_cruise_vector_deterministic_per_seed():
    a = cruise_vector(np.array([1.0, 2.0, 3.0]), np.random.default_rng(7))
    b = cruise_vector(np.array([1.0, 2.0, 3.0]), np.random.default_rng(7))
    assert np.array_equal(a, b)


def test_cruise_vector_rejects_zero_attack():
    with pytest.raises(ValueError):
        cruise_vector(np.zeros(3), np.random.default_rng(0))


def test_step_vector_single_terms():
    rng = np.random.default_rng(3)
    attack = np.array([2.0, 0.0])
    cruise = np.array([0.0, 5.0])
    delta, r1pa, r2pc = step_vector(attack, cruise, pa=0.0, pc=1.0, rng=rng)
    # attack term vanished: delta parallel to cruise
    assert delta[0] == 0.0
    assert r1pa == 0.0

    delta, r1pa, r2pc = step_vector(attack, cruise, pa=1.0, pc=0.0, rng=rng)
    assert delta[1] == 0.0
    assert np.linalg.norm(delta) == pytest.approx(r1pa)


def test_step_vector_norm_bound():
    rng = np.random.default_rng(4)
    for _ in range(100):
        attack = rng.normal(size=4)
        cruise = cruise_vector(attack, rng)
        pa, pc = rng.uniform(0, 3, size=2)
        delta, r1pa, r2pc = step_vector(attack, cruise, pa, pc, rng)
        assert np.linalg.norm(delta) <= r1pa + r2pc + 1e-12


def test_step_vector_rejects_zero_norm():
    with pytest.raises(ValueError):
        step_vector(np.zeros(2), np.ones(2), 1.0, 1.0, np.random.default_rng(0))


def test_step_vector_rejects_unequal_lengths():
    # a one-coordinate cruise would otherwise spread over every coordinate
    with pytest.raises(ValueError, match="equal length"):
        step_vector([1.0, 0.0, 0.0], [1.0], 1.0, 1.0, np.random.default_rng(0))


def test_swarm_step_leaves_its_inputs_unchanged():
    # the step writes into arrays it created, never into the caller's
    rng = np.random.default_rng(5)
    attack = rng.normal(size=6)
    cruise = cruise_vector(attack, np.random.default_rng(6))
    kept = attack.copy(), cruise.copy()
    cruise_vector(attack, rng)
    step_vector(attack, cruise, 1.5, 0.7, rng)
    assert np.array_equal(attack, kept[0]) and np.array_equal(cruise, kept[1])

    positions = rng.uniform(0.0, 4.0, size=(5, 6))
    prey = positions[::-1].copy()
    prey[2] = positions[2]  # an eagle on its prey: a zero attack row
    kept = positions.copy(), prey.copy()
    flock = _Flock(positions, 4.0)
    flock.move(prey, np.arange(5), np.ones((2, 1)), rng)
    moved = flock.positions
    assert np.array_equal(positions, kept[0]) and np.array_equal(prey, kept[1])
    assert moved is not positions and np.array_equal(moved[2], positions[2])
    assert ((moved >= 0.0) & (moved <= 4.0)).all()


def test_decode_clamps_and_rounds():
    pos = np.array([-1.0, 0.49, 0.5, 1.6, 9.0])
    assert decode_position(pos, 3).tolist() == [0, 0, 1, 2, 2]
    assert decode_position(pos, 3).dtype == np.uint8
    assert decode_position(pos, 257).dtype == np.uint16


def test_geo_memory_does_not_grow_with_iterations():
    """A run keeps no per-iteration state beyond its two propensity
    schedules (16 bytes an iteration), so its traced peak at 2,000
    iterations stays within 1.25x its peak at 200."""

    def peak(iterations):
        instance = make_instance(6, 3, seed=0)
        params = GeoParams(population_size=200, iterations=iterations, rng_seed=0)
        tracemalloc.start()
        try:
            geo_optimize(instance, [0, 1, 2], [t.id for t in instance.tasks], params, FitnessWeights())
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    short, long = peak(200), peak(2000)
    assert long <= 1.25 * short, (short, long)


def test_geo_single_candidate(small_instance, unit_weights):
    assignment, fit = geo_optimize(
        small_instance, [1], [t.id for t in small_instance.tasks],
        GeoParams(population_size=4, iterations=5, rng_seed=0), unit_weights,
    )
    assert set(assignment.mapping.values()) == {1}
    from fogsched import evaluate

    assert fit == pytest.approx(evaluate(small_instance, assignment, unit_weights).fitness, rel=1e-9)


def test_geo_deterministic(small_instance, unit_weights):
    params = GeoParams(population_size=6, iterations=15, rng_seed=123)
    tasks = [t.id for t in small_instance.tasks]
    a1, f1 = geo_optimize(small_instance, [0, 1, 2], tasks, params, unit_weights)
    a2, f2 = geo_optimize(small_instance, [0, 1, 2], tasks, params, unit_weights)
    assert a1.mapping == a2.mapping
    assert f1 == f2


def test_geo_rejects_empty_candidates(small_instance, unit_weights):
    with pytest.raises(ValueError):
        geo_optimize(small_instance, [], [0], GeoParams(rng_seed=0), unit_weights)


def test_geo_elitism_and_clamp(small_instance, unit_weights):
    trace = []
    tasks = [t.id for t in small_instance.tasks]
    assignment, _ = geo_optimize(
        small_instance, [0, 1, 2], tasks,
        GeoParams(population_size=8, iterations=30, rng_seed=5), unit_weights, trace=trace,
    )
    best = [f for _, f in trace]
    assert all(b2 <= b1 for b1, b2 in zip(best, best[1:]))
    assert validate_assignment(small_instance, assignment).ok


def test_geo_near_optimal_small():
    instance = make_instance(6, 3, seed=3)
    weights = FitnessWeights()
    _, optimum = exhaustive_best(instance, weights)
    hits = 0
    for seed in range(10):
        _, fit = geo_optimize(
            instance, [0, 1, 2], [t.id for t in instance.tasks],
            GeoParams(population_size=20, iterations=200, rng_seed=seed), weights,
        )
        if fit <= 1.05 * optimum:
            hits += 1
    assert hits >= 9


def test_geo_params_validation():
    with pytest.raises(ValueError):
        GeoParams(population_size=1)
    with pytest.raises(ValueError):
        GeoParams(iterations=0)
    with pytest.raises(ValueError):
        GeoParams(pa_schedule=(-1.0, 2.0))


@pytest.mark.parametrize("params", [GeoParams, IgeoParams])
@pytest.mark.parametrize(
    "field,value",
    [
        ("population_size", math.nan),
        ("population_size", 2.5),
        ("iterations", math.nan),
        ("iterations", math.inf),
        ("rng_seed", -1),
        ("rng_seed", math.nan),
        ("pa_schedule", (math.nan, 2.0)),
        ("pa_schedule", (0.5, math.inf)),
        ("pa_schedule", (0.5,)),
        ("pc_schedule", (1.0, math.nan)),
        ("pc_schedule", (-math.inf, 0.5)),
        ("pc_schedule", (1.0, 0.5, 0.2)),
    ],
)
def test_geo_params_reject_nonfinite_or_out_of_range(params, field, value):
    # IgeoParams inherits the checks
    with pytest.raises(ValueError, match=field):
        params(**{field: value})


def test_geo_rejects_unreachable_candidates(unit_weights):
    from conftest import simple_tasks, unlinked_instance

    instance = unlinked_instance(simple_tasks([(100.0, 10.0, 50.0)] * 3))
    with pytest.raises(ValueError, match="no route"):
        geo_optimize(instance, [1], [0, 1, 2], GeoParams(rng_seed=0), unit_weights)
    assignment, fit = geo_optimize(
        instance, [0, 1], [0, 1, 2], GeoParams(population_size=4, iterations=5), unit_weights
    )
    assert set(assignment.mapping.values()) == {0}
    assert np.isfinite(fit)


def test_nan_fitness_ranks_last():
    """A zero weight times the inf objectives of an unreachable node is NaN.
    It is cached as inf, so no optimizer keeps a genome that uses the node."""
    from conftest import simple_tasks, unlinked_instance
    from fogsched import RlConfig, igeo_optimize, rl_optimize
    from fogsched.geo import _SubProblem

    tasks = simple_tasks([(100.0, 10.0, 50.0)] * 3)
    weights = FitnessWeights(w_response=0.0)
    problem = _SubProblem(unlinked_instance(tasks), [0, 1], [0, 1, 2], weights)
    with np.errstate(invalid="ignore"):
        assert problem.fitness_of(np.array([0, 1, 0])) == math.inf
        fits = problem.fitness_many(np.array([[1, 1, 1], [0, 0, 1], [0, 0, 0]]))
    assert fits[0] == fits[1] == math.inf and math.isfinite(fits[2])
    for optimize, params in (
        (geo_optimize, GeoParams(population_size=8, iterations=10, rng_seed=1)),
        (igeo_optimize, IgeoParams(population_size=8, iterations=10, rng_seed=1)),
        (rl_optimize, RlConfig(episodes=50, rng_seed=1)),
    ):
        instance = unlinked_instance(tasks)  # a fresh fitness cache
        assignment, fit = optimize(instance, [0, 1], [0, 1, 2], params, weights)
        assert set(assignment.mapping.values()) == {0} and math.isfinite(fit)
