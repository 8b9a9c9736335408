"""GEO's flock moves in buffers it keeps for a run, draws a move's cruise,
r1, r2 and pick in one call, scales attack and cruise in one pass, decodes
without a second clamp and looks up an all-hit batch in one ``map``.  It
must match the frozen step, decode and cache of ``geo_reference`` byte for
byte: positions, step sums, genomes, fitnesses, cache items in their order
and generator state, from a generator with or without a buffered 32-bit
half."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fogsched import FitnessWeights, GeoParams, cruise_vector, geo_optimize, step_vector
from fogsched.geo import _Flock, _round_half_up, _SubProblem, decode_position

import geo_reference
from conftest import make_instance, simple_tasks, unlinked_instance


def _generator(seed, buffered):
    rng = np.random.default_rng(seed)
    if buffered:  # an odd count of small integers leaves half a 64-bit word
        rng.integers(0, 5, 3)
    assert rng.bit_generator.state["has_uint32"] == buffered
    return rng


def _pin(values, fraction, value, draws):
    """``values`` with about ``fraction`` of its entries set to ``value``."""
    values = values.copy()
    values[draws.random(values.shape) < fraction] = value
    return values


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_moves_match_the_frozen_step(data):
    pop = data.draw(st.integers(1, 40), label="pop")
    dim = data.draw(st.integers(1, 40), label="dim")
    n_candidates = data.draw(st.integers(1, 5), label="n_candidates")
    upper = float(n_candidates - 1)
    draws = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="layout seed"))
    edges = data.draw(st.sampled_from([0.0, 0.2, 0.6]), label="edge share")

    def coordinates():  # at 0 and at the upper bound as often as the clamp makes them
        inside = draws.uniform(0.0, upper, (pop, dim))
        return _pin(_pin(inside, edges / 2, 0.0, draws), edges / 2, upper, draws)

    positions, perm = coordinates(), draws.permutation(pop)
    # zero-attack coordinates and rows: the prey shares them with its eagle
    shared = draws.random((pop, dim)) < data.draw(st.sampled_from([0.0, 0.3, 1.0]), label="shared")
    shared[draws.random(pop) < data.draw(st.sampled_from([0.0, 0.3]), label="still rows")] = True
    memory = np.empty_like(positions)
    memory[perm] = np.where(shared, positions, coordinates())
    schedule = st.one_of(st.just(0.0), st.floats(0.0, 3.0))
    moves = [
        (data.draw(schedule, label="pa"), data.draw(schedule, label="pc"))
        for _ in range(data.draw(st.integers(1, 3), label="moves"))
    ]
    follow = data.draw(st.booleans(), label="prey from the flock itself")
    seed = data.draw(st.integers(0, 2**32 - 1), label="seed")
    buffered = data.draw(st.booleans(), label="buffered")

    ours, theirs = _generator(seed, buffered), _generator(seed, buffered)
    flock, reference = _Flock(positions, upper), positions.copy()
    kept = positions.copy(), memory.copy()
    for pa, pc in moves:
        source = flock.positions if follow else memory
        prey = (reference if follow else memory)[perm]
        # a subnormal step can leave an attack coordinate too small to divide
        # by, as in the optimizers, which run under the same errstate
        with np.errstate(over="ignore", invalid="ignore"):
            delta = flock.move(source, perm, np.array([[pa], [pc]]), ours)
            reference, delta_sum, _, _ = geo_reference._swarm_move(
                reference, prey, np.float64(pa), np.float64(pc), theirs, upper
            )
        assert flock.positions.tobytes() == reference.tobytes()
        assert np.add.reduce(delta, axis=1).tobytes() == delta_sum.tobytes()
        assert ours.bit_generator.state == theirs.bit_generator.state
        genomes = np.empty((pop, dim), np.min_scalar_type(n_candidates - 1))
        with np.errstate(invalid="ignore"):  # a NaN position casts as the optimizers cast it
            decoded = geo_reference.decode_position(reference, n_candidates)
            assert _round_half_up(flock.positions, genomes).tobytes() == decoded.tobytes()
        perm = draws.permutation(pop)
    assert positions.tobytes() == kept[0].tobytes() and memory.tobytes() == kept[1].tobytes()


@pytest.mark.parametrize("buffered", [False, True])
@pytest.mark.parametrize("pa,pc", [(0.0, 1.0), (1.0, 0.0), (0.0, 0.0), (0.5, 2.0)])
def test_a_flock_on_its_prey_or_on_the_bounds_matches_the_frozen_step(pa, pc, buffered):
    pop, dim, upper = 6, 5, 2.0
    positions = np.array([[0.0] * dim, [upper] * dim, [0.0, upper, 1.0, 0.0, upper]] * 2)
    perm = np.array([0, 4, 2, 5, 1, 3])  # eagles 0 and 2 sit on their prey
    ours, theirs = _generator(8, buffered), _generator(8, buffered)
    flock = _Flock(positions, upper)
    delta = flock.move(positions, perm, np.array([[pa], [pc]]), ours)
    moved, delta_sum, _, _ = geo_reference._swarm_move(
        positions, positions[perm], pa, pc, theirs, upper
    )
    assert flock.positions.tobytes() == moved.tobytes()
    assert np.add.reduce(delta, axis=1).tobytes() == delta_sum.tobytes()
    assert ours.bit_generator.state == theirs.bit_generator.state
    assert flock.positions[[0, 2]].tobytes() == positions[[0, 2]].tobytes()


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_cruise_and_step_vectors_match_the_frozen_step(data):
    dim = data.draw(st.integers(1, 40), label="dim")
    draws = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="vector seed"))
    attack = _pin(draws.normal(size=dim), data.draw(st.sampled_from([0.0, 0.5]), label="zeros"), 0.0, draws)
    attack[draws.integers(dim)] = draws.uniform(0.5, 2.0)  # a nonzero attack
    pa = data.draw(st.one_of(st.just(0.0), st.floats(0.0, 3.0)), label="pa")
    pc = data.draw(st.one_of(st.just(0.0), st.floats(0.0, 3.0)), label="pc")
    seed = data.draw(st.integers(0, 2**32 - 1), label="seed")
    buffered = data.draw(st.booleans(), label="buffered")

    results = []
    for cruise_of, step_of in (
        (cruise_vector, step_vector),
        (geo_reference.cruise_vector, geo_reference.step_vector),
    ):
        rng = _generator(seed, buffered)
        cruise = cruise_of(attack, rng)
        # at dim 1 the only cruise orthogonal to the attack is zero, which the step refuses
        delta, r1pa, r2pc = step_of(attack, cruise if dim > 1 else [1.0], pa, pc, rng)
        results.append((cruise.tobytes(), delta.tobytes(), r1pa, r2pc, rng.bit_generator.state))
    assert results[0] == results[1]


@settings(max_examples=100, deadline=None)
@given(
    position=st.lists(st.floats(-3.0, 300.0), min_size=1, max_size=40),
    n_candidates=st.sampled_from([1, 2, 3, 256, 257]),
)
def test_decode_matches_the_frozen_decode(position, n_candidates):
    position = np.array(position)
    ours, theirs = decode_position(position, n_candidates), geo_reference.decode_position(position, n_candidates)
    assert (ours.dtype, ours.tobytes()) == (theirs.dtype, theirs.tobytes())


def _problems(weights):
    """Two sub-problems on equal fresh instances, so each has its own cache;
    node 1 is unreachable, so a zero response weight scores NaN there."""
    tasks = simple_tasks([(100.0, 10.0, 50.0), (300.0, 5.0, 80.0), (200.0, 20.0, 40.0)])
    return [_SubProblem(unlinked_instance(tasks), [0, 1], [0, 1, 2], weights) for _ in range(2)]


@pytest.mark.parametrize("weights", [FitnessWeights(), FitnessWeights(w_response=0.0)], ids=["finite", "nan"])
def test_fitness_many_matches_the_frozen_lookup(weights):
    ours, theirs = _problems(weights)
    on_0 = [0, 0, 0]
    batches = [
        [on_0, [0, 0, 1], [1, 0, 0]],  # all miss
        [on_0, [1, 0, 0], on_0],  # all hit
        [[1, 1, 1], [0, 1, 0], [1, 1, 1], on_0, [0, 1, 0]],  # repeated misses among hits
        [[1, 1, 1]] * 4,  # all hit, one genome
    ]
    with np.errstate(invalid="ignore"):  # a zero weight times an inf objective
        for batch in batches:
            got = ours.fitness_many(np.array(batch))
            want = geo_reference.fitness_many(theirs, np.array(batch))
            assert got.tobytes() == want.tobytes()
            assert list(ours._cache.items()) == list(theirs._cache.items())
    assert not any(math.isnan(fit) for fit in ours._cache.values())


@pytest.mark.parametrize("n_tasks,n_nodes,seed", [(1, 2, 0), (2, 3, 4), (6, 3, 1), (40, 5, 2), (12, 1, 3)])
def test_geo_optimize_replays_the_frozen_loop(n_tasks, n_nodes, seed):
    params = GeoParams(population_size=9, iterations=40, rng_seed=seed)
    runs = []
    for optimize in (geo_optimize, geo_reference.reference_geo_optimize):
        instance = make_instance(n_tasks, n_nodes, seed=n_tasks + n_nodes)  # a fresh cache
        nodes, tasks = [n.id for n in instance.topology.nodes], [t.id for t in instance.tasks]
        trace = []
        assignment, fit = optimize(instance, nodes, tasks, params, FitnessWeights(), trace=trace)
        runs.append((sorted(assignment.mapping.items()), fit, trace))
    assert runs[0] == runs[1]
