"""``igeo_optimize`` moves no shadow swarm: it makes a swarm move's draws,
skipping the ones it does not read, and picks each eagle's branch from the
step magnitudes alone, so an exact tie crosses over.  Untied, it must match
the eager loop of ``igeo_reference`` bit for bit; tied, it must match that
loop with a tie crossing over.  Ties are forced here, since a continuous
draw almost never makes one."""

import numpy as np
import pytest

from fogsched import FitnessWeights, IgeoParams, geo, igeo, igeo_optimize
from fogsched.igeo import _branch_draws

import igeo_reference
from conftest import make_instance
from igeo_reference import _skip_doubles, reference_igeo_optimize

POP, DIM = 7, 5

# (what runs before the skip, whether it leaves a buffered 32-bit half)
PREPARE = [
    (lambda rng: None, False),
    (lambda rng: rng.random(2), False),
    (lambda rng: rng.integers(0, 5, 3), True),
    (lambda rng: rng.permutation(6), True),
    (lambda rng: rng.permutation(7), False),
]


def _live(state):
    """A PCG64 state without the stale 32-bit half that no draw reads: an
    unbuffered generator draws a fresh one, and ``advance`` zeroes it."""
    if not state["has_uint32"]:
        state = {**state, "uinteger": 0}
    return state


@pytest.mark.parametrize("prepare,buffered", PREPARE)
@pytest.mark.parametrize(
    "draw",
    [lambda rng: rng.uniform(-1.0, 1.0, (POP, DIM)), lambda rng: rng.random((POP, DIM))],
    ids=["uniform", "random"],
)
def test_skip_doubles_leaves_the_generator_where_drawing_does(prepare, buffered, draw):
    """The frozen skip: ``advance`` drops the buffered 32-bit half and float
    draws never touch it, which ``_branch_draws`` relies on too."""
    drawn, skipped = np.random.default_rng(3), np.random.default_rng(3)
    prepare(drawn)
    prepare(skipped)
    assert drawn.bit_generator.state["has_uint32"] == buffered
    draw(drawn)
    _skip_doubles(skipped, POP * DIM)
    assert _live(skipped.bit_generator.state) == _live(drawn.bit_generator.state)
    for follow in (
        lambda rng: rng.integers(0, 9, 5),
        lambda rng: rng.permutation(POP),
        lambda rng: rng.random(3),
    ):
        assert follow(skipped).tobytes() == follow(drawn).tobytes()


@pytest.mark.parametrize("prepare,buffered", PREPARE)
@pytest.mark.parametrize(
    "cruise",
    [lambda rng: rng.uniform(-1.0, 1.0, (POP, DIM)), lambda rng: rng.random((POP, DIM))],
    ids=["uniform", "random"],
)
def test_branch_draws_leave_the_generator_where_drawing_does(prepare, buffered, cruise):
    """``_branch_draws`` after a permutation (``prepare``) returns only the
    r1 and r2 of a shadow move that draws its cruise, r1, r2 and pick, and
    leaves the generator where those draws do."""
    drawn, skipped = np.random.default_rng(3), np.random.default_rng(3)
    prepare(drawn)
    prepare(skipped)
    assert drawn.bit_generator.state["has_uint32"] == buffered
    cruise(drawn)
    r1, r2 = drawn.random(POP), drawn.random(POP)
    drawn.random((POP, DIM))  # the pick
    branch = _branch_draws(skipped, POP, DIM)
    assert len(branch) == 2  # no state
    assert tuple(draw.tobytes() for draw in branch) == (r1.tobytes(), r2.tobytes())
    assert _live(skipped.bit_generator.state) == _live(drawn.bit_generator.state)
    for follow in (
        lambda rng: rng.integers(0, 9, 5),
        lambda rng: rng.permutation(POP),
        lambda rng: rng.random(3),
    ):
        assert follow(skipped).tobytes() == follow(drawn).tobytes()


class TiedGenerator(np.random.Generator):
    """Draws a float vector without moving the stream, so the reference's
    r2 repeats its r1 (and its operator draw r repeats both).  The loop
    draws r1 and r2 as one vector of ``2 * pop``; there the first ``pop``
    values are drawn twice in the same way.  A shadow move draws its cruise,
    r1, r2 and pick into one buffer; there the ``pop`` values after the
    cruise are drawn twice without moving the stream in the same way."""

    def __init__(self, bit_generator, pop):
        super().__init__(bit_generator)
        self.pop = pop

    def random(self, size=None, dtype=np.float64, out=None):
        if out is not None:  # a shadow move: cruise, r1, r2, pick
            cells = (out.size - 2 * self.pop) // 2
            super().random(out=out[:cells])
            out[cells : cells + self.pop] = out[cells + self.pop : -cells] = self.random(self.pop)
            super().random(out=out[-cells:])
            return out
        if size == 2 * self.pop:  # the loop's r1 and r2
            return np.tile(self.random(self.pop), 2)
        if not isinstance(size, int):
            return super().random(size, dtype, out)
        state = self.bit_generator.state
        values = super().random(size)
        self.bit_generator.state = state
        return values


def _tie_at(iterations):
    """``_propensities`` with pc = pa at the given iterations."""
    real = igeo._propensities

    def propensities(params):
        pa, pc = real(params)
        pc[list(iterations)] = pa[list(iterations)]
        return pa, pc

    return propensities


def _both(n_tasks, n_nodes, params):
    """``(mapping items, fitness, trace)`` of the new loop and the reference."""
    instance = make_instance(n_tasks, n_nodes, seed=n_tasks + n_nodes)
    nodes = [n.id for n in instance.topology.nodes]
    tasks = [t.id for t in instance.tasks]
    runs = []
    for optimize in (igeo_optimize, reference_igeo_optimize):
        trace = []
        assignment, fit = optimize(instance, nodes, tasks, params, FitnessWeights(), trace=trace)
        runs.append((sorted(assignment.mapping.items()), fit, trace))
    return runs


@pytest.fixture
def moves(monkeypatch):
    """The shadow moves ``igeo_optimize`` makes, counted."""
    made = []
    real = geo._Flock.move

    def counted(*args):
        made.append(1)
        return real(*args)

    monkeypatch.setattr(geo._Flock, "move", counted)
    return made


SHAPES = [(2, 3), (6, 3), (40, 5)]


def _ties_cross_over(delta_sum, r1pa, r2pc):
    """The reference's branch rule with an exact tie crossing over."""
    return np.abs(r1pa) < np.abs(r2pc)


def _tied(monkeypatch, params, ties):
    """Force every eagle's magnitudes to tie at the iterations ``ties``."""
    tied = lambda seed: TiedGenerator(np.random.PCG64(seed), params.population_size)
    monkeypatch.setattr(np.random, "default_rng", tied)
    for module in (igeo, igeo_reference):
        monkeypatch.setattr(module, "_propensities", _tie_at(ties))


@pytest.mark.parametrize("n_tasks,n_nodes", SHAPES)
@pytest.mark.parametrize("ties", [(0,), (3, 4, 17), (1, 30, 39)])
def test_positive_ties_cross_over(n_tasks, n_nodes, ties, monkeypatch, moves):
    params = IgeoParams(population_size=9, iterations=40, rng_seed=5)
    _tied(monkeypatch, params, ties)
    monkeypatch.setattr(igeo_reference, "_is_mutation", _ties_cross_over)
    ours, theirs = _both(n_tasks, n_nodes, params)
    assert ours == theirs
    # the reference's moves are not counted
    assert not moves


@pytest.mark.parametrize("t", [0, 17, 39])
def test_a_tie_gives_every_tied_eagle_a_crossover_child(t, monkeypatch):
    """At a tied iteration every eagle's magnitudes are equal and positive,
    and every eagle crosses over, where the step-sum rule would have
    mutated some of them."""
    params = IgeoParams(population_size=9, iterations=40, rng_seed=5)
    _tied(monkeypatch, params, (t,))
    draws, branches, step_sums = [], [], []

    def branch_draws(*args):
        draws.append(real_draws(*args))
        return draws[-1]

    def offspring(genomes, best, mutation, *args):
        branches.append(mutation.copy())
        return real_offspring(genomes, best, mutation, *args)

    def is_mutation(delta_sum, r1pa, r2pc):
        step_sums.append(delta_sum)
        return real_is_mutation(delta_sum, r1pa, r2pc)

    real_draws, real_offspring = igeo._branch_draws, igeo._offspring
    real_is_mutation = igeo_reference._is_mutation
    monkeypatch.setattr(igeo, "_branch_draws", branch_draws)
    monkeypatch.setattr(igeo, "_offspring", offspring)
    monkeypatch.setattr(igeo_reference, "_is_mutation", is_mutation)
    _both(6, 3, params)
    r1, r2 = draws[t]
    pa, pc = igeo._propensities(params)
    assert pa[t] == pc[t] > 0.0
    assert r1.tobytes() == r2.tobytes() and (r1 > 0.0).all()
    assert not branches[t].any()
    # the step-sum rule would have mutated some of these eagles
    assert (step_sums[t] < 0.0).any()


@pytest.mark.parametrize("n_tasks,n_nodes", SHAPES)
@pytest.mark.parametrize(
    "pa,pc",
    [
        # r1*pa == r2*pc == 0 for every eagle: a zero tie crosses over
        ((0.0, 0.0), (0.0, 0.0)),
        ((1.0, 1.0), (1.0, 1.0)),
        (IgeoParams.pa_schedule, IgeoParams.pc_schedule),
    ],
    ids=["zero", "equal", "default"],
)
def test_untied_runs_never_move_the_shadow(n_tasks, n_nodes, pa, pc, moves):
    params = IgeoParams(population_size=9, iterations=40, pa_schedule=pa, pc_schedule=pc, rng_seed=2)
    ours, theirs = _both(n_tasks, n_nodes, params)
    assert ours == theirs
    assert not moves
