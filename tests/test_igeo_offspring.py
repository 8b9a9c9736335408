"""``igeo._offspring`` builds every child with one window select; it must
return the children of the frozen per-operator builders in
``igeo_reference``, byte for byte, and leave the generator in the same
state, from a generator with or without a buffered 32-bit half."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fogsched.igeo import _offspring

import igeo_reference


def assert_same_offspring(genomes, best, mutation, r, n_candidates, mutation_rate, buffered, seed):
    results = []
    for offspring in (_offspring, igeo_reference._offspring):
        rng = np.random.default_rng(seed)
        if buffered:
            rng.integers(0, 5, 3)
        assert rng.bit_generator.state["has_uint32"] == buffered
        parents, elite = genomes.copy(), best.copy()
        children = offspring(parents, elite, mutation, r, n_candidates, mutation_rate, rng)
        assert parents.tobytes() == genomes.tobytes() and elite.tobytes() == best.tobytes()
        results.append((children.dtype, children.shape, children.tobytes(), rng.bit_generator.state))
    assert results[0] == results[1]


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_offspring_matches_frozen_operators(data):
    pop = data.draw(st.integers(1, 30), label="pop")
    dim = data.draw(st.integers(1, 40), label="dim")
    n_candidates = data.draw(st.integers(1, 5), label="n_candidates")
    dtype = data.draw(st.sampled_from([np.uint8, np.intp]), label="dtype")
    gene = st.integers(0, n_candidates - 1)
    genomes = np.array(data.draw(st.lists(gene, min_size=pop * dim, max_size=pop * dim)), dtype)
    best = np.array(data.draw(st.lists(gene, min_size=dim, max_size=dim)), dtype)
    mutation = data.draw(
        st.one_of(
            st.just([True] * pop),
            st.just([False] * pop),
            st.lists(st.booleans(), min_size=pop, max_size=pop),
        ),
        label="mutation",
    )
    r = data.draw(
        st.lists(st.one_of(st.just(0.5), st.floats(0.0, 1.0, exclude_max=True)), min_size=pop, max_size=pop),
        label="r",
    )
    rate = data.draw(
        st.one_of(st.just(1.0), st.floats(0.0, 1.0, exclude_min=True)), label="mutation_rate"
    )
    assert_same_offspring(
        genomes.reshape(pop, dim), best, np.array(mutation), np.array(r), n_candidates, rate,
        buffered=data.draw(st.booleans(), label="buffered"),
        seed=data.draw(st.integers(0, 2**32 - 1), label="seed"),
    )


@pytest.mark.parametrize("buffered", [False, True])
@pytest.mark.parametrize("rows", ["mutation", "crossover", "mixed"])
@pytest.mark.parametrize("dim", [1, 2, 3, 6, 40])
def test_offspring_matches_frozen_operators_by_row_kind(dim, rows, buffered):
    pop, n_candidates = 30, 4
    rng = np.random.default_rng(dim)
    genomes = rng.integers(0, n_candidates, (pop, dim)).astype(np.uint8)
    best = rng.integers(0, n_candidates, dim).astype(np.uint8)
    mutation = {
        "mutation": np.ones(pop, bool),
        "crossover": np.zeros(pop, bool),
        "mixed": np.arange(pop) % 3 == 0,
    }[rows]
    r = np.resize([0.5, 0.1, 0.9, 0.0, 0.4999999999999999], pop)
    for rate in (0.2, 1.0):  # k = 1 or 2 genes of a row at dim 6, and k = dim
        assert_same_offspring(genomes, best, mutation, r, n_candidates, rate, buffered, seed=dim)
