"""Property tests of the parity layout on random sizes and spins."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jpotile.errors import DecodeError
from jpotile.lhz import (
    LhzProblem,
    build_layout,
    decode_readout,
    encode,
    lhz_energy,
    map_couplings,
    tile_products,
)
from jpotile.spins import IsingProblem, ising_energy

PENALTY = 3.0


@st.composite
def logical_configs(draw):
    n = draw(st.integers(min_value=3, max_value=40))
    return np.array(draw(st.lists(st.sampled_from([-1, 1]), min_size=n, max_size=n)))


def integer_problem(n, seed):
    j = np.triu(np.random.default_rng(seed).integers(-3, 4, size=(n, n)), 1)
    return IsingProblem(h=np.zeros(n), j=(j + j.T).astype(float))


@settings(deadline=None)
@given(logical_configs())
def test_encoding_satisfies_every_tile_and_decodes_canonically(sigma):
    layout = build_layout(sigma.size)
    physical = encode(layout, sigma)
    assert physical.dtype == np.int8
    products = tile_products(layout, physical)
    assert products.dtype == np.int64
    assert np.all(products == 1)
    decoded = decode_readout(physical, layout)
    assert decoded.dtype == np.int8
    assert np.array_equal(decoded, sigma * sigma[0])


@settings(deadline=None)
@given(logical_configs(), st.integers(min_value=0, max_value=2**32 - 1))
def test_energy_identity_is_exact_on_integer_couplings(sigma, seed):
    problem = integer_problem(sigma.size, seed)
    layout = build_layout(sigma.size)
    physical_problem = LhzProblem(map_couplings(problem), PENALTY)
    energy = lhz_energy(physical_problem, layout, encode(layout, sigma))
    assert energy + PENALTY * len(layout.tiles) == ising_energy(problem, sigma)


@pytest.mark.parametrize("n", range(3, 41))
def test_every_tile_holds_each_logical_index_an_even_number_of_times(n):
    layout = build_layout(n)
    # one extra row for the fixed slot, whose index -1 matches no spin
    pairs = np.vstack([np.array(layout.pairs), [-1, -1]])
    logical = pairs[layout.tiles].reshape(len(layout.tiles), 8)
    counts = (logical[:, :, None] == np.arange(n)).sum(axis=1)
    assert np.all(counts % 2 == 0)


@settings(deadline=None)
@given(logical_configs(), st.data())
def test_single_flip_is_reported_at_the_first_violated_tile(sigma, data):
    layout = build_layout(sigma.size)
    bad = encode(layout, sigma)
    bad[data.draw(st.integers(min_value=0, max_value=bad.size - 1))] *= -1
    violated = np.flatnonzero(tile_products(layout, bad) == -1)
    assert violated.size > 0
    with pytest.raises(DecodeError) as err:
        decode_readout(bad, layout)
    assert err.value.tile_index == violated[0]


@st.composite
def words_and_configs(draw):
    """An arbitrary +-1 physical word and a logical configuration of one size."""
    sigma = draw(logical_configs())
    k = sigma.size * (sigma.size - 1) // 2
    word = draw(st.lists(st.sampled_from([-1, 1]), min_size=k, max_size=k))
    return np.array(word, dtype=np.int8), sigma


@settings(deadline=None)
@given(words_and_configs())
def test_parity_kernel_matches_a_product_over_each_tile(drawn):
    word, sigma = drawn
    n = sigma.size
    layout = build_layout(n)
    oracle = np.prod(np.append(word, 1)[layout.tiles], axis=1, dtype=np.int64)
    products = tile_products(layout, word)
    assert products.dtype == np.int64
    assert np.array_equal(products, oracle)

    fields = np.arange(word.size, dtype=float) - 7.0
    energy = lhz_energy(LhzProblem(fields, PENALTY), layout, word)
    assert energy == float(fields @ word - PENALTY * oracle.sum())

    violated = np.flatnonzero(oracle == -1)
    if violated.size:
        first = int(violated[0])
        members = tuple(None if k == layout.k_physical else k
                        for k in layout.tiles[first].tolist())
        with pytest.raises(DecodeError) as err:
            decode_readout(word, layout)
        assert err.value.tile_index == first
        assert str(err.value) == (
            f"parity tile {first} violated (members {members}); "
            "readout is not a valid encoding"
        )
    else:
        assert decode_readout(word, layout).tolist() == [1, *word[: n - 1].tolist()]

    expected = [sigma[i] * sigma[j] for i, j in layout.pairs]
    assert encode(layout, sigma).tolist() == expected
