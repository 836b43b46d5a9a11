"""Parity-layout mapping: layout construction, encoding, energy, decoding."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from jpotile.errors import DecodeError, UnsupportedProblemError
from jpotile.lhz import (
    LhzProblem,
    build_layout,
    constraint_count,
    decode_readout,
    encode,
    layout_to_dict,
    lhz_energy,
    map_couplings,
    penalty_too_weak,
    physical_count,
    row_members,
    tile_products,
)
from jpotile.spins import IsingProblem, all_configs, ising_energy

SOUTH = 2  # tile columns are (north, east, south, west)


def random_coupling_problem(n, rng):
    j = rng.normal(size=(n, n))
    j = j + j.T
    np.fill_diagonal(j, 0.0)
    return IsingProblem(h=np.zeros(n), j=j)


def test_counts():
    assert physical_count(2) == 1
    assert physical_count(4) == 6
    assert physical_count(10) == 45
    assert constraint_count(2) == 0
    assert constraint_count(4) == 3
    assert constraint_count(5) == 6
    with pytest.raises(ValueError):
        physical_count(1)
    with pytest.raises(ValueError):
        constraint_count(1)


def test_layout_small_cases():
    tri = build_layout(3)
    assert tri.rows == (2, 1)
    assert tri.k_physical == 3
    assert len(tri.tiles) == 1
    assert tri.fixed_row == 1
    # the single constraint leans on the fixed row
    assert tri.tiles.shape == (1, 4)
    assert tri.tiles[0, SOUTH] == tri.k_physical
    assert set(tri.tiles[0].tolist()) - {tri.k_physical} == {0, 1, 2}
    # the layout's tile array cannot be edited in place
    assert not tri.tiles.flags.writeable
    with pytest.raises(ValueError):
        tri.tiles[0, 0] = 1

    quad = build_layout(4)
    assert quad.rows == (3, 2, 1)
    assert quad.k_physical == 6
    assert len(quad.tiles) == 3
    with pytest.raises(ValueError):
        build_layout(2)


def test_layout_consistency_through_n10():
    for n in range(3, 11):
        layout = build_layout(n)
        assert layout.k_physical == physical_count(n)
        assert sum(layout.rows) == layout.k_physical
        assert len(layout.tiles) == constraint_count(n)
        assert layout.fixed_row == n - 2
        # every physical bit sits in at most four tiles
        touch = np.bincount(layout.tiles.ravel(), minlength=layout.k_physical + 1)
        assert touch[: layout.k_physical].max() <= 4
        flat = [k for row in row_members(layout) for k in row]
        assert flat == list(range(layout.k_physical))
        # reference: physical bits in lexicographic pair order, and the
        # diamonds spelled out pair by pair
        index = {}
        for i in range(n):
            for j in range(i + 1, n):
                index[i, j] = len(index)
        assert layout.pairs == tuple(index)
        assert all(type(v) is int for pair in layout.pairs for v in pair)
        assert layout.pair_ends.T.tolist() == [list(pair) for pair in index]
        expected = []
        for i in range(n - 2):
            for j in range(i + 1, n - 1):
                south = layout.k_physical if j == i + 1 else index[i + 1, j]
                expected.append(
                    [index[i, j + 1], index[i + 1, j + 1], south, index[i, j]]
                )
        assert layout.tiles.dtype == np.int64
        assert layout.tiles.tolist() == expected


def test_every_encoding_satisfies_all_tiles():
    for n in (3, 4, 5):
        layout = build_layout(n)
        for sigma in all_configs(n):
            physical = encode(layout, sigma)
            assert np.all(tile_products(layout, physical) == 1)


def test_map_couplings_order_and_errors():
    j = np.zeros((3, 3))
    j[0, 1] = j[1, 0] = 2.0
    j[0, 2] = j[2, 0] = -3.0
    j[1, 2] = j[2, 1] = 0.5
    prob = IsingProblem(h=np.zeros(3), j=j)
    assert np.array_equal(map_couplings(prob), [-2.0, 3.0, -0.5])

    zero = IsingProblem(h=np.zeros(4), j=np.zeros((4, 4)))
    assert np.array_equal(map_couplings(zero), np.zeros(6))

    rng = np.random.default_rng(13)
    prob4 = random_coupling_problem(4, rng)
    fields = map_couplings(prob4)
    assert fields.shape == (6,)
    layout = build_layout(4)
    for k, (i, jj) in enumerate(layout.pairs):
        assert fields[k] == -prob4.j[i, jj]

    with pytest.raises(UnsupportedProblemError):
        map_couplings(IsingProblem(h=np.array([0.0, 1.0, 0.0]), j=np.zeros((3, 3))))
    with pytest.raises(ValueError):
        map_couplings(IsingProblem(h=np.zeros(2), j=np.zeros((2, 2))))


def test_map_couplings_zero_fields_are_positive_zero():
    # a negated zero coupling would print as "-0" in lhz map output
    j = np.triu(np.random.default_rng(5).integers(-2, 3, (8, 8)), 1).astype(float)
    fields = map_couplings(IsingProblem(h=np.zeros(8), j=j + j.T))
    zeros = fields[fields == 0.0]
    assert zeros.size > 0
    assert not np.signbit(zeros).any()


def test_lhz_energy_all_up_and_single_flip():
    layout = build_layout(5)
    c = 2.5
    prob = LhzProblem(j_fields=np.zeros(layout.k_physical), c_penalty=c)
    up = np.ones(layout.k_physical, dtype=int)
    base = lhz_energy(prob, layout, up)
    assert base == pytest.approx(-c * len(layout.tiles))
    for k in range(layout.k_physical):
        flipped = up.copy()
        flipped[k] = -1
        touched = int(np.any(layout.tiles == k, axis=1).sum())
        assert lhz_energy(prob, layout, flipped) == pytest.approx(
            base + 2 * c * touched
        )


def test_lhz_energy_matches_logical_energy():
    rng = np.random.default_rng(41)
    for n in (3, 4, 5):
        layout = build_layout(n)
        logical_prob = random_coupling_problem(n, rng)
        fields = map_couplings(logical_prob)
        c = 3.0
        phys_prob = LhzProblem(j_fields=fields, c_penalty=c)
        constant = -c * len(layout.tiles)
        for sigma in all_configs(n):
            physical = encode(layout, sigma)
            lhs = lhz_energy(phys_prob, layout, physical) - constant
            assert lhs == pytest.approx(
                ising_energy(logical_prob, sigma), rel=1e-12, abs=1e-12
            )


def test_decode_round_trip():
    layout = build_layout(3)
    assert np.array_equal(
        decode_readout(encode(layout, [1, 1, 1]), layout), [1, 1, 1]
    )
    # a flipped input decodes to the canonical representative
    assert np.array_equal(
        decode_readout(encode(layout, [-1, -1, 1]), layout), [1, 1, -1]
    )
    for n in (4, 5):
        big = build_layout(n)
        for sigma in all_configs(n):
            canonical = sigma * sigma[0]
            decoded = decode_readout(encode(big, sigma), big)
            assert np.array_equal(decoded, canonical)


def test_decode_reports_first_violated_tile():
    layout = build_layout(4)
    physical = encode(layout, [1, -1, 1, -1])
    bad = physical.copy()
    bad[layout.tiles[1, 0]] *= -1
    with pytest.raises(DecodeError) as err:
        decode_readout(bad, layout)
    products = tile_products(layout, bad)
    first_bad = int(np.nonzero(products != 1)[0][0])
    assert err.value.tile_index == first_bad


def test_ground_states_of_physical_energy_are_encodings():
    rng = np.random.default_rng(59)
    for n in (3, 4):
        layout = build_layout(n)
        logical_prob = random_coupling_problem(n, rng)
        fields = map_couplings(logical_prob)
        c = float(np.abs(fields).max()) * 4 + 1
        phys_prob = LhzProblem(j_fields=fields, c_penalty=c)

        logical_energies = {
            tuple(int(v) for v in s): ising_energy(logical_prob, s)
            for s in all_configs(n)
        }
        best = min(logical_energies.values())
        expected = {
            tuple(encode(layout, np.array(s)))
            for s, e in logical_energies.items()
            if abs(e - best) <= 1e-9
        }

        codewords = [encode(layout, s) for s in all_configs(n)]
        energies = [lhz_energy(phys_prob, layout, w) for w in codewords]
        floor = min(energies)
        found = {
            tuple(int(v) for v in w)
            for w, e in zip(codewords, energies)
            if abs(e - floor) <= 1e-9
        }
        assert found == expected


def test_penalty_predicate():
    assert not penalty_too_weak([0.5, -0.25], 1.0)
    assert penalty_too_weak([0.5, -2.0], 1.0)
    assert penalty_too_weak([1.0], 1.0)
    assert not penalty_too_weak([], 1.0)


def test_problem_validation():
    with pytest.raises(ValueError):
        LhzProblem(j_fields=np.zeros(3), c_penalty=0.0)
    with pytest.raises(ValueError):
        LhzProblem(j_fields=np.zeros((2, 2)), c_penalty=1.0)
    # non-finite input is named by its field, not carried into the energy
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(ValueError, match="^j_fields must be finite"):
            LhzProblem(j_fields=[0.0, bad, 0.0], c_penalty=1.0)
    for bad in (np.nan, np.inf, -np.inf, -1.0):
        with pytest.raises(ValueError, match="^c_penalty must be > 0 and finite"):
            LhzProblem(j_fields=np.zeros(3), c_penalty=bad)
    # the problem keeps a read-only copy; the caller's fields stay writable
    fields = np.zeros(3)
    problem = LhzProblem(j_fields=fields, c_penalty=1.0)
    fields[0] = 5.0
    assert problem.j_fields.tolist() == [0.0, 0.0, 0.0]
    assert not problem.j_fields.flags.writeable


def test_layout_export_is_complete():
    layout = build_layout(4)
    doc = layout_to_dict(layout, j_fields=np.arange(6.0))
    assert doc["n_logical"] == 4
    assert doc["k_physical"] == 6
    assert doc["rows"] == [3, 2, 1]
    assert doc["fixed_row"] == 2
    assert doc["pairs"] == [[0, 1], [0, 2], [0, 3], [1, 2], [1, 3], [2, 3]]
    assert len(doc["tiles"]) == 3
    assert doc["j_fields"] == [0.0, 1.0, 2.0, 3.0, 4.0, 5.0]
    # (north, east, south, west) rows of the (T, 4) array, None where fixed
    assert doc["tiles"] == [[1, 3, None, 0], [2, 4, 3, 1], [4, 5, None, 3]]


@st.composite
def readouts(draw):
    """A logical configuration and 0 to 3 distinct bits to flip in its word."""
    n = draw(st.integers(min_value=3, max_value=40))
    sigma = np.array(draw(st.lists(st.sampled_from([-1, 1]), min_size=n, max_size=n)))
    flips = draw(st.lists(st.integers(0, physical_count(n) - 1), max_size=3, unique=True))
    return sigma, flips


# n = 3 has one tile, its south slot fixed: the east bit alone closes it
@pytest.mark.kernel_bytes
@example((np.array([1, -1, 1]), []))
@example((np.array([1, -1, 1]), [2]))
@example((np.array([-1, -1, 1]), [0, 1]))
@settings(deadline=None)
@given(readouts())
def test_row_slice_kernel_matches_the_gather_over_tiles(drawn):
    sigma, flips = drawn
    n = sigma.size
    layout = build_layout(n)
    word = encode(layout, sigma)
    a, b = layout.pair_ends
    assert word.dtype == np.int8
    assert np.array_equal(word, sigma[a] * sigma[b])
    word[flips] *= -1

    # the gather over the documented tiles, which the kernel replaced
    reference = np.append(word, 1)[layout.tiles].prod(axis=1)
    products = tile_products(layout, word)
    assert products.dtype == np.int64
    assert np.array_equal(products, reference)

    # the documented order: the field products summed in pair order from +0.0
    fields = np.random.default_rng(n).normal(size=word.size)
    total = 0.0
    for f, w in zip(fields.tolist(), word.tolist()):
        total += f * w
    energy = lhz_energy(LhzProblem(fields, 3.0), layout, word)
    assert float.hex(energy) == float.hex(total - 3.0 * int(reference.sum()))

    violated = np.flatnonzero(reference == -1)
    if not violated.size:
        decoded = decode_readout(word, layout)
        assert decoded.dtype == np.int8
        assert decoded.tolist() == [1, *word[: n - 1].tolist()]
        return
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


@pytest.mark.kernel_bytes
def test_lhz_energy_bits_are_pinned():
    # normal fields at n = 200, whose sum rounds at nearly every add: the
    # bits hold under any BLAS kernel, thread count and ufunc loop
    layout = build_layout(200)
    rng = np.random.default_rng(2015)
    fields = rng.normal(size=layout.k_physical)
    word = rng.choice(np.array([-1, 1], dtype=np.int8), size=layout.k_physical)
    energy = lhz_energy(LhzProblem(fields, 3.0), layout, word)
    assert float.hex(energy) == "0x1.275b55e8a7138p+5"
