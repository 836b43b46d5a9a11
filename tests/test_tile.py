"""Exhaustive checks of the six-spin tile energy model."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jpotile.anneal import alternating_field_program, even_parity_program, simulate_trial
from jpotile.spins import DEGENERACY_TOL, all_configs, code_labels, indices_to_spins
from jpotile.tile import (
    TILE_STATES,
    TileConfig,
    TileParams,
    ground_set,
    lhz_parity_valid,
    penalty_negative_in_ground,
    tile_energies,
    tile_energy,
    uniform_tile_params,
)


def all_tile_configs():
    for spins in itertools.product((-1, 1), repeat=6):
        yield TileConfig(logical=spins[:4], ancilla=spins[4:])


def random_params(rng, zero_field=False, dyadic=False):
    if dyadic:
        vals = rng.integers(-8, 9, size=7) * 0.25
    else:
        vals = rng.normal(size=7)
    j = (0.0,) * 4 if zero_field else tuple(vals[:4])
    return TileParams(j=j, j_a1=vals[4], j_a2=vals[5], c_cnst=vals[6])


@pytest.mark.parametrize("j_b, j_c", [(1.0, 1.0), (0.5, 2.0), (0.25, 0.75)])
def test_consistent_reference_rows(j_b, j_c):
    params = uniform_tile_params(j_b, j_c)
    rows = [
        TileConfig(logical=(1, 1, 1, 1), ancilla=(1, 1)),
        TileConfig(logical=(1, 1, -1, -1), ancilla=(1, -1)),
        TileConfig(logical=(-1, -1, -1, -1), ancilla=(-1, -1)),
    ]
    for config in rows:
        assert tile_energy(params, config) == -j_c


def test_uniform_params_doubles_ancilla_weight():
    params = uniform_tile_params(1.5, 0.25)
    assert params.j == (1.5, 1.5, 1.5, 1.5)
    assert params.j_a1 == 3.0
    assert params.j_a2 == 3.0
    assert params.c_cnst == 0.25


def test_config_properties_and_validation():
    config = TileConfig(logical=(1, -1, 1, -1), ancilla=(1, 1))
    assert config.spins == (1, -1, 1, -1, 1, 1)
    assert config.logical_parity == 1
    assert config.label == "101011"
    assert TileConfig(logical=(1, 1, 1, -1), ancilla=(-1, 1)).logical_parity == -1

    logical = r"^logical must be 4 spins valued -1 or \+1$"
    ancilla = r"^ancilla must be 2 spins valued -1 or \+1$"
    for bad, message in [
        (dict(logical=(1, 1, 1), ancilla=(1, 1)), logical),
        (dict(logical=(1, 1, 1, 0), ancilla=(1, 1)), logical),
        (dict(logical=(1, 1, 1), ancilla=(1,)), logical),
        (dict(logical=(1, 1, 1, 1), ancilla=(1,)), ancilla),
        (dict(logical=(1, 1, 1, 1), ancilla=(1, 0)), ancilla),
    ]:
        with pytest.raises(ValueError, match=message):
            TileConfig(**bad)
    with pytest.raises(ValueError):
        TileParams(j=(1.0, 2.0, 3.0), j_a1=0.0, j_a2=0.0, c_cnst=0.0)


def test_zero_params_zero_energy_everywhere():
    params = TileParams(j=(0.0,) * 4, j_a1=0.0, j_a2=0.0, c_cnst=0.0)
    for config in all_tile_configs():
        assert tile_energy(params, config) == 0.0


def test_tile_energies_zero_field_hand_values():
    params = TileParams(j=(0.0,) * 4, j_a1=1.25, j_a2=1.25, c_cnst=0.5)
    even = (1, 1, -1, -1, 1, 1)
    odd = (1, 1, 1, -1, -1, -1)
    assert tile_energies(params, np.array([even, odd])).tolist() == [-3.0, -2.0]


def test_ground_set_even_parity_oracle():
    e_min, ground = ground_set(TileParams((0.0,) * 4, 1.0, 1.0, 1.0))
    assert e_min == -3.0
    expected = {
        TileConfig(logical=s, ancilla=(1, 1))
        for s in itertools.product((-1, 1), repeat=4)
        if s[0] * s[1] * s[2] * s[3] == 1
    }
    assert len(expected) == 8
    assert ground == expected


def test_ground_set_decoupled_ancillas():
    e_min, ground = ground_set(TileParams((0.0,) * 4, 0.0, 0.0, 1.0))
    assert e_min == -1.0
    assert len(ground) == 32
    assert all(g.logical_parity == 1 for g in ground)
    assert {g.ancilla for g in ground} == {(1, 1), (1, -1), (-1, 1), (-1, -1)}


def test_ground_set_small_field_breaks_degeneracy():
    eps = 0.05
    e_min, ground = ground_set(TileParams((eps,) * 4, 1.0, 1.0, 1.0))
    assert e_min == pytest.approx(-3.0 - 4 * eps, rel=1e-12)
    assert ground == {TileConfig(logical=(-1, -1, -1, -1), ancilla=(1, 1))}


def test_ground_sets_and_trial_readouts_are_the_one_state_table():
    assert len(TILE_STATES) == 64
    for c, state in enumerate(TILE_STATES):
        spins = indices_to_spins([c], 6)[0].tolist()
        assert state == TileConfig(logical=spins[:4], ancilla=spins[4:])
        assert state.label == code_labels([c], 6)[0]

    def in_table(state):
        return state is TILE_STATES[int(state.label, 2)]

    rng = np.random.default_rng(17)
    field_free = TileParams((0.0,) * 4, 1.0, 1.0, 1.0)
    for params in [field_free] + [random_params(rng) for _ in range(8)]:
        for clamp in (None, (1, 1), (1, -1), (-1, 1), (-1, -1)):
            _, ground = ground_set(params, clamp_ancilla=clamp)
            assert ground and all(in_table(g) for g in ground)

    for program in (even_parity_program(), alternating_field_program()):
        result = simulate_trial(program, seed=1, record_trajectory=False)
        assert result.settled
        assert in_table(result.config) and in_table(result.canonical_config)
        signs = tuple(np.where(result.state.c > 0, 1, -1).tolist())
        assert result.config.spins == signs
        ref = 1 if result.state.c_ref > 0 else -1
        assert result.canonical_config.logical == tuple(ref * v for v in signs[:4])
        assert result.canonical_config.ancilla == signs[4:]


def test_ground_set_with_clamped_ancillas():
    params = TileParams((0.0,) * 4, 1.0, 1.0, 1.0)

    e_min, ground = ground_set(params, clamp_ancilla=(1, 1))
    assert e_min == -3.0
    assert all(g.logical_parity == 1 and g.ancilla == (1, 1) for g in ground)
    assert len(ground) == 8

    # pinning the ancillas the wrong way makes odd parity the cheap sector
    e_min, ground = ground_set(params, clamp_ancilla=(-1, -1))
    assert e_min == -1.0
    assert len(ground) == 8
    assert all(g.logical_parity == -1 and g.ancilla == (-1, -1) for g in ground)

    with pytest.raises(ValueError):
        ground_set(params, clamp_ancilla=(0, 1))
    with pytest.raises(ValueError):
        ground_set(params, clamp_ancilla=(1, 1, 1))
    # a non-spin entry is refused, not truncated to one by int()
    for clamp in ((1.5, -1), (1, -1.5), (float("nan"), 1)):
        with pytest.raises(ValueError, match="^clamp_ancilla .*entries must be -1 or"):
            ground_set(params, clamp_ancilla=clamp)
    assert ground_set(params, clamp_ancilla=(1.0, 1.0)) == ground_set(params, (1, 1))


def test_zero_field_ground_floor_formula():
    rng = np.random.default_rng(31)
    for _ in range(15):
        j_a = float(rng.uniform(0.2, 3.0))
        c = float(rng.uniform(0.2, 3.0))
        e_min, ground = ground_set(TileParams((0.0,) * 4, j_a, j_a, c))
        assert e_min == -(2 * j_a + c)
        assert all(
            g.logical_parity == 1 and g.ancilla == (1, 1) for g in ground
        )
        assert len(ground) == 8


def test_parity_audit():
    good = lhz_parity_valid(TileParams((0.0,) * 4, 1.0, 1.0, 1.0))
    assert bool(good)
    assert good.violations == ()

    decoupled = lhz_parity_valid(TileParams((0.0,) * 4, 0.0, 0.0, 1.0))
    assert bool(decoupled)

    flipped = lhz_parity_valid(TileParams((0.0,) * 4, 1.0, 1.0, -1.0))
    assert not bool(flipped)
    assert len(flipped.violations) > 0
    assert all(v.logical_parity == -1 for v in flipped.violations)


def test_flip_all_logical_spins_zero_field_symmetry():
    rng = np.random.default_rng(37)
    for _ in range(25):
        params = random_params(rng, zero_field=True)
        for config in all_tile_configs():
            flipped = TileConfig(
                logical=tuple(-v for v in config.logical), ancilla=config.ancilla
            )
            assert tile_energy(params, flipped) == tile_energy(params, config)


def test_offset_shifts_energy_by_parity_exactly():
    # dyadic parameters keep every sum exact, so the shift is bitwise
    rng = np.random.default_rng(41)
    for _ in range(10):
        params = random_params(rng, dyadic=True)
        for delta in (0.5, 1.25):
            raised = TileParams(
                j=params.j,
                j_a1=params.j_a1,
                j_a2=params.j_a2,
                c_cnst=params.c_cnst + delta,
            )
            for config in all_tile_configs():
                pi = config.logical_parity
                assert tile_energy(raised, config) == (
                    tile_energy(params, config) - pi * delta
                )


def test_penalty_sign_predicate():
    assert penalty_negative_in_ground(TileParams((0.0,) * 4, 1.0, 1.0, 1.0))
    assert penalty_negative_in_ground(TileParams((0.0,) * 4, 0.0, 0.0, 1.0))
    assert not penalty_negative_in_ground(
        TileParams((1.0, -2.0, 0.5, 0.0), 0.0, 0.0, 0.0)
    )


def test_tile_energies_match_tile_energy_bit_for_bit():
    rng = np.random.default_rng(17)
    rows = all_configs(6)
    configs = [TileConfig(logical=r[:4], ancilla=r[4:]) for r in rows.tolist()]
    for k in range(200):
        if k % 2:
            # signed zeros and exact halves exercise the summation order
            vals = rng.choice([0.0, -0.0, 0.5, -0.5, 1.0, -1.0], size=7)
        else:
            vals = rng.normal(size=7)
        if k % 4 == 2:
            vals[5] = vals[4]  # equal ancilla couplings
        params = TileParams(j=vals[:4], j_a1=vals[4], j_a2=vals[5], c_cnst=vals[6])
        expected = np.array([tile_energy(params, c) for c in configs])
        assert tile_energies(params, rows).tobytes() == expected.tobytes()


COUPLING = st.one_of(
    st.sampled_from([0.0, -0.0, 0.5, -0.5, 1.0, -1.0, 2.0, -2.0]),
    st.floats(min_value=-3.0, max_value=3.0),
)


CLAMP = st.sampled_from([None, (1, 1), (1, -1), (-1, 1), (-1, -1)])


@settings(deadline=None)
@given(st.lists(COUPLING, min_size=7, max_size=7), CLAMP)
def test_ground_set_equals_brute_force_oracle(vals, clamp):
    params = TileParams(j=vals[:4], j_a1=vals[4], j_a2=vals[5], c_cnst=vals[6])
    candidates = [
        c for c in all_tile_configs() if clamp is None or c.ancilla == clamp
    ]
    energies = [tile_energy(params, c) for c in candidates]
    floor = min(energies)
    tol = DEGENERACY_TOL * (max(energies) - floor)
    oracle = {c for c, e in zip(candidates, energies) if e <= floor + tol}
    e_min, ground = ground_set(params, clamp_ancilla=clamp)
    assert e_min == floor
    assert ground == oracle


# magnitudes of at least 1e-200 keep every sum and difference of the scaled
# energies a normal float, so scaling them by 2**k is exact
SCALABLE = COUPLING.filter(lambda v: v == 0 or abs(v) >= 1e-200)


@settings(deadline=None)
@given(
    st.lists(SCALABLE, min_size=7, max_size=7),
    st.integers(min_value=-80, max_value=80),
    CLAMP,
)
def test_ground_set_does_not_depend_on_the_couplings_units(vals, k, clamp):
    def labels(scale):
        v = [x * scale for x in vals]
        params = TileParams(j=v[:4], j_a1=v[4], j_a2=v[5], c_cnst=v[6])
        return sorted(g.label for g in ground_set(params, clamp_ancilla=clamp)[1])

    assert labels(2.0**k) == labels(1.0)


def test_ground_set_refuses_an_energy_range_beyond_the_float_range():
    params = TileParams((1e308, 0.0, 0.0, 0.0), 0.0, 0.0, 0.0)
    with np.errstate(over="ignore"), pytest.raises(ValueError, match="not finite"):
        ground_set(params)
