"""Spectral checks of the 64-dimensional tile Hamiltonian."""

import dataclasses
import hashlib
import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import jpotile.quantum as quantum
from jpotile.quantum import (
    DIM,
    SUPPORT_TOL,
    NoiseSpec,
    StateDistribution,
    build_hamiltonian,
    closed_form_ground_energy,
    default_field_sweep,
    ground_states,
    logical_distribution,
    spectral_gap,
    sweep_distribution,
)
from jpotile.spins import DEGENERACY_TOL, code_labels, ground_mask, indices_to_spins
from jpotile.tile import TileParams, ground_set

EVEN_LABELS = {"0000", "0011", "0101", "0110", "1001", "1010", "1100", "1111"}


def test_hamiltonian_shape_and_symmetry():
    h = build_hamiltonian((0.3, -0.2, 0.1, 0.5), 0.7, 1.1)
    assert h.shape == (DIM, DIM)
    assert np.array_equal(h, h.T)
    assert np.all(np.isfinite(h))
    with pytest.raises(ValueError):
        build_hamiltonian((1.0, 2.0), 0.0, 0.0)


def test_basis_ordering_first_spin_most_significant():
    spins = indices_to_spins(np.arange(DIM), 6).tolist()
    assert spins[0] == [-1] * 6
    assert spins[63] == [1] * 6
    assert spins[32] == [1, -1, -1, -1, -1, -1]
    # ancillas sit in the least significant bits
    assert spins[1] == [-1, -1, -1, -1, -1, 1]
    assert code_labels([5], 6) == ["000101"]
    labels = code_labels(range(DIM), 6)
    assert labels == ["".join("1" if s == 1 else "0" for s in row) for row in spins]
    with pytest.raises(ValueError):
        code_labels([DIM], 6)


def test_no_ancilla_coupling_gives_diagonal_matrix():
    j = (0.4, -1.2, 0.9, 0.3)
    j_c = 0.8
    h = build_hamiltonian(j, 0.0, j_c)
    assert np.array_equal(h, np.diag(np.diag(h)))
    for idx, spins in enumerate(indices_to_spins(np.arange(DIM), 6).tolist()):
        pi = spins[0] * spins[1] * spins[2] * spins[3]
        classical = sum(jv * sv for jv, sv in zip(j, spins[:4])) - j_c * pi
        assert h[idx, idx] == pytest.approx(classical, rel=0, abs=1e-12)


def test_hamiltonian_is_linear_in_parameters():
    rng = np.random.default_rng(3)
    for _ in range(5):
        j = tuple(rng.normal(size=4))
        j_a = float(rng.normal())
        j_c = float(rng.normal())
        combined = build_hamiltonian(j, j_a, j_c)
        parts = (
            build_hamiltonian(j, 0.0, 0.0)
            + build_hamiltonian((0.0,) * 4, j_a, 0.0)
            + build_hamiltonian((0.0,) * 4, 0.0, j_c)
        )
        assert np.array_equal(combined, parts)


def test_zero_hamiltonian_limits():
    h = build_hamiltonian((0.0,) * 4, 0.0, 0.0)
    assert np.array_equal(h, np.zeros((DIM, DIM)))
    e_min, weights = ground_states(h)
    assert e_min == 0.0
    assert weights == pytest.approx(np.full(DIM, 1 / DIM))
    assert spectral_gap(h) == 0.0


def test_reference_case_spectrum_and_gap():
    h = build_hamiltonian((0.0,) * 4, 1.0, 1.0)
    evals = np.linalg.eigvalsh(h)
    expected = np.array([-3.0] * 8 + [-1.0] * 24 + [1.0] * 24 + [3.0] * 8)
    assert evals == pytest.approx(expected, rel=0, abs=1e-9)
    assert spectral_gap(h) == pytest.approx(2.0, rel=0, abs=1e-9)


def test_reference_case_ground_weights():
    h = build_hamiltonian((0.0,) * 4, 1.0, 1.0)
    e_min, weights = ground_states(h)
    assert e_min == pytest.approx(-3.0, rel=0, abs=1e-12)
    for idx, spins in enumerate(indices_to_spins(np.arange(DIM), 6).tolist()):
        pi = spins[0] * spins[1] * spins[2] * spins[3]
        target = 1 / 32 if pi == 1 else 0.0
        assert weights[idx] == pytest.approx(target, rel=0, abs=1e-12)


def test_ground_states_input_validation():
    with pytest.raises(ValueError):
        ground_states(np.zeros((16, 16)))
    bad = np.zeros((DIM, DIM))
    bad[0, 1] = 1.0
    with pytest.raises(ValueError):
        ground_states(bad)


def _invalid_hamiltonian(kind):
    h = build_hamiltonian((0.3, -0.2, 0.1, 0.5), 0.7, 1.1)
    if kind == "shape":
        return np.zeros((16, 16))
    if kind == "finite":
        h[5, 5] = np.nan
    elif kind == "symmetric":
        h[0, 1] += 0.25  # inside a block, so only symmetry is broken
    else:
        # symmetric, but couples logical states 0000 and 0001 (X_4)
        h[0, 4] = h[4, 0] = 0.5
    return h


@pytest.mark.parametrize("solver", [ground_states, spectral_gap])
@pytest.mark.parametrize(
    "kind, message",
    [
        ("shape", "expected a 64 x 64 matrix"),
        ("finite", "must be finite"),
        ("symmetric", "must be symmetric"),
        ("couples", "couples logical states"),
    ],
)
def test_solvers_reject_invalid_hamiltonians(solver, kind, message):
    with pytest.raises(ValueError, match=message):
        solver(_invalid_hamiltonian(kind))


def _kron_hamiltonian(j, j_a, j_c):
    """Test-only assembly of H from Kronecker products of site operators."""
    z = np.diag([-1.0, 1.0])
    x = np.array([[0.0, 1.0], [1.0, 0.0]])

    def term(ops):
        out = np.eye(1)
        for site in range(6):
            out = np.kron(out, ops.get(site, np.eye(2)))
        return out

    logical = {site: z for site in range(4)}
    h = sum(jk * term({k: z}) for k, jk in enumerate(j))
    h = h - j_a * term({**logical, 4: x}) - j_a * term({**logical, 5: x})
    return h - j_c * term(logical)


def test_build_hamiltonian_matches_kronecker_assembly():
    rng = np.random.default_rng(8)
    for _ in range(50):
        j = tuple(rng.uniform(-2.0, 2.0, 4))
        j_a, j_c = (float(v) for v in rng.uniform(-2.0, 2.0, 2))
        oracle = _kron_hamiltonian(j, j_a, j_c)
        assert np.max(np.abs(build_hamiltonian(j, j_a, j_c) - oracle)) <= 1e-12


# a bound on how far either solver's rounding moves a level, in units of the
# largest |level|: LAPACK's eigh errs by a small multiple of eps times that
TIE_BOUND = 1e-12


def _dense_ground(h):
    """Ground energy, basis weights, gap, the separation between the ground
    level's members and the rest, and whether a level lies within TIE_BOUND
    of the degeneracy threshold, from one dense 64 x 64 eigh."""
    evals, evecs = np.linalg.eigh(h)
    threshold = evals[0] + DEGENERACY_TOL * (evals[-1] - evals[0])
    members = evals <= threshold
    weights = (evecs[:, members] ** 2).sum(axis=1) / members.sum()
    above = evals[~members]
    gap = above[0] - evals[0] if above.size else 0.0
    separation = above[0] - evals[members][-1] if above.size else np.inf
    near_tie = np.any(np.abs(evals - threshold) <= TIE_BOUND * np.abs(evals).max())
    return evals[0], weights, gap, separation, near_tie


PARAMETER = st.one_of(
    st.sampled_from([0.0, 0.5, -0.5, 1.0, -1.0]),
    st.floats(min_value=-2.0, max_value=2.0),
)


@settings(deadline=None, max_examples=150)
@given(
    st.lists(PARAMETER, min_size=6, max_size=6),
    st.one_of(st.just(0.0), st.floats(min_value=0.0, max_value=1.0)),
    st.sampled_from(["uniform", "normal"]),
    st.integers(min_value=0, max_value=2**32 - 1),
)
# a subnormal j_c puts the ground level a subnormal separation below the rest
@example(
    params=[0.0, 0.0, 0.0, 0.0, 0.0, 2.225073858507e-311],
    coefficient=0.0, distribution="uniform", seed=0,
)
# j_a = 1e-9 puts an ancilla level within an ulp of the degeneracy threshold
@example(
    params=[0.0, 0.5, 0.5, 0.5, 1e-9, 0.5],
    coefficient=0.0, distribution="uniform", seed=0,
)
# two levels lie within rounding of the threshold, and the dense solve puts
# them on the other side of it from the block solve: 1/3, 1/3, 1/6 and 1/6
# of the dense marginals against 1/4 each
@example(
    params=[0.0, 0.0, 0.0, 1.0, 1e-9, 1e-9],
    coefficient=0.0, distribution="uniform", seed=0,
)
def test_block_solver_matches_dense_eigh(params, coefficient, distribution, seed):
    # the block solve is held to a dense 64 x 64 eigh where no level lies
    # within TIE_BOUND of the threshold: there both solvers' rounding leaves
    # every level on its side. At a near-tie the two may round a level to
    # opposite sides, and the package's answer is the one a solve of every
    # 4 x 4 block gives, so that is what the result is held to
    j, j_a, j_c = params[:4], params[4], params[5]
    noise = NoiseSpec(coefficient, distribution, seed=seed)
    # the disorder logical_distribution adds in its first trial
    draw = noise.draw(np.random.default_rng(noise.seed_sequence()), 1)[0]
    h = build_hamiltonian(j, j_a, j_c) + np.diag(draw)
    e_dense, w_dense, gap_dense, separation, near_tie = _dense_ground(h)
    e_min, weights = ground_states(h)
    assert abs(e_min - e_dense) <= 1e-12
    dist = logical_distribution(j, j_a, j_c, noise=noise, trials=1)

    if near_tie:
        e, s = quantum._tile_blocks(j, j_a, j_c)
        marginal = _all_block_weights(e[:, None] + draw.reshape(16, 4), s)
        assert dist.probabilities.tobytes() == marginal.tobytes()
        levels = np.linalg.eigh(quantum._blocks_of(h))[0]
        above = levels[~ground_mask(levels, axis=(-2, -1))]
        assert spectral_gap(h) == (above.min() - levels.min() if above.size else 0.0)
    else:
        # either solver's eigenvectors are only fixed to ~eps * |H| / separation;
        # the bound err <= 1e-12 * max(1, 1 / separation), multiplied out so a
        # subnormal separation does not overflow 1 / separation
        error = np.max(np.abs(weights - w_dense))
        assert error * min(1.0, separation) <= 1e-12
        assert set(np.flatnonzero(weights > SUPPORT_TOL)) == set(
            np.flatnonzero(w_dense > SUPPORT_TOL)
        )
        assert abs(spectral_gap(h) - gap_dense) <= 1e-12
        marginal = w_dense.reshape(16, 4).sum(axis=1)
        assert np.max(np.abs(dist.probabilities - marginal)) <= 1e-12
    assert np.max(np.abs(weights.reshape(16, 4).sum(axis=1) - marginal)) <= 1e-12
    assert dist.support() == set(code_labels(np.flatnonzero(marginal > SUPPORT_TOL), 4))


@pytest.mark.kernel_bytes
@settings(deadline=None)
@given(
    st.lists(PARAMETER, min_size=5, max_size=5),
    st.floats(min_value=1e-12, max_value=1e12),
)
# couplings of ~1e-10 once made every classical assignment a ground state
@example(params=[0.3, -0.2, 0.1, 0.05, 1.0], scale=1e-10)
def test_classical_ground_set_is_the_quantum_support_without_ancilla_drive(
    params, scale
):
    # with j_a = 0 both models hold the same 64 diagonal energies, so one
    # degeneracy rule must give one ground set at every scale
    j, j_c = [v * scale for v in params[:4]], params[4] * scale
    _, ground = ground_set(TileParams(j, 0.0, 0.0, j_c))
    weights = ground_states(build_hamiltonian(j, 0.0, j_c))[1]
    codes = sorted(int(g.label, 2) for g in ground)
    assert codes == np.flatnonzero(weights > SUPPORT_TOL).tolist()


GRID = st.sampled_from([0.0, 0.5, -0.5, 1.0, -1.0])


@settings(deadline=None, max_examples=300)
@given(
    st.lists(GRID, min_size=4, max_size=4),
    st.sampled_from([5e-10, 1e-9, 2e-9, 1e-8]),
    GRID,
)
@example(j=[0.0, 0.5, 0.5, 0.5], j_a=1e-9, j_c=0.5)
def test_spectral_gap_sits_above_the_ground_set_of_ground_states(j, j_a, j_c):
    # j_a near 1e-9 puts ancilla levels 4 j_a above the minimum, within an
    # ulp of the degeneracy threshold, where two eigensolvers can classify
    # them apart. The levels below e_min + gap must be the ground_states set:
    # each block's share of the weights is its share of those levels.
    h = build_hamiltonian(j, j_a, j_c)
    e_min, weights = ground_states(h)
    gap = spectral_gap(h)
    levels = np.linalg.eigh(quantum._blocks_of(h))[0]
    counts = ((levels - e_min < gap) | (gap == 0.0)).sum(axis=1)
    shares = weights.reshape(16, 4).sum(axis=1)
    assert np.max(np.abs(shares - counts / counts.sum())) <= 1e-12


@pytest.mark.kernel_bytes
@settings(deadline=None, max_examples=300)
@given(
    st.lists(GRID, min_size=4, max_size=4),
    st.one_of(GRID, st.sampled_from([5e-10, 1e-9, 2e-9, 1e-8])),
    GRID,
)
# levels within an ulp of the degeneracy threshold, where two eigensolvers'
# levels can fall on different sides of it
@example(j=[0.0, 0.0, 0.0, 1.0], j_a=1e-9, j_c=1e-9)
@example(j=[0.0, 1.0, 1e-9, 1e-9], j_a=1e-9, j_c=1e-9)
@example(j=[0.0, 0.0, 1.0, 1e-9], j_a=1e-9, j_c=1e-9)
@example(j=[0.0, 0.0, 1.0, 1.0], j_a=1e-9, j_c=1e-9)
@example(
    j=[0.09918737534611899, 3.7994722370058295e-09, 0.0, 0.0],
    j_a=1.29324311258453, j_c=1.1137987045537419,
)
def test_every_entry_point_names_one_ground_set(j, j_a, j_c):
    # ground_states, spectral_gap and logical_distribution read one solver's
    # levels, so at a tie with the threshold they still name one ground set
    h = build_hamiltonian(j, j_a, j_c)
    e_min, weights = ground_states(h)
    gap = spectral_gap(h)
    marginal = weights.reshape(16, 4).sum(axis=1)
    from_states = set(code_labels(np.flatnonzero(marginal > SUPPORT_TOL), 4))
    levels = np.linalg.eigh(quantum._blocks_of(h))[0]
    below_gap = ((levels - e_min < gap) | (gap == 0.0)).any(axis=1)
    from_gap = set(code_labels(np.flatnonzero(below_gap), 4))
    assert from_states == logical_distribution(j, j_a, j_c).support() == from_gap


def _stack_weights(d, s):
    """quantum._stack_weights of stacks d (..., 16, 4) and s broadcast to
    (..., 16), handed over stack-last and returned in d's leading shape."""
    s = np.broadcast_to(s, d.shape[:-1]).reshape(-1, 16).T
    diag = np.ascontiguousarray(np.reshape(d, (-1, 16, 4)).T)
    return quantum._stack_weights(diag, s).T.reshape(d.shape[:-1])


def _all_block_weights(d, s):
    """_stack_weights' result from an eigh solve of every block diag(d) - s F."""
    blocks = d[..., None] * np.eye(4) - np.asarray(s)[..., None, None] * quantum._ANCILLA_FLIPS
    counts = ground_mask(np.linalg.eigh(blocks)[0], axis=(-2, -1)).sum(axis=-1)
    return counts / counts.sum(axis=-1, keepdims=True)


@pytest.mark.kernel_bytes
@settings(deadline=None, max_examples=200)
@given(
    st.lists(PARAMETER, min_size=6, max_size=6),
    st.one_of(st.just(0.0), st.floats(min_value=-14.0, max_value=2.0).map(lambda e: 10.0**e)),
    st.sampled_from(["uniform", "normal"]),
    st.integers(min_value=0, max_value=2**32 - 1),
    st.one_of(st.just(1.0), st.floats(min_value=-323.0, max_value=300.0).map(lambda e: 10.0**e)),
)
@example(
    params=[0.0, 0.0, 0.0, 0.0, 0.0, 2.225073858507e-311],
    coefficient=0.0, distribution="uniform", seed=0, scale=1.0,
)
@example(
    params=[0.0, 0.5, 0.5, 0.5, 1e-9, 0.5],
    coefficient=0.0, distribution="uniform", seed=0, scale=1.0,
)
@example(
    params=[0.0, 0.5, 0.5, 0.5, 1e-9, 0.5],
    coefficient=1e-9, distribution="normal", seed=1, scale=1.0,
)
@example(
    params=[0.0, 0.0, 0.0, 0.0, 1.0, 1.0],
    coefficient=0.1, distribution="uniform", seed=2, scale=1.0,
)
@example(
    params=[0.5, -0.5, 0.5, 0.5, 0.0, 1.0],
    coefficient=1e-3, distribution="normal", seed=3, scale=1.0,
)
# noise-free levels within an ulp of the degeneracy threshold: no certificate
@example(
    params=[0.0, 0.0, 0.0, 1.0, 1e-9, 1e-9],
    coefficient=0.0, distribution="uniform", seed=0, scale=1.0,
)
@example(
    params=[0.0, 1.0, 1e-9, 1e-9, 1e-9, 1e-9],
    coefficient=0.0, distribution="uniform", seed=0, scale=1.0,
)
@example(
    params=[0.0, 0.0, 1.0, 1e-9, 1e-9, 1e-9],
    coefficient=0.0, distribution="uniform", seed=0, scale=1.0,
)
@example(
    params=[0.0, 0.0, 1.0, 1.0, 1e-9, 1e-9],
    coefficient=0.0, distribution="uniform", seed=0, scale=1.0,
)
@example(
    params=[0.09918737534611899, 3.7994722370058295e-09, 0.0, 0.0, 1.29324311258453,
            1.1137987045537419],
    coefficient=0.0, distribution="uniform", seed=0, scale=1.0,
)
# j_a = 0: min d never exceeds the Rayleigh quotient, so Weyl's lower bound
# stands in for Temple's
@example(
    params=[0.5, -0.5, -0.5, 0.5, 0.0, 1.0],
    coefficient=0.1, distribution="uniform", seed=4, scale=1.0,
)
# a signed field vector at 0.1 gap disorder: most trials are certified, in
# any units; at 1e-170 the squares in Temple's bound would underflow in the
# tile's own units, and at 1e-323 every entry is subnormal
@example(
    params=[-0.25, 0.25, -0.25, 0.25, 1.0, 1.0],
    coefficient=0.2, distribution="uniform", seed=3, scale=1.0,
)
@example(
    params=[-0.25, 0.25, -0.25, 0.25, 1.0, 1.0],
    coefficient=0.1, distribution="uniform", seed=3, scale=1e-12,
)
@example(
    params=[-0.25, 0.25, -0.25, 0.25, 1.0, 1.0],
    coefficient=0.1, distribution="uniform", seed=3, scale=1e12,
)
@example(
    params=[-0.25, 0.25, -0.25, 0.25, 1.0, 1.0],
    coefficient=3.0, distribution="uniform", seed=3, scale=1e-170,
)
@example(
    params=[-0.25, 0.25, -0.25, 0.25, 1.0, 1.0],
    coefficient=1.0, distribution="uniform", seed=3, scale=1e-323,
)
def test_certified_weights_equal_a_solve_of_every_block(
    params, coefficient, distribution, seed, scale
):
    # a certified stack's one ground block, and a declined stack's solve of
    # its candidate blocks, must give what a solve of every block gives,
    # whatever the disorder's scale against the tile's and the tile's units,
    # in a trial stack or without noise
    _check_against_a_solve_of_every_block(params, coefficient, distribution, seed, scale)


def _check_against_a_solve_of_every_block(params, coefficient, distribution, seed, scale):
    j, j_a, j_c = [v * scale for v in params[:4]], params[4] * scale, params[5] * scale
    e, s = quantum._tile_blocks(j, j_a, j_c)
    noise = NoiseSpec(coefficient * scale, distribution, seed=seed)
    disorder = noise.draw(np.random.default_rng(noise.seed_sequence()), 8)
    for stack in (np.broadcast_to(e[:, None], (16, 4)), e[:, None] + disorder.reshape(8, 16, 4)):
        expected = _all_block_weights(stack, s)
        assert _stack_weights(stack, s).tobytes() == expected.tobytes()


# tile inputs whose first trial has a candidate level between the thresholds
# of the two ends of the bracket on its highest level: j_4 is solved for so
# that the lowest levels of a block with spin 4 up and one with it down lie
# the degeneracy threshold apart, in the middle of that window
BRACKETED_LEVELS = [
    dict(params=[0.0, 0.0, 0.0, 8.00611817580732e-06, 1.0, 1.0],
         coefficient=1e-3, distribution="uniform", seed=5, scale=1.0),
    dict(params=[0.0, 0.0, 0.0, -0.0003097705467926537, 1.0, 1.0],
         coefficient=1e-3, distribution="normal", seed=6, scale=1.0),
    dict(params=[0.0, 0.0, 0.0, 0.021942383972916313, 1.0, 1.0],
         coefficient=0.1, distribution="uniform", seed=7, scale=1.0),
]
for _case in BRACKETED_LEVELS:
    test_certified_weights_equal_a_solve_of_every_block = example(**_case)(
        test_certified_weights_equal_a_solve_of_every_block)


def _spy_on_the_full_solve(monkeypatch) -> list:
    """Record the levels' shape each time _stack_weights falls back to a
    solve of every block of a stack: the one path that calls ground_mask."""
    calls = []

    def spy(levels, axis=None):
        calls.append(levels.shape)
        return ground_mask(levels, axis=axis)

    monkeypatch.setattr(quantum, "ground_mask", spy)
    return calls


@pytest.mark.kernel_bytes
@pytest.mark.parametrize("case", BRACKETED_LEVELS)
def test_a_level_inside_the_bracketed_threshold_solves_every_block(monkeypatch, case):
    full = _spy_on_the_full_solve(monkeypatch)
    _check_against_a_solve_of_every_block(**case)
    assert full and all(shape[1:] == (16, 4) for shape in full)


@pytest.mark.kernel_bytes
@pytest.mark.parametrize("side, weights", [(-1.0, [0.5, 0.5, 0.0]), (1.0, [1.0, 0.0, 0.0])])
def test_the_solved_top_level_decides_a_level_inside_the_bracket(monkeypatch, side, weights):
    # the spread block is no candidate, but its top level, ~12.2, is the
    # stack's; the bounds bracket it by 7 and 14, so a level 1e-9 either
    # side of the threshold it gives is left open by the bracket, and the
    # fallback's solve of every block settles it
    spread = [12.0, 2.0, 2.0, 2.0]
    top = np.linalg.eigh(np.diag(spread) - quantum._ANCILLA_FLIPS)[0][-1]
    level = -2.0 + DEGENERACY_TOL * (top + 2.0) + side * 1e-9
    d = np.array([[0.0] * 4, [level + 2.0] * 4, spread] + [[5.0] * 4] * 13)
    full = _spy_on_the_full_solve(monkeypatch)
    result = _stack_weights(d, 1.0)
    assert full
    assert result.tobytes() == _all_block_weights(d, 1.0).tobytes()
    assert result[:3].tolist() == weights


@pytest.mark.kernel_bytes
@pytest.mark.parametrize("s", [1.0, -1.0])
def test_a_ground_level_shared_with_a_spread_block_declines_the_certificate(s):
    # the spread block's lowest level lies Temple's correction below its
    # Rayleigh quotient, the flat block's on its own, and both at one level:
    # a lower bound above the spread block's level would leave the flat block
    # alone and certify a one-hot row where a solve counts both
    spread = [0.0, 0.3, 0.3, 0.3]
    ground = np.linalg.eigh(np.diag(spread) - s * quantum._ANCILLA_FLIPS)[0][0]
    d = np.array([spread, [ground + 2.0] * 4] + [[5.0] * 4] * 14)
    weights = _stack_weights(d, s)
    assert weights.tobytes() == _all_block_weights(d, s).tobytes()
    assert weights[:2].tolist() == [0.5, 0.5]


def _count_solved_blocks(monkeypatch) -> list:
    """Record the number of 4 x 4 blocks of each call to quantum._solve."""
    counts = []
    solve = quantum._solve

    def counting(blocks):
        counts.append(blocks[..., 0, 0].size)
        return solve(blocks)

    monkeypatch.setattr(quantum, "_solve", counting)
    return counts


def test_a_signed_field_vector_solves_few_blocks_per_trial(monkeypatch):
    gap = spectral_gap(build_hamiltonian((0.0,) * 4, 1.0, 1.0))
    rows = _count_solved_blocks(monkeypatch)
    noise = NoiseSpec(0.1 * gap, "uniform", seed=3)
    solved = []
    for vector in default_field_sweep(1.0):
        rows.clear()
        logical_distribution(vector, 1.0, 1.0, noise=noise, trials=200)
        solved.append(sum(rows) / 200)
    # the bounds certify almost every trial's one ground block with no solve,
    # and a trial they do not certify solves only its candidate blocks
    assert sum(solved) / len(solved) < 0.25
    assert solved[6] == 0


@pytest.mark.parametrize("fixed", [False, True])
def test_no_eigensolve_is_made_on_an_empty_stack(monkeypatch, fixed):
    # a chunk whose every trial is certified makes no solve at all
    gap = spectral_gap(build_hamiltonian((0.0,) * 4, 1.0, 1.0))
    blocks = _count_solved_blocks(monkeypatch)
    if fixed:
        noise = NoiseSpec(0.02, "normal", seed=3)
        logical_distribution((0.6, -0.4, 0.8, -0.5), 1.0, 1.0, noise=noise, trials=1200)
    else:
        sweep_distribution(1.0, 1.0, noise=NoiseSpec(0.1 * gap, "uniform", seed=3), trials=200)
    assert 0 not in blocks


def test_closed_form_matches_eigensolver():
    rng = np.random.default_rng(11)
    for _ in range(120):
        j = tuple(rng.normal(size=4))
        j_a = float(rng.uniform(0.0, 2.0))
        j_c = float(rng.normal())
        e_min, _ = ground_states(build_hamiltonian(j, j_a, j_c))
        assert abs(e_min - closed_form_ground_energy(j, j_a, j_c)) < 1e-9


def test_closed_form_reference_value():
    assert closed_form_ground_energy((0.0,) * 4, 1.0, 1.0) == -3.0
    # fields pull the minimum below the field-free floor
    assert closed_form_ground_energy((0.5, 0.0, 0.0, 0.0), 1.0, 1.0) == -3.5


def test_noise_spec_validation_and_draws():
    with pytest.raises(ValueError):
        NoiseSpec(thermal_coefficient=-0.1)
    with pytest.raises(ValueError):
        NoiseSpec(distribution="poisson")
    with pytest.raises(dataclasses.FrozenInstanceError):
        spec = NoiseSpec(0.5)
        spec.thermal_coefficient = 1.0

    spec = NoiseSpec(0.25, "uniform", seed=9)
    draw = spec.draw(np.random.default_rng(spec.seed_sequence()), 3)
    assert draw.shape == (3, DIM)
    assert np.all(np.abs(draw) <= 0.25)
    again = spec.draw(np.random.default_rng(spec.seed_sequence()), 3)
    assert np.array_equal(draw, again)

    normal = NoiseSpec(1.0, "normal", seed=9)
    assert not np.array_equal(
        normal.draw(np.random.default_rng(normal.seed_sequence()), 3), draw
    )


@pytest.mark.parametrize("coefficient", [math.nan, math.inf, -0.1])
def test_noise_spec_names_a_coefficient_that_is_not_finite_and_nonnegative(coefficient):
    # the field name leads, so the input loader can name the field
    with pytest.raises(ValueError, match="^thermal_coefficient must be >= 0 and finite"):
        NoiseSpec(coefficient)


def test_state_distribution_validation_and_views():
    p = np.zeros(16)
    p[3] = 0.5
    p[12] = 0.5
    dist = StateDistribution(p)
    assert dist.support() == {"0011", "1100"}
    assert dist.as_dict()["0011"] == 0.5
    assert list(dist.as_dict()) == code_labels(range(16), 4)
    assert dist.as_dict()["1010"] == 0.0
    with pytest.raises(ValueError):
        StateDistribution(np.zeros(8))
    with pytest.raises(ValueError):
        StateDistribution(np.full(16, 0.5))
    bad = np.full(16, 1 / 15)
    bad[0] = -1 / 15
    with pytest.raises(ValueError):
        StateDistribution(bad)
    # NaN passes a sign test and a sum test, and would leave an empty support
    for fill in (math.nan, math.inf):
        with pytest.raises(ValueError, match="finite"):
            StateDistribution(np.full(16, fill))


def test_state_distribution_leaves_the_callers_array_alone():
    p = np.full(16, 1 / 16)
    dist = StateDistribution(p)
    assert p.flags.writeable
    p[0] = 5.0
    assert dist.probabilities[0] == 1 / 16
    assert not dist.probabilities.flags.writeable


def test_noise_free_distribution_is_uniform_on_even_states():
    dist = logical_distribution((0.0,) * 4, 1.0, 1.0)
    assert dist.support() == EVEN_LABELS
    for label, prob in dist.as_dict().items():
        target = 0.125 if label in EVEN_LABELS else 0.0
        assert prob == pytest.approx(target, rel=0, abs=1e-12)
    # without noise the trial count cannot matter
    repeat = logical_distribution((0.0,) * 4, 1.0, 1.0, trials=7)
    assert np.array_equal(dist.probabilities, repeat.probabilities)
    with pytest.raises(ValueError):
        logical_distribution((0.0,) * 4, 1.0, 1.0, trials=0)


def test_small_noise_keeps_even_support():
    gap = spectral_gap(build_hamiltonian((0.0,) * 4, 1.0, 1.0))
    noise = NoiseSpec(0.1 * gap, "uniform", seed=5)
    dist = logical_distribution((0.0,) * 4, 1.0, 1.0, noise=noise, trials=40)
    assert dist.support() == EVEN_LABELS
    assert float(dist.probabilities.sum()) == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("distribution", ["uniform", "normal"])
def test_logical_distribution_averages_one_stream_in_trial_order(distribution):
    # trial t takes row t of one draw of all trials from the noise's stream
    noise = NoiseSpec(0.4, distribution, seed=29)
    args = ((0.2, -0.1, 0.0, 0.3), 0.6, 0.9)
    rows = noise.draw(np.random.default_rng(noise.seed_sequence()), 9)
    acc = np.zeros(16)
    e, s = quantum._tile_blocks(*args)
    for row in rows:
        acc = acc + _stack_weights(e[:, None] + row.reshape(16, 4), s)
    dist = logical_distribution(*args, noise=noise, trials=9)
    assert dist.probabilities.tobytes() == (acc / 9).tobytes()


@pytest.mark.kernel_bytes
@pytest.mark.parametrize("chunk", [1, 7])
@pytest.mark.parametrize("distribution", ["uniform", "normal"])
def test_logical_distribution_does_not_depend_on_the_chunk(
    monkeypatch, distribution, chunk
):
    # three logical states tie at the ground level and the disorder is near
    # the degeneracy tolerance, so trials weigh them 1/3, 1/2 or 1: a sum in
    # any order other than trial order changes the last bits, and so does a
    # stream restarted at each chunk
    noise = NoiseSpec(2e-8, distribution, seed=13)
    args = ((-1.0, -1.0, -1.0, -2.0), 1.0, -2.0)
    default = logical_distribution(*args, noise=noise, trials=25)
    monkeypatch.setattr(quantum, "_TRIAL_CHUNK", chunk)
    batched = logical_distribution(*args, noise=noise, trials=25)
    assert batched.probabilities.tobytes() == default.probabilities.tobytes()


@pytest.mark.kernel_bytes
@pytest.mark.parametrize("chunk", [1, 7, 40])
@pytest.mark.parametrize("distribution", ["uniform", "normal"])
def test_sweep_distribution_does_not_depend_on_the_chunk(monkeypatch, distribution, chunk):
    # at 2e-9 the zero-field vector's even states lie within the degeneracy
    # threshold of each other, so trials weigh them 1/2 .. 1/8; 70 trials run
    # as passes of 30, 30 and 10 stacks a vector by default, of 1 or 2 here
    noise = NoiseSpec(2e-9, distribution, seed=19)
    default = sweep_distribution(1.0, 1.0, noise=noise, trials=70)
    monkeypatch.setattr(quantum, "_TRIAL_CHUNK", chunk)
    batched = sweep_distribution(1.0, 1.0, noise=noise, trials=70)
    assert batched.probabilities.tobytes() == default.probabilities.tobytes()


# runs of several passes whose last pass is partial, pinned by the sha256 of
# their probabilities' bytes: the sweep at 100 trials takes passes of 30, 30,
# 30 and 10 stacks a vector, and the bounds decline stacks of its zero-field
# vector in each; one vector at 600 trials takes passes of 512 and 88
MULTI_PASS_DIGESTS = {
    "sweep uniform": "5cd59db298eb05c55f97dfc8d59e1b1717841b10690052eb74888c0c7ca5f235",
    "fixed normal": "d77ee06bcb12080c09d62ce6ce8c392afda45c8ed6f6364934d9b81be94ca21e",
}


@pytest.mark.kernel_bytes
@pytest.mark.parametrize("case", sorted(MULTI_PASS_DIGESTS))
def test_multi_pass_distribution_digest_is_pinned(case):
    if case == "sweep uniform":
        gap = spectral_gap(build_hamiltonian((0.0,) * 4, 1.0, 1.0))
        dist = sweep_distribution(1.0, 1.0, NoiseSpec(0.1 * gap, "uniform", seed=31), trials=100)
    else:
        noise = NoiseSpec(0.3, "normal", seed=32)
        dist = logical_distribution((0.1, 0.0, -0.2, 0.0), 1.0, 1.0, noise=noise, trials=600)
    digest = hashlib.sha256(dist.probabilities.tobytes()).hexdigest()
    assert digest == MULTI_PASS_DIGESTS[case]


# noise-free runs, pinned by the sha256 of the probabilities' bytes of
# logical_distribution and then sweep_distribution at 1 and 1,000 trials:
# signed zero inputs, a near-tie at the degeneracy threshold and a signed
# field vector
NOISE_FREE_CASES = {
    "signed zeros": ((-0.0, 0.0, -0.0, 0.0), 1.0, -0.0),
    "near tie": ((0.0, 0.0, 0.0, 1.0), 1e-9, 1e-9),
    "signed field": ((-0.25, 0.25, -0.25, 0.25), 1.0, 1.0),
}
NOISE_FREE_DIGESTS = {
    "signed zeros": "e5b7e3f2f4a76fe96a891f4ee2f18288307487fa737181eee833d01e6b779dbe",
    "near tie": "c9790a5af65cde0dfe57ff7e07abb5677f37767e95a7c4d5469231cd5b5bae15",
    "signed field": "330aff5fedfb191be5033bd4ff76f214ae6203b6e575364d6a6a509d8db2651d",
}


@pytest.mark.kernel_bytes
@pytest.mark.parametrize("case", sorted(NOISE_FREE_CASES))
def test_noise_free_distribution_digest_is_pinned(case):
    j, j_a, j_c = NOISE_FREE_CASES[case]
    digest = hashlib.sha256()
    for trials in (1, 1_000):
        dist = logical_distribution(j, j_a, j_c, NoiseSpec(0.0), trials)
        digest.update(dist.probabilities.tobytes())
    for trials in (1, 1_000):
        digest.update(sweep_distribution(j_a, j_c, NoiseSpec(0.0), trials).probabilities.tobytes())
    assert digest.hexdigest() == NOISE_FREE_DIGESTS[case]


def test_a_noise_free_sweep_draws_nothing_and_solves_once(monkeypatch):
    # without disorder every trial is the same, so the sweep's 17 vectors run
    # as one pass of one trial, whatever the trial count
    draws, passes = [], []
    stack_weights = quantum._stack_weights

    def counting(diag, s):
        passes.append(diag.shape)
        return stack_weights(diag, s)

    monkeypatch.setattr(NoiseSpec, "draw", lambda *args: draws.append(args))
    monkeypatch.setattr(quantum, "_stack_weights", counting)
    dist = sweep_distribution(1.0, 1.0, NoiseSpec(0.0), trials=1000)
    assert dist.support() == EVEN_LABELS
    assert draws == []
    assert passes == [(4, 16, 17)]  # one trial stack of each vector


def test_logical_distribution_memory_does_not_grow_with_trials():
    noise = NoiseSpec(0.1, "uniform", seed=4)
    peaks = []
    for trials in (600, 2_000, 20_000):  # the first run warms caches
        tracemalloc.start()
        try:
            logical_distribution((0.0,) * 4, 1.0, 1.0, noise=noise, trials=trials)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    # one float64 held per trial would add 144 KB; the peaks differ only by
    # the 0-3 KB of small-object residue that varies from run to run
    assert peaks[2] <= peaks[1] + 16 * 1024
    assert peaks[2] < 8 * 2**20


def test_sweep_distribution_memory_does_not_grow_with_trials():
    # a pass holds at most _TRIAL_CHUNK stacks summed over the 17 vectors
    noise = NoiseSpec(0.1, "uniform", seed=4)
    peaks = []
    for trials in (600, 2_000, 20_000):  # the first run warms caches
        tracemalloc.start()
        try:
            sweep_distribution(1.0, 1.0, noise=noise, trials=trials)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    # one float64 held per trial and vector would add 2.4 MB, and a pass of
    # 512 trials of each vector ~30 MB. In a fresh interpreter the 20,000-trial
    # peak reads up to ~65 KB higher: its 667 passes leave that much in the
    # interpreter's free lists, bounded, and released by a full collection
    assert peaks[2] <= peaks[1] + 256 * 1024
    assert peaks[2] < 8 * 2**20


def test_overflowing_spectrum_range_raises_instead_of_a_uniform_table():
    # disorder near the float maximum: the 64-level range overflows, which
    # would make every level count as ground. The range is taken with its
    # overflow silenced, so the ValueError, not a RuntimeWarning, reaches a
    # caller that turns warnings into errors
    noise = NoiseSpec(1e308, "uniform", seed=1)
    with warnings.catch_warnings(), pytest.raises(ValueError, match="not finite"):
        warnings.simplefilter("error")
        logical_distribution((0.0,) * 4, 1.0, 1.0, noise=noise, trials=3)


@pytest.mark.kernel_bytes
def test_a_stack_whose_range_may_overflow_is_not_certified():
    # the wide block alone can hold the ground level, but its lowest level
    # lies ~1.8e308 below the others' top, a range a solve cannot take
    d = np.array([[-0.8e308, 0.8e308, 0.8e308, 0.8e308]] + [[1e308] * 4] * 15)
    with pytest.raises(ValueError, match="not finite"):
        _stack_weights(d, 1.0)


def test_noise_runs_are_reproducible():
    noise_a = NoiseSpec(0.3, "normal", seed=21)
    noise_b = NoiseSpec(0.3, "normal", seed=np.random.SeedSequence(21))
    a = logical_distribution((0.1, 0.0, 0.0, 0.0), 1.0, 1.0, noise=noise_a, trials=6)
    b = logical_distribution((0.1, 0.0, 0.0, 0.0), 1.0, 1.0, noise=noise_b, trials=6)
    assert np.array_equal(a.probabilities, b.probabilities)


def test_sweep_distribution_leaves_a_seed_sequence_as_it_found_it():
    seed = np.random.SeedSequence(21)
    noise = NoiseSpec(0.3, "normal", seed=seed)
    a = sweep_distribution(1.0, 1.0, noise=noise, trials=4)
    b = sweep_distribution(1.0, 1.0, noise=noise, trials=4)
    by_int = sweep_distribution(1.0, 1.0, noise=NoiseSpec(0.3, "normal", 21), trials=4)
    assert a.probabilities.tobytes() == b.probabilities.tobytes()
    assert a.probabilities.tobytes() == by_int.probabilities.tobytes()
    assert seed.n_children_spawned == 0


@pytest.mark.kernel_bytes
@pytest.mark.parametrize("trials", [1, 30, 31, 100, 513])
@pytest.mark.parametrize(
    "coefficient, distribution",
    [(0.0, "uniform"), (2e-9, "uniform"), (2e-9, "normal"), (0.3, "uniform"), (0.3, "normal")],
)
def test_sweep_distribution_is_the_mean_of_per_vector_distributions(
    monkeypatch, coefficient, distribution, trials
):
    # at 2e-9 the even states' ground levels lie within the degeneracy
    # threshold of each other, so trials weigh them 1/2 .. 1/8: a sum in an
    # order other than trial order, then vector order, changes the last bits
    noise = NoiseSpec(coefficient, distribution, seed=17)
    vectors = default_field_sweep(1.0)
    acc = np.zeros(16)  # a logical_distribution call per vector, each on its own stream
    for vec, seq in zip(vectors, noise.seed_sequence().spawn(len(vectors))):
        dist = logical_distribution(vec, 1.0, 1.0, dataclasses.replace(noise, seed=seq), trials)
        acc += dist.probabilities
    expected = (acc / len(vectors)).tobytes()
    for chunk in (quantum._TRIAL_CHUNK, 1, 7):
        monkeypatch.setattr(quantum, "_TRIAL_CHUNK", chunk)
        assert sweep_distribution(1.0, 1.0, noise, trials).probabilities.tobytes() == expected


def test_default_sweep_grid():
    vectors = default_field_sweep(2.0)
    assert len(vectors) == 17
    assert np.array_equal(vectors[0], np.zeros(4))
    patterns = {tuple(v) for v in vectors[1:]}
    assert len(patterns) == 16
    for v in vectors[1:]:
        assert np.all(np.abs(v) == 0.5)


def test_sweep_distribution_support_and_determinism():
    clean = sweep_distribution(1.0, 1.0)
    assert clean.support() == EVEN_LABELS

    noise = NoiseSpec(0.19, "uniform", seed=77)
    a = sweep_distribution(1.0, 1.0, noise=noise, trials=8)
    b = sweep_distribution(1.0, 1.0, noise=noise, trials=8)
    assert a.support() == EVEN_LABELS
    assert np.array_equal(a.probabilities, b.probabilities)
