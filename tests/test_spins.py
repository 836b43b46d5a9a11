"""Spin foundations: energies, exhaustive search, problem file parsing."""

import dataclasses
import json
import math
from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jpotile import spins
from jpotile.errors import CapacityError, ParseError
from jpotile.spins import (
    DEGENERACY_TOL,
    IsingProblem,
    all_configs,
    as_spins,
    code_labels,
    enumerate_ground_states,
    indices_to_spins,
    ising_energy,
    load_ising_problem,
)


def two_spin_problem(j12):
    j = np.array([[0.0, j12], [j12, 0.0]])
    return IsingProblem(h=np.zeros(2), j=j)


def test_spin_bit_conversions_round_trip():
    assert np.array_equal(indices_to_spins([0b1001], 4), [[1, -1, -1, 1]])
    assert code_labels([0b1001, 0, 15], 4) == ["1001", "0000", "1111"]
    codes = np.arange(64)
    labels = code_labels(codes, 6)
    assert [int(label, 2) for label in labels] == codes.tolist()
    spins = indices_to_spins(codes, 6)
    assert ["".join("1" if v == 1 else "0" for v in row) for row in spins] == labels
    assert code_labels([], 3) == []


def test_as_spins_rejects_bad_values():
    with pytest.raises(ValueError):
        as_spins([1, 0, -1])
    with pytest.raises(ValueError):
        as_spins([])
    with pytest.raises(ValueError):
        code_labels([16], 4)
    with pytest.raises(ValueError):
        code_labels([-1], 4)


def test_ising_energy_hand_values():
    # single ferromagnetic bond, aligned spins
    assert ising_energy(two_spin_problem(1.0), [1, 1]) == -1.0
    # all parameters zero
    zero = IsingProblem(h=np.zeros(3), j=np.zeros((3, 3)))
    assert ising_energy(zero, [1, -1, 1]) == 0.0
    # field term only
    prob = IsingProblem(h=np.array([1.0, 0.0]), j=np.zeros((2, 2)))
    assert ising_energy(prob, [-1, 1]) == 1.0


def test_ising_energy_counts_each_pair_once():
    rng = np.random.default_rng(7)
    j = rng.normal(size=(4, 4))
    j = j + j.T
    np.fill_diagonal(j, 0.0)
    prob = IsingProblem(h=np.zeros(4), j=j)
    sigma = np.array([1, -1, -1, 1])
    pair_sum = sum(
        j[i, k] * sigma[i] * sigma[k] for i in range(4) for k in range(i + 1, 4)
    )
    assert ising_energy(prob, sigma) == pytest.approx(-pair_sum, rel=1e-12)


def test_ising_energy_dimension_mismatch():
    with pytest.raises(ValueError):
        ising_energy(two_spin_problem(1.0), [1, 1, 1])


def test_ising_problem_validation():
    with pytest.raises(ValueError):
        IsingProblem(h=np.zeros(2), j=np.array([[0.0, 1.0], [2.0, 0.0]]))
    with pytest.raises(ValueError):
        IsingProblem(h=np.zeros(2), j=np.array([[1.0, 0.0], [0.0, 0.0]]))
    with pytest.raises(ValueError):
        IsingProblem(h=np.zeros((2, 2)), j=np.zeros((2, 2)))
    prob = two_spin_problem(0.5)
    with pytest.raises(ValueError):
        prob.j[0, 1] = 2.0


def test_global_flip_invariance_without_fields():
    rng = np.random.default_rng(11)
    for _ in range(50):
        n = rng.integers(2, 7)
        j = rng.normal(size=(n, n))
        j = j + j.T
        np.fill_diagonal(j, 0.0)
        prob = IsingProblem(h=np.zeros(n), j=j)
        sigma = rng.choice([-1, 1], size=n)
        assert ising_energy(prob, sigma) == pytest.approx(
            ising_energy(prob, -sigma), rel=1e-12, abs=1e-12
        )


def test_ising_problem_leaves_the_callers_arrays_alone():
    h = np.zeros(3)
    j = np.asfortranarray(np.ones((3, 3)) - np.eye(3))
    problem = IsingProblem(h=h, j=j)
    assert h.flags.writeable and j.flags.writeable
    h[0] = 5.0
    j[0, 1] = j[1, 0] = 7.0
    assert problem.h.tolist() == [0.0, 0.0, 0.0]
    assert problem.j[0, 1] == problem.j[1, 0] == 1.0
    assert not problem.h.flags.writeable and not problem.j.flags.writeable
    assert problem.j.flags.c_contiguous


def test_all_configs_ordering():
    configs = all_configs(2)
    assert configs.shape == (4, 2)
    # row index in binary gives the bit pattern, first spin most significant
    assert np.array_equal(configs[0], [-1, -1])
    assert np.array_equal(configs[1], [-1, 1])
    assert np.array_equal(configs[2], [1, -1])
    assert np.array_equal(configs[3], [1, 1])


def test_enumerate_single_spin():
    e, ground = enumerate_ground_states(lambda s: -float(s[0]), 1)
    assert e == -1.0
    assert ground == {(1,)}


def test_enumerate_two_spin_bond():
    e, ground = enumerate_ground_states(lambda s: -float(s[0] * s[1]), 2)
    assert e == -1.0
    assert ground == {(1, 1), (-1, -1)}


def test_enumerate_is_chunk_invariant(monkeypatch):
    rng = np.random.default_rng(17)
    j = rng.integers(-4, 5, size=(8, 8)).astype(float)
    j = j + j.T
    np.fill_diagonal(j, 0.0)

    def scalar_energy(s):
        v = np.asarray(s, dtype=float)
        return float(-0.5 * v @ j @ v)

    ref = enumerate_ground_states(scalar_energy, 8)
    for chunk in (1, 3, 64, 1 << 16):
        monkeypatch.setattr(spins, "_ENUMERATION_CHUNK", chunk)
        assert enumerate_ground_states(scalar_energy, 8) == ref


def test_enumerate_ground_closed_under_flip_when_symmetric():
    rng = np.random.default_rng(29)
    j = rng.normal(size=(5, 5))
    j = j + j.T
    np.fill_diagonal(j, 0.0)

    def energy(s):
        v = np.asarray(s, dtype=float)
        return float(-0.5 * v @ j @ v)

    e, ground = enumerate_ground_states(energy, 5)
    energies = [energy(c) for c in all_configs(5)]
    tol = DEGENERACY_TOL * (max(energies) - e)
    for g in ground:
        flipped = tuple(-v for v in g)
        assert flipped in ground
        assert abs(energy(np.array(flipped)) - e) <= tol


def test_enumerate_ground_set_does_not_depend_on_the_units():
    # an absolute tolerance made every configuration a ground state of
    # energies this small
    def energy(s):
        return -float(s[0] * s[1]) - 0.5 * float(s[2])

    assert enumerate_ground_states(energy, 3)[1] == {(1, 1, 1), (-1, -1, 1)}
    tiny = enumerate_ground_states(lambda s: 1e-25 * energy(s), 3)
    assert tiny[1] == {(1, 1, 1), (-1, -1, 1)}
    with pytest.raises(ValueError, match="range is not finite"):
        enumerate_ground_states(lambda s: math.inf * float(s[0]), 2)


def test_enumerate_capacity_and_validation():
    with pytest.raises(CapacityError):
        enumerate_ground_states(lambda s: 0.0, 25)
    with pytest.raises(ValueError):
        enumerate_ground_states(lambda s: 0.0, 0)


def test_enumerate_names_the_first_nan_energy(monkeypatch):
    # a NaN energy compares false with everything, so it used to drop out
    # of the minimum and the ground set without a word
    with pytest.raises(ValueError, match=r"NaN at configuration \(1, -1, -1\)$"):
        enumerate_ground_states(lambda s: math.nan if s[0] > 0 else 1.0, 3)
    with pytest.raises(ValueError, match=r"NaN at configuration \(-1, -1, -1\)$"):
        enumerate_ground_states(lambda s: math.nan, 3)
    with monkeypatch.context() as patch:
        patch.setattr(spins, "_ENUMERATION_CHUNK", 2)
        with pytest.raises(ValueError, match=r"NaN at configuration \(1, -1, 1\)$"):
            enumerate_ground_states(
                lambda s: math.nan if s[0] > 0 and s[2] > 0 else 0.0, 3
            )


def _bits(x):
    return "nan" if math.isnan(x) else float.hex(x)


@pytest.mark.kernel_bytes
@settings(deadline=None)
@given(
    st.integers(min_value=1, max_value=20),
    st.sampled_from(["C", "F", "strided"]),
    st.sampled_from([np.int8, np.int64, np.float64]),
    st.data(),
)
def test_ising_energy_matches_the_matmul_form_bit_for_bit(n, layout, dtype, data):
    reals = st.one_of(
        st.sampled_from([0.0, -0.0]), st.floats(allow_nan=False, allow_infinity=False)
    )
    h = np.array(data.draw(st.lists(reals, min_size=n, max_size=n)), dtype=float)
    upper = data.draw(st.lists(reals, min_size=n * n, max_size=n * n))
    j = np.triu(np.reshape(upper, (n, n)), 1)
    j = j + j.T
    if layout == "F":
        j = np.asfortranarray(j)
    elif layout == "strided":
        wide = np.zeros((n, 2 * n))
        wide[:, ::2] = j
        j = wide[:, ::2]
    problem = IsingProblem(h=h, j=j)
    spins = data.draw(st.lists(st.sampled_from([-1, 1]), min_size=n, max_size=n))
    sigma = np.array(spins, dtype=dtype)
    s = sigma.astype(float)
    with np.errstate(all="ignore"):
        # the oracle: the energy as written before the per-call cost was cut
        want = float(-problem.h @ s - 0.5 * s @ problem.j @ s)
        got = ising_energy(problem, sigma)
    assert _bits(got) == _bits(want)


@pytest.mark.kernel_bytes
def test_ising_energy_signs_a_zero_energy_as_the_matmul_form():
    # over one spin np.dot multiplies where matmul sums, and their zeros
    # carry different signs
    for n in (1, 2, 3):
        for zero in (0.0, -0.0):
            problem = IsingProblem(h=np.full(n, zero), j=np.full((n, n), zero))
            for s in all_configs(n).astype(float):
                want = float(-problem.h @ s - 0.5 * s @ problem.j @ s)
                assert _bits(ising_energy(problem, s)) == _bits(want)


def _matmul_form(problem, sigma):
    s = np.asarray(sigma).astype(float)
    with np.errstate(all="ignore"):
        return float(-problem.h @ s - 0.5 * s @ problem.j @ s)


def _assert_matmul_bits(problem):
    configs = all_configs(problem.n)
    for sigma in (*configs, *configs.astype(float)):
        assert _bits(ising_energy(problem, sigma)) == _bits(_matmul_form(problem, sigma))


@pytest.mark.kernel_bytes
def test_ising_energy_without_fields_matches_the_matmul_form_bit_for_bit():
    # a field term of +-0 fields is +0.0 whatever the spins, so ising_energy
    # skips its dot; every sign mix of zero fields, over couplings of
    # either zero, subnormal and near-overflow size, keeps the matmul bits
    rng = np.random.default_rng(38)
    pool = np.array([0.0, -0.0, 5e-324, -5e-324, 1e-310, -2.5e-320, 1e300, -1e300,
                     1.0, -0.5, 0.1, -3.7])
    for n in range(1, 5):
        for signs in product((0.0, -0.0), repeat=n):
            for _ in range(6):
                j = np.triu(rng.choice(pool, size=(n, n)), 1)
                problem = IsingProblem(h=np.array(signs), j=j + j.T)
                assert problem._neg_h is None
                _assert_matmul_bits(problem)
    # one field of the smallest subnormal is a field: it takes the dot,
    # and on zero couplings the energy is that field's product
    j = np.zeros((3, 3))
    problem = IsingProblem(h=np.array([0.0, 5e-324, -0.0]), j=j)
    assert problem._neg_h is not None
    _assert_matmul_bits(problem)
    assert ising_energy(problem, [1, 1, 1]) == -5e-324
    # the field term is built per instance, not a dataclass field
    assert [f.name for f in dataclasses.fields(IsingProblem)] == ["h", "j"]
    moved = dataclasses.replace(problem, h=np.zeros(3))
    assert moved._neg_h is None and ising_energy(moved, [1, 1, 1]) == 0.0
    _assert_matmul_bits(moved)
    back = dataclasses.replace(moved, h=np.array([2.0, -1.0, 0.0]))
    assert ising_energy(back, [1, 1, 1]) == -1.0
    _assert_matmul_bits(back)


@pytest.mark.kernel_bytes
def test_ising_energy_of_a_strided_row_is_the_contiguous_rows():
    # BLAS sums a strided vector in another order than a contiguous one,
    # so every configuration is dotted as a contiguous float copy
    rng = np.random.default_rng(7)
    n = 100
    j = np.triu(rng.normal(size=(n, n)) * 10.0 ** rng.integers(-5, 5, size=(n, n)), 1)
    problem = IsingProblem(h=rng.normal(size=n), j=j + j.T)
    for _ in range(20):
        wide = np.where(rng.random(2 * n) < 0.5, -1.0, 1.0)
        for view in (wide[::2], wide[:n][::-1]):
            assert _bits(ising_energy(problem, view)) == _bits(_matmul_form(problem, view))


SHAPE_MESSAGE = "spin configuration must be a non-empty 1-D sequence"
VALUE_MESSAGE = "spin values must be exactly -1 or +1"


@settings(deadline=None)
@given(
    st.integers(min_value=1, max_value=20),
    st.data(),
    st.sampled_from(
        [
            (np.int8, [0, 2, 127, -128, -2]),
            (np.int64, [0, 2, -3, 2**40]),
            (np.float64, [0.0, 2.0, math.nan, math.inf, -math.inf, 0.5,
                          1.0000000000000002, -0.9999999999999999]),
            (np.float32, [0.0, 2.0, math.nan, 1.0000001]),
            (np.complex128, [1j, -1j, 1 + 1j, 0.0]),
            (object, [None, "1", 0, 2.0]),
        ]
    ),
)
def test_as_spins_rejects_every_non_spin_value(n, data, case):
    dtype, bad_values = case
    spins = data.draw(st.lists(st.sampled_from([-1, 1]), min_size=n, max_size=n))
    problem = IsingProblem(h=np.zeros(n), j=np.zeros((n, n)))
    config = np.array(spins, dtype=dtype)
    if dtype is not np.complex128:  # casting complex to int8 warns
        assert np.array_equal(as_spins(config), spins)
    config[data.draw(st.integers(0, n - 1))] = data.draw(st.sampled_from(bad_values))
    for call in (as_spins, lambda c: ising_energy(problem, c)):
        with pytest.raises(ValueError) as err:
            call(config)
        assert str(err.value) == VALUE_MESSAGE


@pytest.mark.parametrize(
    "config, message",
    [
        ([1, 0, -1], VALUE_MESSAGE),
        ([1, 2], VALUE_MESSAGE),
        ([1.0, math.nan], VALUE_MESSAGE),
        (["1", "-1"], VALUE_MESSAGE),
        (np.array(["a", "b"]), VALUE_MESSAGE),
        (np.array([1, 255], dtype=np.uint8), VALUE_MESSAGE),
        (np.array([True, False]), VALUE_MESSAGE),
        ([[1, -1]], SHAPE_MESSAGE),
        ([], SHAPE_MESSAGE),
        (np.zeros(0, dtype=np.int8), SHAPE_MESSAGE),
        (1, SHAPE_MESSAGE),
    ],
)
def test_as_spins_messages(config, message):
    problem = IsingProblem(h=np.zeros(2), j=np.zeros((2, 2)))
    for call in (as_spins, lambda c: ising_energy(problem, c)):
        with pytest.raises(ValueError) as err:
            call(config)
        assert str(err.value) == message


def write_problem(tmp_path, doc, name="problem.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def test_load_problem_flat_matrix(tmp_path):
    path = write_problem(
        tmp_path,
        {"n": 2, "h": [0.0, 0.5], "J": [0.0, 1.5, 1.5, 0.0]},
    )
    prob = load_ising_problem(path)
    assert prob.n == 2
    assert prob.h[1] == 0.5
    assert prob.j[0, 1] == 1.5


def test_load_problem_sparse_triples(tmp_path):
    path = write_problem(
        tmp_path,
        {"n": 3, "h": [0, 0, 0], "J": [[0, 1, 1.0], [1, 2, -2.0]]},
    )
    prob = load_ising_problem(path)
    assert prob.j[0, 1] == 1.0 and prob.j[1, 0] == 1.0
    assert prob.j[1, 2] == -2.0
    assert prob.j[0, 2] == 0.0


def test_load_problem_empty_j_is_sparse_with_no_entries(tmp_path):
    # an empty J is zero [i, j, value] triples, so every coupling is zero;
    # a one-spin [0] is still the flat form, and a list mixing triples and
    # numbers still names its first non-triple entry
    for n in (1, 2, 4):
        prob = load_ising_problem(write_problem(tmp_path, {"n": n, "h": [0] * n, "J": []}))
        assert prob.j.shape == (n, n) and not prob.j.any()
    prob = load_ising_problem(write_problem(tmp_path, {"n": 1, "h": [0.5], "J": [0]}))
    assert prob.j.tolist() == [[0.0]] and prob.h.tolist() == [0.5]
    for j, entry in (([[0, 1, 1.0], 5], 1), ([5, [0, 1, 1.0]], 0)):
        with pytest.raises(ParseError, match=rf"field 'J entry {entry}': expected \[i, j, value\]"):
            load_ising_problem(write_problem(tmp_path, {"n": 2, "h": [0, 0], "J": j}))


@pytest.mark.parametrize(
    "doc, fragment",
    [
        ({"h": [0.0], "J": []}, "missing required field 'n'"),
        ({"n": 2, "h": [0.0], "J": [0, 0, 0, 0]}, "field 'h'"),
        ({"n": 2, "h": [0, 0], "J": [0.0, 1.0]}, "needs 4 numbers"),
        ({"n": 2, "h": [0, 0], "J": [0, 1, 2, 0]}, "symmetric"),
        ({"n": 2, "h": [0, 0], "J": [1, 0, 0, 0]}, "diagonal"),
        ({"n": 2, "h": [0, 0], "J": [[0, 2, 1.0]]}, "out of range"),
        ({"n": 2, "h": [0, 0], "J": [[0, 0, 1.0]]}, "diagonal"),
        ({"n": 2, "h": [0, 0], "J": [[0, 1, 1.0], [1, 0, 2.0]]}, "duplicate"),
        ({"n": 2, "h": [0, 0], "J": [[0, 1]]}, "entry 0"),
    ],
)
def test_load_problem_rejects_malformed(tmp_path, doc, fragment):
    path = write_problem(tmp_path, doc)
    with pytest.raises(ParseError) as err:
        load_ising_problem(path)
    assert fragment in str(err.value)


def test_load_problem_bad_json_names_line(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text('{"n": 2,\n  "h": [0, 0,\n}')
    with pytest.raises(ParseError) as err:
        load_ising_problem(str(path))
    assert "line" in str(err.value)


def test_load_problem_missing_file():
    with pytest.raises(ParseError):
        load_ising_problem("/nonexistent/problem.json")


def reference_sparse_j(n, triples):
    """The loader's sparse [i, j, value] checks, one entry at a time: the
    oracle for the array checks. Returns J, or the message of the first
    fault."""
    j = np.zeros((n, n))
    seen = set()
    for pos, (a, b, val) in enumerate(triples):
        field = f"field 'J entry {pos}'"
        if a != int(a) or b != int(b):
            return f"{field}: indices must be integers"
        a, b = int(a), int(b)
        if not (0 <= a < n and 0 <= b < n):
            return f"{field}: index out of range for n={n}"
        if a == b:
            return f"{field}: diagonal coupling not allowed"
        key = (min(a, b), max(a, b))
        if key in seen:
            return f"{field}: duplicate pair {key}"
        seen.add(key)
        j[a, b] = val
        j[b, a] = val
    return j


@st.composite
def sparse_problems(draw):
    """n and a list of [i, j, value] triples, valid or with faults injected:
    non-integral and out-of-range indices, diagonal entries and repeated
    pairs in either order, several to a list."""
    n = draw(st.integers(min_value=2, max_value=12))
    pairs = [(a, b) for a in range(n) for b in range(a + 1, n)]
    chosen = draw(st.lists(st.sampled_from(pairs), unique=True, min_size=1))
    values = st.one_of(st.integers(-5, 5), st.floats(-1e3, 1e3))
    triples = [
        [a, b, draw(values)] if draw(st.booleans()) else [b, a, draw(values)]
        for a, b in chosen
    ]
    # an index that is valid, out of range below or above, or not integral
    index = st.one_of(
        st.integers(0, n - 1),
        st.integers(-3, -1),
        st.integers(n, n + 3),
        st.integers(-2, n + 2).map(lambda k: k + 0.5),
    )
    for _ in range(draw(st.integers(0, 4))):
        fault = draw(st.sampled_from(["indices", "diagonal", "repeat", "reverse"]))
        if fault == "indices":
            entry = [draw(index), draw(index), 1.0]
        elif fault == "diagonal":
            k = draw(index)
            entry = [k, k, 1.0]
        else:
            a, b, _ = draw(st.sampled_from(triples))
            entry = [a, b, 2.0] if fault == "repeat" else [b, a, 2.0]
        if draw(st.booleans()):
            entry[:2] = map(float, entry[:2])  # integral floats are valid indices
        triples.insert(draw(st.integers(0, len(triples))), entry)
    return n, triples


@settings(deadline=None)
@given(sparse_problems())
def test_sparse_loader_matches_the_per_entry_checks(tmp_path_factory, problem):
    n, triples = problem
    path = str(tmp_path_factory.getbasetemp() / "sparse_problem.json")
    with open(path, "w") as fh:
        json.dump({"n": n, "h": [0.0] * n, "J": triples}, fh)
    want = reference_sparse_j(n, triples)
    if isinstance(want, str):
        with pytest.raises(ParseError) as err:
            load_ising_problem(path)
        assert str(err.value) == f"{path}: {want}"
    else:
        assert load_ising_problem(path).j.tobytes() == want.tobytes()
