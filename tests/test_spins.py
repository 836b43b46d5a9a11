"""Spin foundations: energies, QUBO mapping, parity, exhaustive search,
problem file parsing."""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jpotile.errors import CapacityError, ParseError
from jpotile.spins import (
    DEGENERACY_TOL,
    IsingProblem,
    QuboProblem,
    all_configs,
    as_spins,
    code_labels,
    enumerate_ground_states,
    indices_to_spins,
    ising_energy,
    load_ising_problem,
    parity,
    qubo_energy,
    qubo_to_ising,
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


def test_qubo_to_ising_single_variable():
    prob, offset = qubo_to_ising(QuboProblem(q=np.array([[0.0]])))
    assert prob.h[0] == 0.0 and offset == 0.0

    prob, offset = qubo_to_ising(QuboProblem(q=np.array([[1.0]])))
    assert prob.h[0] == -0.5 and offset == 0.5
    for bit in (0, 1):
        sigma = [2 * bit - 1]
        assert bit * 1.0 * bit == pytest.approx(
            ising_energy(prob, sigma) + offset
        )


def test_qubo_to_ising_exhaustive_equality():
    rng = np.random.default_rng(23)
    for _ in range(30):
        n = int(rng.integers(1, 5))
        q = rng.normal(size=(n, n))
        q = (q + q.T) / 2
        qubo = QuboProblem(q=q)
        ising, offset = qubo_to_ising(qubo)
        for idx in range(2**n):
            bits = [(idx >> (n - 1 - k)) & 1 for k in range(n)]
            sigma = [2 * b - 1 for b in bits]
            direct = qubo_energy(qubo, bits)
            mapped = ising_energy(ising, sigma) + offset
            assert direct == pytest.approx(mapped, rel=1e-12, abs=1e-12)


@settings(deadline=None)
@given(st.integers(min_value=1, max_value=8), st.data())
def test_qubo_to_ising_offset_is_exact_on_integer_q(n, data):
    entries = st.integers(min_value=-50, max_value=50)
    upper = np.array(data.draw(st.lists(entries, min_size=n * n, max_size=n * n)))
    q = np.triu(upper.reshape(n, n).astype(float))
    q = q + np.triu(q, 1).T
    bits = np.array(data.draw(st.lists(st.integers(0, 1), min_size=n, max_size=n)))
    qubo = QuboProblem(q=q)
    ising, offset = qubo_to_ising(qubo)
    # halves and quarters of small integers: every step is exact
    assert qubo_energy(qubo, bits) == ising_energy(ising, 2 * bits - 1) + offset


def test_qubo_rejects_asymmetric():
    with pytest.raises(ValueError):
        QuboProblem(q=np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_parity_values():
    assert parity([1, 1, 1, 1]) == 1
    assert parity([1, -1, 1, 1]) == -1
    assert parity([-1, -1]) == 1
    rng = np.random.default_rng(3)
    for _ in range(40):
        sigma = rng.choice([-1, 1], size=int(rng.integers(1, 10)))
        assert parity(sigma) == (-1) ** int(np.sum(sigma == -1))
    with pytest.raises(ValueError):
        parity([])


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


def test_enumerate_chunking_and_vectorized_agree():
    # integer couplings keep both energy callables exact, so the scalar
    # and vectorized paths must agree to the bit
    rng = np.random.default_rng(17)
    j = rng.integers(-4, 5, size=(8, 8)).astype(float)
    j = j + j.T
    np.fill_diagonal(j, 0.0)

    def scalar_energy(s):
        v = np.asarray(s, dtype=float)
        return float(-0.5 * v @ j @ v)

    def batch_energy(batch):
        v = np.asarray(batch, dtype=float)
        return -0.5 * np.einsum("mi,ij,mj->m", v, j, v)

    ref = enumerate_ground_states(scalar_energy, 8)
    for chunk in (1, 3, 64, 1 << 16):
        assert enumerate_ground_states(scalar_energy, 8, chunk_size=chunk) == ref
    assert enumerate_ground_states(batch_energy, 8, vectorized=True) == ref


def test_enumerate_ground_closed_under_flip_when_symmetric():
    rng = np.random.default_rng(29)
    j = rng.normal(size=(5, 5))
    j = j + j.T
    np.fill_diagonal(j, 0.0)

    def energy(s):
        v = np.asarray(s, dtype=float)
        return float(-0.5 * v @ j @ v)

    e, ground = enumerate_ground_states(energy, 5)
    for g in ground:
        flipped = tuple(-v for v in g)
        assert flipped in ground
        assert abs(energy(np.array(flipped)) - e) <= DEGENERACY_TOL


def test_enumerate_capacity_and_validation():
    with pytest.raises(CapacityError):
        enumerate_ground_states(lambda s: 0.0, 25)
    with pytest.raises(ValueError):
        enumerate_ground_states(lambda s: 0.0, 0)
    with pytest.raises(ValueError):
        enumerate_ground_states(lambda s: 0.0, 2, tol=-1.0)


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
