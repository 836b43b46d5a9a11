"""Quantum model of the six-oscillator tile.

The Hamiltonian acts on six two-level systems (four logical, two ancilla)
in the computational z basis, spin 1 most significant, ancillas last:

    H = sum_{i=1..4} J_i Z_i - (J_a X_5 + J_a X_6 + J_C) Z_1 Z_2 Z_3 Z_4

Basis index bits follow the package convention bit 1 <-> spin +1, so the
single-site z operator is diag(-1, +1). Thermal disorder enters as a
random diagonal operator added to H before diagonalization.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .errors import EigensolverError
from .spins import all_configs, code_labels

N_SPINS = 6
DIM = 64
RELATIVE_DEGENERACY_TOL = 1e-9
SUPPORT_TOL = 1e-12

# site basis: index bit 0 -> spin -1, bit 1 -> spin +1
_Z = np.array([[-1.0, 0.0], [0.0, 1.0]])
_X = np.array([[0.0, 1.0], [1.0, 0.0]])
_I = np.eye(2)


def _kron_chain(factors: Sequence[np.ndarray]) -> np.ndarray:
    out = factors[0]
    for f in factors[1:]:
        out = np.kron(out, f)
    return out


def _site_term(ops: dict[int, np.ndarray]) -> np.ndarray:
    return _kron_chain([ops.get(site, _I) for site in range(N_SPINS)])


def build_hamiltonian(
    j: Sequence[float], j_a: float, j_c: float
) -> np.ndarray:
    """Assemble the 64 x 64 tile Hamiltonian by Kronecker products."""
    j = tuple(float(v) for v in j)
    if len(j) != 4:
        raise ValueError("j must hold exactly 4 field values")
    h = np.zeros((DIM, DIM))
    for i, ji in enumerate(j):
        if ji != 0.0:
            h += ji * _site_term({i: _Z})
    z_logical = {i: _Z for i in range(4)}
    h -= float(j_a) * _site_term({**z_logical, 4: _X})
    h -= float(j_a) * _site_term({**z_logical, 5: _X})
    h -= float(j_c) * _site_term(z_logical)
    return h


def ground_states(
    h: np.ndarray, tol: Optional[float] = None
) -> tuple[float, np.ndarray]:
    """Ground energy and per-basis-state weight of the ground subspace.

    Weights come from an orthonormal basis of the degenerate subspace
    (eigenvalues within tol of the minimum, default 1e-9 of the spectral
    range) and are invariant under rotations inside it. They sum to 1.
    """
    h = np.asarray(h, dtype=float)
    if h.shape != (DIM, DIM):
        raise ValueError(f"expected a {DIM} x {DIM} matrix, got {h.shape}")
    if not np.allclose(h, h.T, atol=0.0, rtol=0.0):
        raise ValueError("Hamiltonian must be symmetric")
    try:
        evals, evecs = np.linalg.eigh(h)
    except np.linalg.LinAlgError as exc:
        raise EigensolverError(f"dense symmetric eigensolver failed: {exc}") from exc
    e_min = float(evals[0])
    if tol is None:
        tol = RELATIVE_DEGENERACY_TOL * float(evals[-1] - evals[0])
    members = np.nonzero(evals <= e_min + tol)[0]
    sub = evecs[:, members]
    weights = (sub**2).sum(axis=1) / members.size
    return e_min, weights


def spectral_gap(h: np.ndarray, tol: Optional[float] = None) -> float:
    """Distance from the ground level to the next distinct eigenvalue."""
    h = np.asarray(h, dtype=float)
    try:
        evals = np.linalg.eigvalsh(h)
    except np.linalg.LinAlgError as exc:
        raise EigensolverError(f"dense symmetric eigensolver failed: {exc}") from exc
    e_min = float(evals[0])
    if tol is None:
        tol = RELATIVE_DEGENERACY_TOL * float(evals[-1] - evals[0])
    above = evals[evals > e_min + tol]
    if above.size == 0:
        return 0.0
    return float(above[0] - e_min)


def closed_form_ground_energy(j: Sequence[float], j_a: float, j_c: float) -> float:
    """Independent ground-energy formula for j_a >= 0.

    The ancilla x operators commute with everything else and contribute
    -2 j_a at their extremal joint eigenvalue, leaving a classical minimum
    over the 16 logical assignments.
    """
    j = np.asarray(tuple(float(v) for v in j))
    if j.size != 4:
        raise ValueError("j must hold exactly 4 field values")
    best = np.inf
    for s in all_configs(4).astype(float):
        pi = float(np.prod(s))
        best = min(best, float(j @ s - pi * float(j_c)))
    return best - 2.0 * float(j_a)


@dataclass(frozen=True)
class NoiseSpec:
    """Random diagonal disorder: coefficient times i.i.d. draws per basis state.

    seed accepts an int, None, or a numpy SeedSequence.
    """

    thermal_coefficient: float = 0.0
    distribution: str = "uniform"
    seed: Optional[int | np.random.SeedSequence] = None

    def __post_init__(self):
        if self.thermal_coefficient < 0:
            raise ValueError("thermal_coefficient must be >= 0")
        if self.distribution not in ("uniform", "normal"):
            raise ValueError("distribution must be 'uniform' or 'normal'")

    def seed_sequence(self) -> np.random.SeedSequence:
        if isinstance(self.seed, np.random.SeedSequence):
            return self.seed
        return np.random.SeedSequence(self.seed)

    def draw(self, rng: np.random.Generator) -> np.ndarray:
        if self.distribution == "uniform":
            raw = rng.uniform(-1.0, 1.0, DIM)
        else:
            raw = rng.standard_normal(DIM)
        return self.thermal_coefficient * raw


@dataclass(frozen=True)
class StateDistribution:
    """Probabilities over the 16 logical states, indexed by state code;
    support and as_dict name them by label, '0000'..'1111'."""

    probabilities: np.ndarray

    def __post_init__(self):
        p = np.asarray(self.probabilities, dtype=float)
        if p.shape != (16,):
            raise ValueError("probabilities must have shape (16,)")
        if np.any(p < -1e-12) or abs(float(p.sum()) - 1.0) > 1e-9:
            raise ValueError("probabilities must be nonnegative and sum to 1")
        p.setflags(write=False)
        object.__setattr__(self, "probabilities", p)

    def support(self, tol: float = SUPPORT_TOL) -> set[str]:
        return set(code_labels(np.flatnonzero(self.probabilities > tol), 4))

    def as_dict(self) -> dict[str, float]:
        return dict(zip(code_labels(range(16), 4), self.probabilities.tolist()))


def _logical_marginal(weights: np.ndarray) -> np.ndarray:
    # ancilla bits are least significant in the basis index
    return weights.reshape(16, 4).sum(axis=1)


def logical_distribution(
    j: Sequence[float],
    j_a: float,
    j_c: float,
    noise: Optional[NoiseSpec] = None,
    trials: int = 1,
) -> StateDistribution:
    """Trial-averaged ground-subspace distribution over the logical states.

    Each trial adds one draw of the diagonal disorder, diagonalizes, and
    accumulates the ground-subspace weight marginalized over the ancillas.
    Per-trial RNG streams are split from the seed by index, so the result
    does not depend on how trials are batched.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    noise = noise or NoiseSpec(0.0)
    h = build_hamiltonian(j, j_a, j_c)
    if noise.thermal_coefficient == 0.0:
        _, weights = ground_states(h)
        return StateDistribution(_logical_marginal(weights))
    # one child per trial as it runs: spawn continues the child counter, so
    # these are the streams spawn(trials) would give, without holding them all
    root = noise.seed_sequence()
    acc = np.zeros(16)
    for _ in range(trials):
        rng = np.random.default_rng(root.spawn(1)[0])
        perturbed = h + np.diag(noise.draw(rng))
        _, weights = ground_states(perturbed)
        acc += _logical_marginal(weights)
    return StateDistribution(acc / trials)


def default_field_sweep(j_c: float) -> list[np.ndarray]:
    """Field grid covering the degenerate point and all sign patterns of
    magnitude j_c / 4: one zero vector plus 16 signed vectors."""
    signs = all_configs(4).astype(float)
    return [np.zeros(4)] + list(signs * (float(j_c) / 4.0))


def sweep_distribution(
    j_a: float,
    j_c: float,
    field_vectors: Optional[Sequence[np.ndarray]] = None,
    noise: Optional[NoiseSpec] = None,
    trials: int = 1,
) -> StateDistribution:
    """Average of logical_distribution over a grid of field vectors.

    Each vector gets its own deterministic noise sub-stream, so the sweep
    result is reproducible and independent of iteration batching.
    """
    if field_vectors is None:
        field_vectors = default_field_sweep(j_c)
    field_vectors = list(field_vectors)
    if not field_vectors:
        raise ValueError("field_vectors must not be empty")
    noise = noise or NoiseSpec(0.0)
    sub_seeds = noise.seed_sequence().spawn(len(field_vectors))
    acc = np.zeros(16)
    for vec, ss in zip(field_vectors, sub_seeds):
        sub_noise = NoiseSpec(
            thermal_coefficient=noise.thermal_coefficient,
            distribution=noise.distribution,
            seed=ss,
        )
        dist = logical_distribution(vec, j_a, j_c, noise=sub_noise, trials=trials)
        acc += dist.probabilities
    return StateDistribution(acc / len(field_vectors))
