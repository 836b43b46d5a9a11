"""Quantum model of the six-oscillator tile.

The Hamiltonian acts on six two-level systems (four logical, two ancilla)
in the computational z basis, spin 1 most significant, ancillas last:

    H = sum_{i=1..4} J_i Z_i - (J_a X_5 + J_a X_6 + J_C) Z_1 Z_2 Z_3 Z_4

Basis index bits follow the package convention bit 1 <-> spin +1, so the
single-site z operator is diag(-1, +1). Thermal disorder enters as a
random diagonal operator added to H before diagonalization. H, disorder
included, commutes with Z_1..Z_4, so it is 16 blocks of 4 x 4, each
diag(d) - s F with F the ancilla-flip matrix, kept as the pair (d, s).
logical_distribution and sweep_distribution run their trials through one
loop (_field_average), a noise-free tile as one pass of one trial with zero
disorder. A pass holds its trials' diagonals stack-last, (4, 16, stacks),
in one buffer it reuses, from the bounds that certify most trials with no
eigensolve (_certify) to the solve of the blocks of the others that can
hold a ground level (_ground_counts). There is one eigensolver, LAPACK's
eigh on the 4 x 4 blocks, so ground_states, spectral_gap and
logical_distribution classify the same levels.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .errors import EigensolverError
from .spins import DEGENERACY_TOL, all_configs, code_labels, ground_mask, indices_to_spins

DIM = 64
SUPPORT_TOL = 1e-12
_TRIAL_CHUNK = 512  # trial stacks per pass, summed over the field vectors
_TINY = np.finfo(float).tiny

# H commutes with Z_1..Z_4, so it splits into 16 blocks of 4 x 4, one per
# logical state L, over the ancilla pair: basis index = 4 * L + ancilla.
_LOGICAL = indices_to_spins(np.arange(16), 4).astype(float)
_PARITY = _LOGICAL.prod(axis=1)
# X_5 and X_6 flip the ancilla bits of value 2 and 1
_ANCILLA_FLIPS = np.isin(np.arange(4)[:, None] ^ np.arange(4), (1, 2)).astype(float)
_BLOCK = np.arange(16)
_OFF_BLOCK = ~np.kron(np.eye(16, dtype=bool), np.ones((4, 4), dtype=bool))


def _tile_blocks(j: Sequence, j_a: float, j_c: float) -> tuple[np.ndarray, np.ndarray]:
    """The 16 diagonal blocks of H by logical state code, diag(e) - s F with
    e on all four ancilla entries, for a stack j (..., 4) of field vectors:
    each block's energy e (..., 16) and s = j_a * parity (16,)."""
    j = np.asarray(j, dtype=float)
    if j.shape[-1:] != (4,):
        raise ValueError("j must hold exactly 4 field values")
    e = (_LOGICAL * j[..., None, :]).sum(axis=-1) - float(j_c) * _PARITY
    return e, float(j_a) * _PARITY


def _as_blocks(d: np.ndarray, s: np.ndarray) -> np.ndarray:
    """The 4 x 4 blocks diag(d) - s F of diagonals d (..., 4) and s (...)."""
    return d[..., None] * np.eye(4) - s[..., None, None] * _ANCILLA_FLIPS


def build_hamiltonian(j: Sequence[float], j_a: float, j_c: float) -> np.ndarray:
    """The dense 64 x 64 tile Hamiltonian, its blocks placed on the diagonal."""
    h = np.zeros((DIM, DIM))
    e, s = _tile_blocks(j, j_a, j_c)
    h.reshape(16, 4, 16, 4)[_BLOCK, :, _BLOCK, :] = _as_blocks(e[:, None], s)
    return h


def _blocks_of(h: np.ndarray) -> np.ndarray:
    """Validate a dense tile Hamiltonian and return its (16, 4, 4) blocks."""
    h = np.asarray(h, dtype=float)
    if h.shape != (DIM, DIM):
        raise ValueError(f"expected a {DIM} x {DIM} matrix, got {h.shape}")
    if not np.all(np.isfinite(h)):
        raise ValueError("Hamiltonian entries must be finite")
    if not np.array_equal(h, h.T):
        raise ValueError("Hamiltonian must be symmetric")
    if np.any(h[_OFF_BLOCK]):
        raise ValueError(
            "Hamiltonian couples logical states; it must commute with Z_1..Z_4")
    return h.reshape(16, 4, 16, 4)[_BLOCK, :, _BLOCK, :]


def _solve(blocks: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Levels and eigenvectors of a stack of blocks: the one eigensolver."""
    try:
        return np.linalg.eigh(blocks)
    except np.linalg.LinAlgError as exc:
        raise EigensolverError(f"symmetric block eigensolver failed: {exc}") from exc


def ground_states(h: np.ndarray) -> tuple[float, np.ndarray]:
    """Ground energy and per-basis-state weight of the ground subspace.

    Weights come from an orthonormal basis of the degenerate subspace (the
    eigenvalues spins.ground_mask counts as degenerate with the minimum)
    and are invariant under rotations inside it. They sum to 1.
    h must not couple logical states (ValueError otherwise).
    """
    evals, evecs = _solve(_blocks_of(h))
    ground = ground_mask(evals, axis=(-2, -1))
    weights = (evecs**2 * ground[:, None, :]).sum(axis=2).ravel() / ground.sum()
    return float(evals.min()), weights


def spectral_gap(h: np.ndarray) -> float:
    """Distance from the ground level to the next distinct eigenvalue, over
    the levels whose ground set ground_states uses."""
    evals = _solve(_blocks_of(h))[0]
    above = evals[~ground_mask(evals, axis=(-2, -1))]
    return float(above.min() - evals.min()) if above.size else 0.0


def closed_form_ground_energy(j: Sequence[float], j_a: float, j_c: float) -> float:
    """Independent ground-energy formula for j_a >= 0.

    The ancilla x operators commute with everything else and contribute
    -2 j_a at their extremal joint eigenvalue, leaving a classical minimum
    over the 16 logical assignments.
    """
    j = np.asarray(tuple(float(v) for v in j))
    if j.size != 4:
        raise ValueError("j must hold exactly 4 field values")
    s = all_configs(4).astype(float)
    classical = (s * j).sum(axis=1) - s.prod(axis=1) * float(j_c)
    return float(classical.min()) - 2.0 * float(j_a)


@dataclass(frozen=True)
class NoiseSpec:
    """Random diagonal disorder: coefficient times i.i.d. draws per basis
    state. seed is an int, None or a numpy SeedSequence; seed_sequence hands
    out a fresh copy of the latter, so spawning never advances the caller's."""

    thermal_coefficient: float = 0.0
    distribution: str = "uniform"
    seed: Optional[int | np.random.SeedSequence] = None

    def __post_init__(self):
        if not 0 <= self.thermal_coefficient < math.inf:  # NaN fails too
            raise ValueError("thermal_coefficient must be >= 0 and finite")
        if self.distribution not in ("uniform", "normal"):
            raise ValueError("distribution must be 'uniform' or 'normal'")

    def seed_sequence(self) -> np.random.SeedSequence:
        if isinstance(self.seed, np.random.SeedSequence):
            return np.random.SeedSequence(**dict(self.seed.state, n_children_spawned=0))
        return np.random.SeedSequence(self.seed)

    def draw(self, rng: np.random.Generator, trials: int) -> np.ndarray:
        """(trials, DIM) disorder. Draws that follow one another from one
        rng concatenate, so the rows do not depend on how trials are split."""
        if self.distribution == "uniform":
            raw = rng.uniform(-1.0, 1.0, (trials, DIM))
        else:
            raw = rng.standard_normal((trials, DIM))
        return self.thermal_coefficient * raw


@dataclass(frozen=True)
class StateDistribution:
    """Probabilities over the 16 logical states, indexed by state code, kept
    as a read-only copy; support and as_dict name them by label,
    '0000'..'1111'."""

    probabilities: np.ndarray

    def __post_init__(self):
        p = np.array(self.probabilities, dtype=float)
        if p.shape != (16,):
            raise ValueError("probabilities must have shape (16,)")
        # NaN compares False, so it must be caught before the sign and sum tests
        if not np.all(np.isfinite(p)) or np.any(p < -1e-12) or abs(float(p.sum()) - 1.0) > 1e-9:
            raise ValueError("probabilities must be finite, nonnegative and sum to 1")
        p.setflags(write=False)
        object.__setattr__(self, "probabilities", p)

    def support(self) -> set[str]:
        return set(code_labels(np.flatnonzero(self.probabilities > SUPPORT_TOL), 4))

    def as_dict(self) -> dict[str, float]:
        return dict(zip(code_labels(range(16), 4), self.probabilities.tolist()))


def _certify(diag: np.ndarray, s: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per stack of diagonals diag (4, 16, stacks), ancilla entry by block by
    stack, and flip weights s (16, stacks) or (16, 1): whether the bounds
    certify the stack (stacks,), which of its blocks they let hold a ground
    level (16, stacks), and the two ends of a bracket on its highest level,
    (2, stacks).

    A block is diag(d) - s F, and the ancilla-flip matrix F has levels
    -2, 0, 0, 2; its level-2 sign(s) vector v and its level -2 sign(s)
    vector w have entries +-1/2. So each block's levels are bounded from d
    and s alone:
    - the lowest lies at most rho = mean(d) - 2|s|, v's Rayleigh quotient;
    - the lowest lies at least rho - var(d) / (min d - rho) by Temple's
      inequality, where min d lies above rho by more than the margin below:
      (B - rho) v = (diag(d) - mean(d)) v has squared norm var(d), and min d
      bounds the second level from below (Weyl's inequality). Elsewhere it
      lies at least min d - 2|s| (Weyl);
    - the highest lies at most max d + 2|s| (Weyl), and at least
      mean(d) + 2|s|, w's Rayleigh quotient.
    The stack's threshold lo + DEGENERACY_TOL (hi - lo) is at most the cap
    those upper bounds give. A block whose lower bound lies above the cap
    plus a margin holds no ground level. When all blocks but one do, and the
    bound on the stack's range is finite (a solve raises on a range that is
    not), the stack is certified: that one block holds every ground level,
    so its weight is 1.0 and the others' 0.0, the bytes that counts /
    counts.sum() gives, with no eigensolve.

    A stack the bounds decline solves only its candidate blocks, one of
    which holds lo (_ground_counts). Its hi lies between the largest of the
    blocks' lower and the largest of their upper bounds on their highest
    level, each widened by the margin. The threshold, computed as
    lo + DEGENERACY_TOL * (h - lo), never decreases as h grows, since each
    rounded operation is monotone. So a level at or below the threshold of
    the bracket's low end counts as ground for every hi in the bracket,
    LAPACK's own included, and a level above the threshold of its high end
    never does. A stack with a level between the two, or with a bracket
    that is not finite, solves all 16 blocks.

    The margin is 1e-12 times scale, the largest |d| plus 2|s|, which
    bounds every |d| and the norm of every block, and never less than the
    smallest normal float, which covers the absolute rounding of subnormal
    numbers. Rounding moves rho, the cap and the bracket by ~4 eps scale.
    Temple's correction is taken in units of scale, where each squared
    deviation is at most 4 and none underflows by more than 1e-307
    scale**2. So the computed variance is d's about the computed mean, no
    smaller than var(d) less ~8 eps of it and less 1e-307 scale**2.
    Temple's denominator is reduced by the margin, so it stays below the
    exact min d - rho, and the quotient, at most ~2 scale on a bound above
    the cap, loses ~12 eps of itself. LAPACK's levels lie within a small
    multiple of eps scale of the exact ones. All of it is far under the
    margin, so a level the bounds place beyond the margin, every solve
    places beyond the threshold, and every solve's hi lies in the bracket.
    A near-tie at the threshold declines the certificate and is solved, as
    is a stack whose bounds are NaN or infinite.
    """
    # with the stacks last and contiguous, every bound is an elementwise op
    # along them and every reduction runs over a leading axis, the sum over
    # the four ancilla entries left to right
    reach = 2.0 * np.abs(s)  # 2|s|, the norm of s F
    low, high = diag.min(axis=0), diag.max(axis=0)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        scale = np.maximum(high, -low).max(axis=0) + reach.max(axis=0)
        # never below the smallest normal float: on subnormal entries every
        # operation rounds by up to half of 2**-1074, whatever the scale
        margin = np.maximum(1e-12 * scale, _TINY)
        mean = diag.sum(axis=0) / 4.0
        rho = mean - reach
        # Temple's correction in units of scale, where no square underflows;
        # sum adds the four entries' squares left to right, after an exact 0
        var = sum(np.square((entry - mean) / scale) for entry in diag) / 4.0
        temple_gap = (low - rho - margin) / scale  # its denominator, less the margin
        floor = np.where(temple_gap > 0.0, rho - scale * (var / temple_gap), low - reach)
        lo_cap = rho.min(axis=0)
        top_cap = (high + reach).max(axis=0)
        threshold_cap = lo_cap + DEGENERACY_TOL * (top_cap - lo_cap)
        # a NaN bound compares False: its block may hold a ground level, and
        # the NaN range bound declines the certificate
        candidates = ~(floor > threshold_cap + margin)
        span = top_cap - floor.min(axis=0) + margin
        certified = (candidates.sum(axis=0) == 1) & np.isfinite(span)
        top_floor = (mean + reach).max(axis=0)
        top = np.stack((top_floor - margin, top_cap + margin))
    return certified, candidates, top


def _ground_counts(
    diag: np.ndarray, s: np.ndarray, candidates: np.ndarray, top: np.ndarray
) -> np.ndarray:
    """Each block's count of ground levels (16, stacks), per stack the bounds
    decline, in _certify's layout: diag (4, 16, stacks), s and candidates
    (16, stacks), top (2, stacks). From a solve of its candidate blocks, or of
    all 16 where the bracket top on its highest level leaves a candidate
    level's side open (_certify)."""
    levels = np.full(diag.shape, np.inf)  # a block not solved holds no ground level
    levels[:, candidates] = _solve(_as_blocks(diag[:, candidates].T, s[candidates]))[0].T
    with np.errstate(over="ignore", invalid="ignore"):
        lo = levels.min(axis=(0, 1))
        # ground_mask's threshold at each end of the bracket, raised to lo,
        # which hi never lies below
        ends = lo + DEGENERACY_TOL * (np.maximum(top, lo) - lo)
        ground = levels <= ends[0]
        settled = (ground | (levels > ends[1])).all(axis=(0, 1))
        settled &= np.isfinite(ends).all(axis=0)
    counts = ground.sum(axis=0)
    unsettled = np.flatnonzero(~settled)
    if unsettled.size:
        levels = _solve(_as_blocks(diag[..., unsettled].T, s[:, unsettled].T))[0]
        counts[:, unsettled] = ground_mask(levels, axis=(-2, -1)).sum(axis=-1).T
    return counts


def _stack_weights(diag: np.ndarray, s: np.ndarray) -> np.ndarray:
    """Ground-subspace weight of each logical state (16, stacks), per stack of
    blocks diag(d) - s F, with diag (4, 16, stacks) C-contiguous and s
    (16, stacks) or (16, 1): eigenvectors stay inside their block and are
    normalised, so it is the block's count of ground-level eigenvalues over
    the total count. A pass of _field_average is the one caller; the stacks
    the bounds decline go to _ground_counts, gathered in the same layout."""
    # a function of its own, so the bounds' temporaries are freed before the solve
    certified, candidates, top = _certify(diag, s)
    weights = candidates.astype(float)  # a certified stack's one candidate block
    rest = np.flatnonzero(~certified)
    if rest.size:
        s = np.broadcast_to(s, candidates.shape)
        counts = _ground_counts(*(a[..., rest] for a in (diag, s, candidates, top)))
        weights[:, rest] = counts / counts.sum(axis=0)
    return weights


def _field_average(
    fields: Sequence[Sequence[float]], j_a: float, j_c: float, noise: NoiseSpec,
    trials: int, streams: Sequence[np.random.SeedSequence],
) -> StateDistribution:
    """Mean over field vectors of each one's trial-averaged ground-subspace
    distribution, the trials of fields[k] drawing in order from streams[k].

    The one trial loop: a pass takes the next _TRIAL_CHUNK // len(fields)
    trials (at least one) of every vector and adds their draws to the block
    energies e straight into one stack-last buffer, (4, 16, vectors,
    trials), that every pass reuses. Without disorder it runs one pass of
    one trial, which draws nothing and adds -0.0, keeping every bit of e.
    Each vector's weights are summed in trial order and the vectors'
    averages are then summed in order, so the result does not depend on how
    trials are batched.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    e, s = _tile_blocks(fields, j_a, j_c)
    noisy = noise.thermal_coefficient > 0.0
    runs = trials if noisy else 1
    rngs = [np.random.default_rng(seq) for seq in streams] if noisy else [None] * len(fields)
    per_pass = min(max(1, _TRIAL_CHUNK // len(fields)), runs)
    buffer = np.empty(DIM * len(fields) * per_pass)
    acc = np.zeros((16, len(fields), 1))
    for start in range(0, runs, per_pass):
        m = min(per_pass, runs - start)
        # entry by block by vector by trial: a partial pass takes the front
        diag = buffer[: DIM * len(fields) * m].reshape(4, 16, len(fields), m)
        for k, rng in enumerate(rngs):
            draws = noise.draw(rng, m).reshape(m, 16, 4).T if noisy else -0.0
            np.add(e[k][:, None], draws, out=diag[:, :, k])
        weights = _stack_weights(diag.reshape(4, 16, -1), s[:, None]).reshape(diag.shape[1:])
        acc = np.concatenate((acc, weights), axis=-1).cumsum(axis=-1)[..., -1:]
    means = acc[..., 0].T / runs
    total = np.concatenate((np.zeros((1, 16)), means)).cumsum(axis=0)[-1]
    return StateDistribution(total / len(fields))


def logical_distribution(
    j: Sequence[float],
    j_a: float,
    j_c: float,
    noise: Optional[NoiseSpec] = None,
    trials: int = 1,
) -> StateDistribution:
    """Trial-averaged ground-subspace distribution over the logical states.

    Each trial adds one draw of the diagonal disorder to the blocks of H and
    takes the ground-subspace weight of each logical state. Trials draw in
    order from one stream seeded by noise and their weights are summed in
    trial order, so the result does not depend on how trials are batched.
    """
    noise = noise or NoiseSpec(0.0)
    return _field_average([j], j_a, j_c, noise, trials, [noise.seed_sequence()])


def default_field_sweep(j_c: float) -> list[np.ndarray]:
    """Field grid covering the degenerate point and all sign patterns of
    magnitude j_c / 4: one zero vector plus 16 signed vectors."""
    return [np.zeros(4)] + list(all_configs(4) * (float(j_c) / 4.0))


def sweep_distribution(
    j_a: float,
    j_c: float,
    noise: Optional[NoiseSpec] = None,
    trials: int = 1,
) -> StateDistribution:
    """Average of logical_distribution over the field vectors of
    default_field_sweep(j_c).

    Each vector gets its own deterministic noise sub-stream, so the sweep
    result is reproducible and independent of iteration batching. All
    vectors' trials run through one chunk loop.
    """
    vectors = default_field_sweep(j_c)
    noise = noise or NoiseSpec(0.0)
    streams = noise.seed_sequence().spawn(len(vectors))
    return _field_average(vectors, j_a, j_c, noise, trials, streams)
