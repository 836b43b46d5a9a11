"""Mean-field annealing dynamics of the six-oscillator tile.

Each oscillator is reduced to one slowly varying in-phase amplitude c_i.
Above the parametric threshold an isolated amplitude settles into one of
two wells at +-sqrt(p - 1); couplings bias which well wins. The ensemble
integrates the Langevin system

    dc_i = [(p(t) - 1 - c_i^2) c_i - beta * dE/dc_i] dt + eta * dW_i

by the simplified weak Euler scheme (Kloeden & Platen, Numerical Solution
of Stochastic Differential Equations, 1992, sec. 14.1): an Euler step whose
Wiener increment is +-sqrt(dt), each sign with probability 1/2, in place of
an N(0, dt) draw. It has weak order 1, as Euler-Maruyama does, and the
readout histogram is a weak functional of the final state: over 10**5
trials of five programs the two laws' histograms agree by a chi-square
test (BENCH_anneal_noise.json). The signs are the bits of each trial's raw
generator words (_noise_block). With E' = beta dt E and the pump factor
a_k = 1 + (p(t_k) - 1) dt, step k is c_i <- c_i (a_k - dt c_i^2) - dE'/dc_i
+ n_i, clamped to +-c_sat. Of a logical c_i, dE'/dc_i is J'_i c_ref less the
ancilla bracket times the other three's product, paired (1,3)(2,4):
c_3 (c_2 c_4), c_4 (c_1 c_3), c_1 (c_2 c_4) and c_2 (c_1 c_3).

The pump p(t) ramps linearly from below threshold to p_end. E is the tile
energy with spins relaxed to real amplitudes. A seventh reference
oscillator carries the field terms as J_i * c_ref * c_i, which restores
the physical sign freedom of a phase-coded machine: states and their
global complements appear with equal probability, and readout relative to
the reference recovers the programmed tile minimum.

Couplings are programmed by pump phase: a coupling of full magnitude
j_max is scaled by cos(delta_theta) of the phase offset between oscillator
and coupler. Ancilla couplings default to twice the logical magnitude.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .circuit import K_B
from .errors import AmbiguousPhaseError, InsufficientDataError, IntegrationBlowupError
from .spins import code_labels
from .tile import TILE_STATES, TileConfig, TileParams

DEFAULT_BETA = 0.2       # gradient coupling strength
DEFAULT_ETA = 0.05       # per-step noise is +-eta * sqrt(dt)
INIT_AMPLITUDE_STD = 0.02
N_OSC = 7                # four logical, two ancilla, one reference
MAX_STEPS = 10**7        # longest accepted schedule, in Euler steps
MAX_TRIALS = 10**7       # largest accepted ensemble
NOISE_BLOCK = 256        # noise steps drawn per generator call
NOISE_WORDS = NOISE_BLOCK * N_OSC // 64  # random_raw words of one noise block, 1 bit an increment
NARROW_BATCH = 7         # narrower batches run on Python floats. A batch step took 6.9-7.3 us on
                         # floats and 7.7-8.2 on rows at m = 6, 7.8-8.6 and 7.4-8.2 at m = 7
                         # (medians of 21-41 interleaved runs): Python won at m <= 6
# default trials per run_trials batch. Per trial-step in us, best of 6 runs of
# 4,681 trials on a 2-vCPU VM (tests/anneal_steps.py), whose runs differ by up to
# 25 % per cell; no batch gained that much on 512, which holds 7 MB of noise buffer:
#   batch          128    256    512    768  1,024  2,048  4,681
#   1,000 steps  0.113  0.093  0.084  0.077  0.078  0.076  0.086
#   5,000 steps  0.106  0.079  0.070  0.066  0.066  0.064  0.064
TRIAL_CHUNK = 512


def coupling_from_phase(j_max: float, delta_theta: float) -> float:
    """Effective coupling of a phase-programmed element: j_max * cos(delta)."""
    return float(j_max) * math.cos(delta_theta)


def johnson_noise_amplitude(r: float, t: float) -> float:
    """Thermal current-noise scale sqrt(4 R T k_B) of a resistive shunt."""
    if not 0 < r < math.inf:
        raise ValueError("r must be finite and > 0")
    if not 0 <= t < math.inf:
        raise ValueError("t must be finite and >= 0")
    power = 4.0 * r * t * K_B
    if power == math.inf:  # its root stays below ~1.3e297 for any finite r, t
        return 2.0 * math.sqrt(r) * math.sqrt(t * K_B)
    return math.sqrt(power)


@dataclass(frozen=True)
class AnnealSchedule:
    """Pump ramp: linear from p_start to p_end over the given duration.

    Time is measured in oscillator relaxation units; dt must divide the
    duration into at least 10 and at most MAX_STEPS steps.
    """

    duration: float = 50.0
    dt: float = 1e-2
    p_start: float = 0.5
    p_end: float = 2.0

    def __post_init__(self):
        if not self.dt > 0:
            raise ValueError("dt must be > 0")
        if not -math.inf < self.p_start < 1.0:
            raise ValueError("p_start must be finite and below threshold (p=1)")
        if not 1.0 < self.p_end < math.inf:
            raise ValueError("p_end must be finite and above threshold (p=1)")
        if self.p_end - self.p_start == math.inf:  # so every pump gain is finite
            raise ValueError("p_end - p_start must be finite")
        steps = self.duration / self.dt
        if not 0 <= steps <= MAX_STEPS:  # -inf passes the upper bound, and round() refuses it
            raise ValueError(f"duration / dt must be >= 0 and at most {MAX_STEPS} steps")
        if abs(steps - round(steps)) > 1e-9 or round(steps) < 10:
            raise ValueError("duration must be an integer multiple of dt, >= 10 steps")

    @property
    def n_steps(self) -> int:
        return int(round(self.duration / self.dt))

    def pump(self, t: float | np.ndarray) -> float | np.ndarray:
        frac = np.clip(np.divide(t, self.duration), 0.0, 1.0)
        return self.p_start + (self.p_end - self.p_start) * frac

    @property
    def c_thresh(self) -> float:
        """Settling threshold: half the final free-running amplitude."""
        return 0.5 * math.sqrt(self.p_end - 1.0)

    @property
    def c_sat(self) -> float:
        """Amplitude clamp: 1.5x the final free-running amplitude."""
        return 1.5 * math.sqrt(self.p_end - 1.0)


@dataclass(frozen=True)
class CouplingProgram:
    """Phase programming of one tile run.

    pump_phase holds six phases (four logical, two ancilla) measured
    against coupler_offset_phase. j_max scales logical couplings; ancilla
    couplings default to twice that. c_cnst is the constant offset applied
    at the coupler, which realizes the parity penalty.
    """

    pump_phase: tuple[float, float, float, float, float, float]
    coupler_offset_phase: float = 0.0
    j_max: float = 1.0
    j_max_ancilla: Optional[float] = None
    c_cnst: float = 0.0

    def __post_init__(self):
        phases = tuple(float(v) for v in self.pump_phase)
        if len(phases) != 6:
            raise ValueError("pump_phase must hold exactly 6 phases")
        if not all(math.isfinite(p - self.coupler_offset_phase) for p in phases):  # for cos
            raise ValueError("pump_phase offsets from coupler_offset_phase must be finite")
        object.__setattr__(self, "pump_phase", phases)
        if not math.isfinite(self.ancilla_scale):
            name = "j_max" if self.j_max_ancilla is None else "j_max_ancilla"
            raise ValueError(f"{name} must give a finite ancilla coupling")

    @property
    def ancilla_scale(self) -> float:
        return 2.0 * self.j_max if self.j_max_ancilla is None else self.j_max_ancilla


def effective_tile_couplings(program: CouplingProgram) -> TileParams:
    """Tile couplings realized by a phase program."""
    off = program.coupler_offset_phase
    j = tuple(
        coupling_from_phase(program.j_max, program.pump_phase[i] - off)
        for i in range(4)
    )
    j_a1 = coupling_from_phase(program.ancilla_scale, program.pump_phase[4] - off)
    j_a2 = coupling_from_phase(program.ancilla_scale, program.pump_phase[5] - off)
    return TileParams(j=j, j_a1=j_a1, j_a2=j_a2, c_cnst=program.c_cnst)


def even_parity_program() -> CouplingProgram:
    """No programmed problem: every pump in quadrature with the coupler, so
    all effective couplings vanish and only the parity offset acts. Trials
    relax to the eight even-parity logical states uniformly.

    The offset c_cnst = 5 (j_max = 1) keeps beta * c_cnst near 1. Weaker
    offsets leave a metastable odd-parity fixed point (the majority
    amplitudes compress, which starves the quartic force) and a slow leak
    of odd outcomes.
    """
    return CouplingProgram(pump_phase=(math.pi / 2,) * 6, j_max=1.0, c_cnst=5.0)


def alternating_field_program() -> CouplingProgram:
    """Fields of alternating sign on the logical oscillators (phases
    0, pi, 0, pi), ancillas in phase. The tile minimum is the checkerboard
    state; runs split evenly between it and its global complement because
    the reference oscillator picks its sign symmetrically.

    The field scale j_max = 2 (c_cnst = 2) makes the field-aligned
    collective mode outgrow the others fast enough that stray outcomes are
    negligible at ensemble sizes of a few thousand.
    """
    return CouplingProgram(
        pump_phase=(0.0, math.pi, 0.0, math.pi, 0.0, 0.0), j_max=2.0, c_cnst=2.0
    )


@dataclass(frozen=True)
class OscillatorState:
    """Final in-phase amplitudes: six tile oscillators plus the reference.
    c is kept as a read-only copy, so the caller's array stays free."""

    c: np.ndarray
    c_ref: float

    def __post_init__(self):
        c = np.array(self.c, dtype=float)
        if c.shape != (6,):
            raise ValueError("c must hold 6 amplitudes")
        if not (np.all(np.isfinite(c)) and np.isfinite(self.c_ref)):
            raise ValueError("amplitudes must be finite")
        c.setflags(write=False)
        object.__setattr__(self, "c", c)
        object.__setattr__(self, "c_ref", float(self.c_ref))


@dataclass(frozen=True)
class TrialResult:
    """One annealing run: final state plus readout (None when unsettled).

    canonical_config is read out relative to the reference oscillator and
    is invariant under the global sign flip; config is the raw signs.
    """

    state: OscillatorState
    settled: bool
    config: Optional[TileConfig]
    canonical_config: Optional[TileConfig]
    trajectory: Optional[np.ndarray] = None
    times: Optional[np.ndarray] = None


@dataclass(frozen=True)
class StateHistogram:
    """Counts over readout states. Settled counts plus unsettled equal trials."""

    counts: dict[str, int]
    trials: int
    unsettled: int
    seed: Optional[int] = None
    n_bits: int = 4

    def __post_init__(self):
        if self.trials < 1:
            raise ValueError("trials must be >= 1")
        if self.unsettled < 0:
            raise ValueError("unsettled must be >= 0")
        if any(count < 0 for count in self.counts.values()):
            raise ValueError("counts must be >= 0")
        if sum(self.counts.values()) + self.unsettled != self.trials:
            raise ValueError("counts plus unsettled trials must equal trials")
        for label in self.counts:
            if len(label) != self.n_bits or any(ch not in "01" for ch in label):
                raise ValueError(f"bad state label {label!r}")

    def probability(self, label: str) -> float:
        return self.counts.get(label, 0) / self.trials

    def support(self) -> set[str]:
        return {label for label, count in self.counts.items() if count > 0}


def _noise_block(rngs: Sequence, scale: float, out: np.ndarray) -> None:
    """Fill out, (steps, 7, len(rngs)) with steps <= NOISE_BLOCK, with each
    trial's next noise block: +-scale, from the next NOISE_WORDS random_raw
    words of the trial's bit generator. Bit k of those words, read as
    little-endian uint64, least significant bit first, is the increment of
    oscillator k % 7 at the block's step k // 7: +scale for a clear bit,
    -scale for a set one. A partial block uses the leading bits of its
    words."""
    words = np.array([rng.bit_generator.random_raw(NOISE_WORDS) for rng in rngs], "<u8")
    signs = np.unpackbits(words.view(np.uint8), axis=1, bitorder="little").view(np.int8)
    signs *= -2  # 1 - 2 * bit
    signs += 1
    steps = signs.reshape(len(rngs), NOISE_BLOCK, N_OSC)[:, : len(out)]
    np.multiply(steps.transpose(1, 2, 0), scale, out=out)  # +-1 * scale is +-scale exactly


@np.errstate(over="ignore", invalid="ignore")  # raised as IntegrationBlowupError
def _integrate_batch(
    params: TileParams, schedule: AnnealSchedule, eta: float, beta: float,
    seeds: Sequence, record: bool = False,
) -> tuple[np.ndarray, Optional[np.ndarray]]:
    """Simplified weak Euler over one batch, one default_rng seed per trial,
    which draws 7 Gaussian initial amplitudes, then +-eta * sqrt(dt)
    increments from its raw bits, one NOISE_BLOCK of steps at a time
    (_noise_block). Recorded batches and those narrower than NARROW_BATCH
    step on Python floats (_float_steps), the others on numpy rows in 20
    ufunc calls (_row_steps), from the module docstring's folded constants;
    the driver calls either with _float_steps' argument list, once a block.
    On a 2-vCPU VM a trial-step on floats takes 1.3-1.5 us, a row step
    9.3-10.8 us at m = 32, 14.6-16.1 at 128 and 73-77 at 1000. Both bodies
    round the same operations in one order, so a trial's states have the
    same bits at any width, and the batch reports its first non-finite
    step. Returns the (m, 7) final states and, if record, trial 0's trajectory."""
    for name, value in (("eta", eta), ("beta", beta)):  # noise strength, feedback gain
        if not value >= 0:
            raise ValueError(f"{name} must be >= 0")
    dt, n_steps, hi = schedule.dt, schedule.n_steps, schedule.c_sat
    scale = eta * math.sqrt(dt)
    rngs = [np.random.default_rng(s) for s in seeds]
    x = np.empty((N_OSC, len(rngs)))
    x[:] = np.array([rng.normal(0.0, INIT_AMPLITUDE_STD, N_OSC) for rng in rngs]).T
    trajectory = np.empty((n_steps + 1, N_OSC)) if record else None
    body = _float_steps if len(rngs) < NARROW_BATCH or record else _row_steps
    coeffs = [beta * dt * v for v in (*params.j, params.j_a1, params.j_a2, params.c_cnst)]
    # a non-finite coefficient or pump factor sets no errstate flag on the rows,
    # so both bodies stop short of its step; the noise is +-scale
    if not np.isfinite([*coeffs, scale]).all():
        raise IntegrationBlowupError(t=dt, dt=dt)
    noise = np.empty((min(NOISE_BLOCK, n_steps), N_OSC, len(rngs)))
    for start in range(0, n_steps, NOISE_BLOCK):
        stop = min(start + NOISE_BLOCK, n_steps)
        _noise_block(rngs, scale, noise[: stop - start])  # step k as a (7, m) array
        amps = 1.0 + (schedule.pump(np.arange(start, stop) * dt) - 1.0) * dt
        fed = np.isfinite(amps)
        end = stop if fed.all() else start + int(fed.argmin())
        k = body(x, noise[: end - start], amps[: end - start].tolist(), start, coeffs, dt, hi,
                 trajectory)
        if k is not None or end < stop:
            raise IntegrationBlowupError(t=((end if k is None else k) + 1) * dt, dt=dt)
    return x.T, trajectory


def _float_steps(x: np.ndarray, noise: np.ndarray, amps: list, start: int, coeffs: list,
                 dt: float, hi: float, trajectory) -> Optional[int]:
    """_integrate_batch's steps from start, one per pump factor and noise
    block row, on seven Python floats a trial, each column of the (7, m)
    state x in place, with _row_steps' operations in its order. Fills trial
    0's rows of trajectory from step start's state on, unless it is None.
    Returns the first non-finite step, or None: both bodies' contract."""
    isfinite = math.isfinite
    j1, j2, j3, j4, ja1, ja2, cc = coeffs
    lo, nja1, nja2, ndt = -hi, -ja1, -ja2, -dt  # the clamp is min(c, hi), then max(c, lo)
    blowups = []
    for i, (c1, c2, c3, c4, c5, c6, cr) in enumerate(x.T.tolist()):
        rows = [(c1, c2, c3, c4, c5, c6, cr)] if i == 0 and trajectory is not None else None
        steps = zip(range(start, start + len(amps)), amps, noise[:, :, i].tolist())
        for k, a, (n1, n2, n3, n4, n5, n6, nr) in steps:
            p13, p24 = c1 * c3, c2 * c4
            br = (c5 * ja1 + c6 * ja2) + cc
            g1, g2 = j1 * cr - (c3 * p24) * br, j2 * cr - (c4 * p13) * br
            g3, g4 = j3 * cr - (c1 * p24) * br, j4 * cr - (c2 * p13) * br
            p1234 = p13 * p24
            g5, g6 = nja1 * p1234, nja2 * p1234
            gr = (c1 * j1 + c3 * j3) + (c2 * j2 + c4 * j4)
            c1 = ((c1 * c1 * ndt + a) * c1 - g1) + n1
            c2 = ((c2 * c2 * ndt + a) * c2 - g2) + n2
            c3 = ((c3 * c3 * ndt + a) * c3 - g3) + n3
            c4 = ((c4 * c4 * ndt + a) * c4 - g4) + n4
            c5 = ((c5 * c5 * ndt + a) * c5 - g5) + n5
            c6 = ((c6 * c6 * ndt + a) * c6 - g6) + n6
            cr = ((cr * cr * ndt + a) * cr - gr) + nr
            if not (isfinite(c1) and isfinite(c2) and isfinite(c3) and isfinite(c4)
                    and isfinite(c5) and isfinite(c6) and isfinite(cr)):
                blowups.append(k)
                break
            c1 = hi if c1 > hi else lo if c1 < lo else c1
            c2 = hi if c2 > hi else lo if c2 < lo else c2
            c3 = hi if c3 > hi else lo if c3 < lo else c3
            c4 = hi if c4 > hi else lo if c4 < lo else c4
            c5 = hi if c5 > hi else lo if c5 < lo else c5
            c6 = hi if c6 > hi else lo if c6 < lo else c6
            cr = hi if cr > hi else lo if cr < lo else cr
            if rows is not None:
                rows.append((c1, c2, c3, c4, c5, c6, cr))
        x[:, i] = c1, c2, c3, c4, c5, c6, cr
        if rows is not None:
            trajectory[start : start + len(rows)] = rows
    return min(blowups, default=None)


def _row_steps(x: np.ndarray, noise: np.ndarray, amps: list, start: int, coeffs: list,
               dt: float, hi: float, trajectory) -> Optional[int]:
    """_float_steps' contract on numpy rows, 20 ufunc calls a step (9.3-10.8
    us at m = 32, 14.6-16.1 at 128 on a 2-vCPU VM); trajectory is left alone,
    as recorded batches take _float_steps. Each call builds a (9, m) state,
    x copied into rows 0-6 and back, and its constants (8-26 us, under 1 % of
    a block). One call forms the rank-one gradient terms, whose 0 P paddings
    are finite once P is."""
    m = x.shape[1]
    block = np.zeros((3, 4, m))  # J'_1..J'_4 | each c_i's other three | -J'_a1, -J'_a2, 0, 0
    block[0], block[2, :2] = (np.array(v)[:, None] for v in (coeffs[:4], [-coeffs[4], -coeffs[5]]))
    spread = np.repeat(np.array(coeffs[:6])[:, None], m, axis=1)  # J'_1..J'_4, J'_a1, J'_a2
    shapes = ((N_OSC + 2, m), (3, m), (3, 4, m), (6, m), (N_OSC, m))  # state row 7 bracket, 8 P
    state, pairs, prods, terms, drift = (np.empty(shape) for shape in shapes)
    c_cnst, ndt_0d, hi, lo, amp_0d = (np.array(float(v)) for v in (coeffs[6], -dt, hi, -hi, 0.0))
    # operands are C-contiguous rows or 0-d arrays, which ufuncs take fastest: a
    # Python float costs a conversion a call, a spread constant memory traffic, a
    # strided view the slow path (rank_one's, paid once a step, replaces three calls)
    c = state[:N_OSC]
    lead, tail, six, c1, c3 = c[:2], c[2:4], c[:6], c[0], c[2]
    # rows c1 c3, c2 c4, c1 c3: the pairs and the pairs swapped, each contiguous (2, m)
    pair, swapped, (p13, p24, p31) = pairs[:2], pairs[1:], pairs
    o12, o34, bracket, p1234 = block[1, :2], block[1, 2:], state[7], state[8]
    (fields, g_logical, _), rank_one = prods, state[6:, None]  # c_ref, bracket, P: (3, 1, m)
    sums, t34, (s13, s24), (a5, a6) = terms[:2], terms[2:4], terms[:2], terms[4:]
    grad, g_ref = prods.reshape(12, -1)[4:11], prods[2, 2]  # g1..g4, g5, g6, then g_ref
    multiply, add, subtract, minimum, maximum = (  # local names spare a lookup
        np.multiply, np.add, np.subtract, np.minimum, np.maximum)
    c[:] = x
    try:
        with np.errstate(over="raise", invalid="raise"):
            for k, amp, n in zip(range(start, start + len(amps)), amps, noise):
                # beta dt E = c_ref sum_i J'_i c_i - (J'_a1 c5 + J'_a2 c6 + C') c1 c2 c3 c4
                multiply(lead, tail, pair)
                multiply(c1, c3, p31)
                multiply(tail, swapped, o12)  # c3 c2 c4, c4 c1 c3: each c_i's other three
                multiply(lead, swapped, o34)  # c1 c2 c4, c2 c1 c3
                multiply(six, spread, terms)  # c_i J'_i
                add(a5, a6, bracket)
                add(bracket, c_cnst, bracket)
                multiply(p13, p24, p1234)
                multiply(rank_one, block, prods)  # c_ref J'_i | bracket others_i | -P J'_a, 0
                subtract(fields, g_logical, g_logical)  # g1..g4, next to g5 and g6
                add(sums, t34, sums)  # c1 J'1 + c3 J'3, c2 J'2 + c4 J'4
                add(s13, s24, g_ref)
                multiply(c, c, drift)
                multiply(drift, ndt_0d, drift)
                amp_0d.fill(amp)
                add(drift, amp_0d, drift)
                multiply(drift, c, drift)
                subtract(drift, grad, drift)
                add(drift, n, c)
                minimum(c, hi, out=c)
                maximum(c, lo, out=c)
    except FloatingPointError:
        return k
    finally:
        x[:] = c
    return None


def _readout_codes(
    finals: np.ndarray, schedule: AnnealSchedule, canonical: bool
) -> np.ndarray:
    """One int per final (m, 7) state: the tile label's bits, spin 1 most
    significant, or -1 when any amplitude is at most c_thresh. Canonical
    codes XOR the four logical bits with the reference oscillator's sign."""
    up = finals > 0
    codes = up[:, :6] @ (1 << np.arange(5, -1, -1))
    if canonical:
        codes ^= np.where(up[:, 6], 0, 0b111100)
    return np.where(np.all(np.abs(finals) > schedule.c_thresh, axis=1), codes, -1)


def simulate_trial(
    program: CouplingProgram,
    schedule: Optional[AnnealSchedule] = None,
    eta: float = DEFAULT_ETA,
    seed: Optional[int | np.random.SeedSequence] = None,
    beta: float = DEFAULT_BETA,
    record_trajectory: bool = True,
) -> TrialResult:
    """Integrate one annealing run and read out the final configuration."""
    schedule = schedule or AnnealSchedule()
    params = effective_tile_couplings(program)
    final, trajectory = _integrate_batch(
        params, schedule, eta, beta, [seed], record=record_trajectory
    )
    codes = np.concatenate([_readout_codes(final, schedule, c) for c in (False, True)])
    settled = bool(codes[0] >= 0)
    configs = [TILE_STATES[c] for c in codes.tolist()] if settled else [None, None]
    times = np.arange(schedule.n_steps + 1) * schedule.dt if record_trajectory else None
    return TrialResult(
        state=OscillatorState(c=final[0, :6], c_ref=final[0, 6]),
        settled=settled,
        config=configs[0],
        canonical_config=configs[1],
        trajectory=trajectory,
        times=times,
    )


def run_trials(
    program: CouplingProgram,
    trials: int,
    seed: Optional[int] = None,
    schedule: Optional[AnnealSchedule] = None,
    eta: float = DEFAULT_ETA,
    beta: float = DEFAULT_BETA,
    canonical: bool = False,
    n_bits: int = 4,
    chunk_size: Optional[int] = None,
) -> StateHistogram:
    """Histogram of readout states over an ensemble of independent trials.

    Every trial draws from its own RNG stream, split from the seed by trial
    index, so the histogram is identical for any chunk_size (trials per
    batch, by default up to TRIAL_CHUNK) or execution order.
    Unsettled trials are counted separately and excluded.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    if n_bits not in (4, 6):
        raise ValueError("n_bits must be 4 (logical) or 6 (full tile)")
    if chunk_size is None:
        chunk_size = min(trials, TRIAL_CHUNK)
    elif chunk_size < 1:
        raise ValueError("chunk_size must be >= 1")
    schedule = schedule or AnnealSchedule()
    params = effective_tile_couplings(program)
    # spawn continues the child counter, so spawning per chunk gives the
    # streams one spawn(trials) would, in memory bounded by the chunk
    root = np.random.SeedSequence(seed)
    bins = np.zeros(1 << n_bits, dtype=np.int64)
    for start in range(0, trials, chunk_size):
        streams = root.spawn(min(chunk_size, trials - start))
        finals, _ = _integrate_batch(params, schedule, eta, beta, streams)
        codes = _readout_codes(finals, schedule, canonical)
        bins += np.bincount(codes[codes >= 0] >> (6 - n_bits), minlength=bins.size)
    seen = np.flatnonzero(bins)
    return StateHistogram(
        counts=dict(zip(code_labels(seen, n_bits), bins[seen].tolist())),
        trials=trials,
        unsettled=trials - int(bins.sum()),
        seed=seed,
        n_bits=n_bits,
    )


def wall_clock_seconds(schedule: AnnealSchedule, kappa: float) -> float:
    """Nominal lab duration of a run: schedule time in units of 1/kappa.

    Reporting aid only; the dynamics never use it.
    """
    if not 0 < kappa < math.inf:
        raise ValueError("kappa must be > 0 and finite")
    seconds = schedule.duration / kappa
    if seconds == math.inf:
        raise ValueError(f"kappa too small: duration / kappa overflows, got {kappa!r}")
    return seconds


def dft_phase(
    samples: Sequence[float] | np.ndarray, dt: float, f0: float
) -> float:
    """Phase of a carrier at f0 from a single-bin discrete Fourier sum.

    The window must cover at least 4 carrier periods; shorter windows raise
    InsufficientDataError. Samples, dt and f0 must be finite.
    """
    x = np.asarray(samples, dtype=float)
    if x.ndim != 1 or x.size == 0:
        raise ValueError("samples must be a non-empty 1-D sequence")
    if not np.isfinite(x).all():
        raise ValueError("samples must be finite")
    for name, value in (("dt", dt), ("f0", f0)):
        if not 0 < value < math.inf:
            raise ValueError(f"{name} must be finite and > 0")
    span = x.size * dt * f0
    if 2 * math.pi * span == math.inf:
        raise ValueError(f"the carrier phase overflows the float range (dt={dt!r}, f0={f0!r})")
    if span < 4.0 - 1e-12:
        raise InsufficientDataError(
            f"window covers {span:g} periods of f0; at least 4 are required"
        )
    t = np.arange(x.size) * dt
    if 2 * math.pi * f0 < math.inf:
        phase = -2j * np.pi * f0 * t
    else:  # 2 pi f0 overflows, but no 2 pi f0 t within the window does
        phase = -2j * np.pi * (f0 * t)
    bin_value = np.sum(x * np.exp(phase))
    return float(np.angle(bin_value))


def classify_state(phase: float) -> int:
    """Map a carrier phase to a bit: 1 when nearer pi than 0 (mod 2 pi).

    Phases exactly midway (+-pi/2 within 1e-12) are refused rather than
    silently rounded; NaN and infinite phases raise ValueError.
    """
    if not math.isfinite(phase):
        raise ValueError(f"phase must be finite, got {phase!r}")
    wrapped = math.atan2(math.sin(phase), math.cos(phase))
    distance = abs(wrapped)
    if abs(distance - math.pi / 2) < 1e-12:
        raise AmbiguousPhaseError(
            f"phase {phase:g} rad is equidistant from 0 and pi"
        )
    return 1 if distance > math.pi / 2 else 0


def readout_bit(samples: Sequence[float] | np.ndarray, dt: float, f0: float) -> int:
    """Convenience chain: single-bin phase estimate, then classification."""
    return classify_state(dft_phase(samples, dt, f0))
