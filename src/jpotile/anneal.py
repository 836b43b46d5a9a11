"""Mean-field annealing dynamics of the six-oscillator tile.

Each oscillator is reduced to one slowly varying in-phase amplitude c_i.
Above the parametric threshold an isolated amplitude settles into one of
two wells at +-sqrt(p - 1); couplings bias which well wins. The ensemble
integrates the Langevin system

    dc_i = [(p(t) - 1 - c_i^2) c_i - beta * dE/dc_i] dt + eta * dW_i

by Euler-Maruyama while the pump p(t) ramps linearly from below threshold
to p_end. E is the tile energy with spins relaxed to real amplitudes. A
seventh reference oscillator carries the field terms as J_i * c_ref * c_i,
which restores the physical sign freedom of a phase-coded machine: states
and their global complements appear with equal probability, and readout
relative to the reference recovers the programmed tile minimum.

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
from .errors import (
    AmbiguousPhaseError,
    InsufficientDataError,
    IntegrationBlowupError,
)
from .spins import code_labels, indices_to_spins
from .tile import TileConfig, TileParams

DEFAULT_BETA = 0.2       # gradient coupling strength
DEFAULT_ETA = 0.05       # per-step noise std is eta * sqrt(dt)
INIT_AMPLITUDE_STD = 0.02
N_OSC = 7                # four logical, two ancilla, one reference
MAX_STEPS = 10**7        # longest accepted schedule, in Euler steps
MAX_TRIALS = 10**7       # largest accepted ensemble
NOISE_BLOCK = 256        # noise steps drawn per generator call


def coupling_from_phase(j_max: float, delta_theta: float) -> float:
    """Effective coupling of a phase-programmed element: j_max * cos(delta)."""
    return float(j_max) * math.cos(delta_theta)


def johnson_noise_amplitude(r: float, t: float) -> float:
    """Thermal current-noise scale sqrt(4 R T k_B) of a resistive shunt."""
    if not r > 0:
        raise ValueError("r must be > 0")
    if t < 0:
        raise ValueError("t must be >= 0")
    return math.sqrt(4.0 * r * t * K_B)


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
        if not self.p_start < 1.0:
            raise ValueError("p_start must lie below threshold (p=1)")
        if not self.p_end > 1.0:
            raise ValueError("p_end must lie above threshold (p=1)")
        steps = self.duration / self.dt
        if not steps <= MAX_STEPS:
            raise ValueError(f"duration / dt must be at most {MAX_STEPS} steps")
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
        object.__setattr__(self, "pump_phase", phases)

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
        if sum(self.counts.values()) + self.unsettled != self.trials:
            raise ValueError("counts plus unsettled trials must equal trials")
        for label in self.counts:
            if len(label) != self.n_bits or any(ch not in "01" for ch in label):
                raise ValueError(f"bad state label {label!r}")

    def probability(self, label: str) -> float:
        return self.counts.get(label, 0) / self.trials

    def support(self) -> set[str]:
        return {label for label, count in self.counts.items() if count > 0}


@np.errstate(over="ignore", invalid="ignore")  # raised as IntegrationBlowupError
def _integrate_batch(
    params: TileParams, schedule: AnnealSchedule, eta: float, beta: float,
    seeds: Sequence, record: bool = False,
) -> tuple[np.ndarray, Optional[np.ndarray]]:
    """Euler-Maruyama over one batch, one default_rng seed per trial. Each
    trial draws 7 initial amplitudes, then its noise NOISE_BLOCK steps at a
    time into one reused buffer: the numbers of one (n_steps, 7) draw. The
    (7, m) state and scratch are bound once; a step is ~25 in-place numpy
    calls in a fixed order, the dE/dc_ref row a left-to-right sum that no
    BLAS kernel or batch size rounds differently. Returns the (m, 7) final
    states and, if record, trial 0's (n_steps + 1, 7) trajectory."""
    rngs = [np.random.default_rng(s) for s in seeds]
    dt, n_steps, c_sat, m = schedule.dt, schedule.n_steps, schedule.c_sat, len(rngs)
    x = np.array([rng.normal(0.0, INIT_AMPLITUDE_STD, N_OSC) for rng in rngs]).T.copy()
    noise = np.empty((m, min(NOISE_BLOCK, n_steps), N_OSC)).transpose(1, 2, 0)
    trajectory = np.tile(x[:, 0], (n_steps + 1, 1)) if record else None
    j, j_anc = np.asarray(params.j)[:, None], -np.array([[params.j_a1], [params.j_a2]])
    drift, grad = np.empty((2, N_OSC, m))
    g_logical, g_anc, g_ref = grad[:4].reshape(2, 2, m), grad[4:6], grad[6]
    c13, c24, c5, c6, c_ref, logical = x[0:4:2], x[1:4:2], *x[4:], x[:4]
    pairs, (bracket, prod4) = np.empty((2, 2, m))
    p12, p34 = pairs
    partners, other_pair = logical.reshape(2, 2, m)[:, ::-1], pairs[::-1, None]
    others, ref_terms, j_pairs = np.empty((2, 2, m)), np.empty((4, m)), j.reshape(2, 2, 1)
    for start in range(0, n_steps, NOISE_BLOCK):
        stop = min(start + NOISE_BLOCK, n_steps)
        block = noise[: stop - start]  # step k as a (7, m) array
        for row, rng in enumerate(rngs):
            rng.standard_normal(out=block[..., row])
        block *= eta * math.sqrt(dt)
        gains = schedule.pump(np.arange(start, stop) * dt) - 1.0
        for k, gain in enumerate(gains.tolist(), start):
            # E = c_ref sum_i J_i c_i - (J_a1 c_5 + J_a2 c_6 + C) c_1 c_2 c_3 c_4
            np.multiply(c13, c24, out=pairs)  # c_1 c_2, c_3 c_4
            np.multiply(partners, other_pair, out=others)  # the other three c_k
            np.multiply(c5, params.j_a1, out=bracket)
            bracket += np.multiply(c6, params.j_a2, out=prod4)
            bracket += params.c_cnst
            np.multiply(j_pairs, c_ref, out=g_logical)
            others *= bracket
            g_logical -= others
            np.multiply(j_anc, np.multiply(p12, p34, out=prod4), out=g_anc)
            np.multiply(logical, j, out=ref_terms)
            np.add.reduce(ref_terms, axis=0, out=g_ref)
            np.multiply(x, x, out=drift)
            np.subtract(gain, drift, out=drift)
            drift *= x
            grad *= beta
            drift -= grad
            drift *= dt
            drift += block[k - start]
            x += drift
            if not np.isfinite(x).all():  # before the clamp, which would mask it
                raise IntegrationBlowupError(t=(k + 1) * dt, dt=dt)
            np.minimum(x, c_sat, out=x)
            np.maximum(x, -c_sat, out=x)
            if record:
                trajectory[k + 1] = x[:, 0]
    return x.T, trajectory


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
    configs = [None, None]
    if settled:
        spins = indices_to_spins(codes, 6).tolist()
        configs = [TileConfig(logical=s[:4], ancilla=s[4:]) for s in spins]
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
    batch, by default up to 64 MB of noise buffer) or execution order.
    Unsettled trials are counted separately and excluded.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    if n_bits not in (4, 6):
        raise ValueError("n_bits must be 4 (logical) or 6 (full tile)")
    if chunk_size is None:  # as many trials as 64 MB of noise buffer holds
        chunk_size = min(trials, (64 << 20) // (8 * N_OSC * NOISE_BLOCK))
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
    if not kappa > 0:
        raise ValueError("kappa must be > 0")
    return schedule.duration / kappa


def dft_phase(
    samples: Sequence[float] | np.ndarray, dt: float, f0: float
) -> float:
    """Phase of a carrier at f0 from a single-bin discrete Fourier sum.

    The window must cover at least 4 carrier periods; shorter windows raise
    InsufficientDataError.
    """
    x = np.asarray(samples, dtype=float)
    if x.ndim != 1 or x.size == 0:
        raise ValueError("samples must be a non-empty 1-D sequence")
    if not dt > 0 or not f0 > 0:
        raise ValueError("dt and f0 must be > 0")
    span = x.size * dt * f0
    if span < 4.0 - 1e-12:
        raise InsufficientDataError(
            f"window covers {span:g} periods of f0; at least 4 are required"
        )
    t = np.arange(x.size) * dt
    bin_value = np.sum(x * np.exp(-2j * np.pi * f0 * t))
    return float(np.angle(bin_value))


def classify_state(phase: float) -> int:
    """Map a carrier phase to a bit: 1 when nearer pi than 0 (mod 2 pi).

    Phases exactly midway (+-pi/2 within 1e-12) are refused rather than
    silently rounded.
    """
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
