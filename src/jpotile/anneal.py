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
from .tile import TileConfig, TileParams, tile_energy

DEFAULT_BETA = 0.2       # gradient coupling strength
DEFAULT_ETA = 0.05       # per-step noise std is eta * sqrt(dt)
INIT_AMPLITUDE_STD = 0.02
N_OSC = 7                # four logical, two ancilla, one reference


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
    duration into at least 10 steps.
    """

    duration: float = 50.0
    dt: float = 1e-2
    p_start: float = 0.5
    p_end: float = 2.0

    def __post_init__(self):
        if not self.dt > 0:
            raise ValueError("dt must be > 0")
        if not (self.p_start < 1.0 < self.p_end):
            raise ValueError("ramp must start below threshold (p=1) and end above")
        steps = self.duration / self.dt
        if not math.isfinite(steps):
            raise ValueError("duration / dt must be a finite number of steps")
        if abs(steps - round(steps)) > 1e-9 or round(steps) < 10:
            raise ValueError("duration must be an integer multiple of dt, >= 10 steps")

    @property
    def n_steps(self) -> int:
        return int(round(self.duration / self.dt))

    def pump(self, t: float) -> float:
        frac = min(max(t / self.duration, 0.0), 1.0)
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


def even_parity_program(j_max: float = 1.0, c_cnst: float = 5.0) -> CouplingProgram:
    """No programmed problem: every pump in quadrature with the coupler, so
    all effective couplings vanish and only the parity offset acts. Trials
    relax to the eight even-parity logical states uniformly.

    The default offset keeps beta * c_cnst near 1. Weaker offsets leave a
    metastable odd-parity fixed point (the majority amplitudes compress,
    which starves the quartic force) and a slow leak of odd outcomes.
    """
    return CouplingProgram(
        pump_phase=(math.pi / 2,) * 6, j_max=j_max, c_cnst=c_cnst
    )


def alternating_field_program(
    j_max: float = 2.0, c_cnst: float = 2.0
) -> CouplingProgram:
    """Fields of alternating sign on the logical oscillators (phases
    0, pi, 0, pi), ancillas in phase. The tile minimum is the checkerboard
    state; runs split evenly between it and its global complement because
    the reference oscillator picks its sign symmetrically.

    The default field scale makes the field-aligned collective mode
    outgrow the others fast enough that stray outcomes are negligible at
    ensemble sizes of a few thousand.
    """
    return CouplingProgram(
        pump_phase=(0.0, math.pi, 0.0, math.pi, 0.0, 0.0),
        j_max=j_max,
        c_cnst=c_cnst,
    )


@dataclass(frozen=True)
class OscillatorState:
    """Final in-phase amplitudes: six tile oscillators plus the reference."""

    c: np.ndarray
    c_ref: float

    def __post_init__(self):
        c = np.asarray(self.c, dtype=float)
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


def _grad_energy(x: np.ndarray, params: TileParams) -> np.ndarray:
    """Gradient of the relaxed tile energy on a batch of (m, 7) amplitudes.

    E = c_ref * sum_i J_i c_i - (J_a1 c_5 + J_a2 c_6 + C) * c_1 c_2 c_3 c_4
    """
    j = np.asarray(params.j)
    bracket = params.j_a1 * x[:, 4] + params.j_a2 * x[:, 5] + params.c_cnst
    c01 = x[:, 0] * x[:, 1]
    c23 = x[:, 2] * x[:, 3]
    prod4 = c01 * c23
    grad = np.empty_like(x)
    grad[:, 0] = j[0] * x[:, 6] - bracket * (x[:, 1] * c23)
    grad[:, 1] = j[1] * x[:, 6] - bracket * (x[:, 0] * c23)
    grad[:, 2] = j[2] * x[:, 6] - bracket * (c01 * x[:, 3])
    grad[:, 3] = j[3] * x[:, 6] - bracket * (c01 * x[:, 2])
    grad[:, 4] = -params.j_a1 * prod4
    grad[:, 5] = -params.j_a2 * prod4
    grad[:, 6] = x[:, :4] @ j
    return grad


def _integrate_batch(
    params: TileParams,
    schedule: AnnealSchedule,
    eta: float,
    beta: float,
    inits: np.ndarray,
    noise: np.ndarray,
    record: bool = False,
) -> tuple[np.ndarray, Optional[np.ndarray]]:
    """Euler-Maruyama over one batch. inits is (m, 7); noise is
    (m, n_steps, 7) standard normal. Returns final states and, when
    record is set, the (n_steps + 1, 7) trajectory of the first trial."""
    dt = schedule.dt
    sqrt_dt = math.sqrt(dt)
    n_steps = schedule.n_steps
    c_sat = schedule.c_sat
    x = np.array(inits, dtype=float)
    trajectory = None
    if record:
        trajectory = np.empty((n_steps + 1, N_OSC))
        trajectory[0] = x[0]
    p_values = schedule.p_start + (schedule.p_end - schedule.p_start) * (
        np.arange(n_steps) * dt / schedule.duration
    )
    # overflow is reported through IntegrationBlowupError, not warnings
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(n_steps):
            drift = (p_values[k] - 1.0 - x**2) * x - beta * _grad_energy(x, params)
            x += drift * dt + (eta * sqrt_dt) * noise[:, k, :]
            # check before the clamp: clipping would mask an overflow
            if not np.all(np.isfinite(x)):
                raise IntegrationBlowupError(t=(k + 1) * dt, dt=dt)
            np.clip(x, -c_sat, c_sat, out=x)
            if record:
                trajectory[k + 1] = x[0]
    return x, trajectory


def _classify(x: np.ndarray, schedule: AnnealSchedule) -> TrialResult:
    """Readout of one final 7-amplitude state."""
    state = OscillatorState(c=x[:6], c_ref=float(x[6]))
    settled = bool(np.all(np.abs(x) > schedule.c_thresh))
    if not settled:
        return TrialResult(state=state, settled=False, config=None, canonical_config=None)
    signs = np.sign(x).astype(int)
    config = TileConfig(logical=tuple(signs[:4]), ancilla=tuple(signs[4:6]))
    ref = signs[6]
    canonical = TileConfig(
        logical=tuple(int(s * ref) for s in signs[:4]), ancilla=tuple(signs[4:6])
    )
    return TrialResult(
        state=state, settled=True, config=config, canonical_config=canonical
    )


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
    rng = np.random.default_rng(seed)
    inits = rng.normal(0.0, INIT_AMPLITUDE_STD, (1, N_OSC))
    noise = rng.standard_normal((1, schedule.n_steps, N_OSC))
    final, trajectory = _integrate_batch(
        params, schedule, eta, beta, inits, noise, record=record_trajectory
    )
    result = _classify(final[0], schedule)
    if record_trajectory:
        times = np.arange(schedule.n_steps + 1) * schedule.dt
        return TrialResult(
            state=result.state,
            settled=result.settled,
            config=result.config,
            canonical_config=result.canonical_config,
            trajectory=trajectory,
            times=times,
        )
    return result


def run_trials(
    program: CouplingProgram,
    trials: int,
    seed: Optional[int] = None,
    schedule: Optional[AnnealSchedule] = None,
    eta: float = DEFAULT_ETA,
    beta: float = DEFAULT_BETA,
    canonical: bool = False,
    n_bits: int = 4,
    chunk_size: int = 128,
) -> StateHistogram:
    """Histogram of readout states over an ensemble of independent trials.

    Every trial draws from its own RNG stream, split from the seed by trial
    index, so the histogram is identical for any chunk_size (the internal
    batching knob) or execution order. Unsettled trials are counted
    separately and excluded from the state counts.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    if n_bits not in (4, 6):
        raise ValueError("n_bits must be 4 (logical) or 6 (full tile)")
    if chunk_size < 1:
        raise ValueError("chunk_size must be >= 1")
    schedule = schedule or AnnealSchedule()
    params = effective_tile_couplings(program)
    streams = np.random.SeedSequence(seed).spawn(trials)
    counts: dict[str, int] = {}
    unsettled = 0
    for start in range(0, trials, chunk_size):
        batch = streams[start : start + chunk_size]
        m = len(batch)
        inits = np.empty((m, N_OSC))
        noise = np.empty((m, schedule.n_steps, N_OSC))
        for row, ss in enumerate(batch):
            rng = np.random.default_rng(ss)
            inits[row] = rng.normal(0.0, INIT_AMPLITUDE_STD, N_OSC)
            noise[row] = rng.standard_normal((schedule.n_steps, N_OSC))
        finals, _ = _integrate_batch(params, schedule, eta, beta, inits, noise)
        for row in range(m):
            result = _classify(finals[row], schedule)
            if not result.settled:
                unsettled += 1
                continue
            config = result.canonical_config if canonical else result.config
            label = config.label if n_bits == 6 else config.label[:4]
            counts[label] = counts.get(label, 0) + 1
    return StateHistogram(
        counts=dict(sorted(counts.items())),
        trials=trials,
        unsettled=unsettled,
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
