"""Lumped-element circuit relations for the flux-tunable oscillator.

All quantities are SI: inductance in henry, current in ampere, flux in
weber, angular frequency in rad/s, temperature in kelvin. The resonance
relation used here is

    omega_0 = omega_r * (1 + (L_SQUID + L_1 / 2) / L_r)

with the SQUID inductance L = Phi_0 / (2 pi (I_C1 + I_C2)) divided by
|cos(pi Phi_ext / Phi_0)|, which diverges at half-integer flux quanta.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, Optional, Sequence

import numpy as np

from .errors import CalibrationError, DivergenceError

PHI0 = 2.067833848e-15  # magnetic flux quantum, Wb
K_B = 1.380649e-23      # Boltzmann constant, J/K

# reject flux closer than this (in flux quanta) to a half-integer point
FLUX_GUARD = 1e-6


@dataclass(frozen=True)
class JunctionParams:
    """A resistively shunted junction: critical current and shunt."""

    i_c: float
    r_shunt: float

    def __post_init__(self):
        if not self.i_c > 0:
            raise ValueError("i_c must be > 0")
        if not self.i_c * self.i_c < np.inf:
            raise ValueError(f"i_c too large: i_c**2 overflows, got {self.i_c!r}")
        if not 0 < self.r_shunt < np.inf:
            raise ValueError("r_shunt must be > 0 and finite")


@dataclass(frozen=True)
class SquidParams:
    """Two-junction loop with series inductances l1, l2."""

    l1: float
    l2: float
    i_c1: float
    i_c2: float

    def __post_init__(self):
        for name in ("l1", "l2", "i_c1", "i_c2"):
            if not 0 < getattr(self, name) < np.inf:
                raise ValueError(f"{name} must be > 0 and finite")

    @property
    def i_c_total(self) -> float:
        return self.i_c1 + self.i_c2


@dataclass(frozen=True)
class ResonatorParams:
    """Readout resonator: bare frequency, series inductance, shunt cap."""

    omega_r: float
    l_r: float
    c_s: float

    def __post_init__(self):
        for name in ("omega_r", "l_r", "c_s"):
            if not 0 < getattr(self, name) < np.inf:
                raise ValueError(f"{name} must be > 0 and finite")


def jj_inductance(i_c: float) -> float:
    """Josephson inductance Phi_0 / (2 pi I_C)."""
    if not i_c > 0:
        raise ValueError("i_c must be > 0")
    return PHI0 / (2.0 * np.pi * i_c)


def squid_inductance(squid: SquidParams, phi_ext: float) -> float:
    """Flux-tuned SQUID inductance; even and Phi_0-periodic in phi_ext.

    Raises DivergenceError within FLUX_GUARD flux quanta of a half-integer
    external flux, where the model inductance is unbounded.
    """
    frac = phi_ext / PHI0
    if abs((frac % 1.0) - 0.5) < FLUX_GUARD:
        raise DivergenceError(
            f"external flux {phi_ext:g} Wb sits within {FLUX_GUARD:g} flux quanta "
            "of a half-integer point; inductance is unbounded there"
        )
    return jj_inductance(squid.i_c_total) / abs(np.cos(np.pi * frac))


def resonance_frequency(
    res: ResonatorParams, squid: SquidParams, phi_ext: float
) -> float:
    """Flux-dependent oscillator frequency (rad/s)."""
    l_sq = squid_inductance(squid, phi_ext)
    return res.omega_r * (1.0 + (l_sq + squid.l1 / 2.0) / res.l_r)


def calibrate_resonator(
    target_omega0: float, omega_r: float, squid: SquidParams
) -> float:
    """Resonator inductance that places the zero-flux resonance at target_omega0.

    The resonance relation only raises the bare frequency, so targets at or
    below omega_r are infeasible.
    """
    if not omega_r > 0:
        raise ValueError("omega_r must be > 0")
    if target_omega0 <= omega_r:
        raise CalibrationError(
            f"target {target_omega0:g} rad/s must exceed the bare resonator "
            f"frequency {omega_r:g} rad/s"
        )
    l_sq = squid_inductance(squid, 0.0)
    return omega_r * (l_sq + squid.l1 / 2.0) / (target_omega0 - omega_r)


def pump_frequency(omega0: float) -> float:
    """Parametric pump at twice the oscillator frequency."""
    if not omega0 > 0:
        raise ValueError("omega0 must be > 0")
    return 2.0 * omega0


class FluxSweepPoint(NamedTuple):
    i_dc: float
    flux: float
    l_squid: float
    omega0: float
    clipped: bool


def flux_table(
    res: ResonatorParams,
    squid: SquidParams,
    current_to_flux: float,
    i_dc_values: Sequence[float] | np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Frequency versus bias current, flux = current_to_flux * i_dc, as the
    columns (i_dc, flux, l_squid, omega0, clipped).

    Points too close to a half-quantum flux are flagged clipped and carry
    NaN inductance and frequency instead of aborting the sweep. The grid is
    evaluated at once, in the operation order of squid_inductance and
    resonance_frequency, so every point matches them bit for bit.
    """
    i_dc = np.asarray(i_dc_values, dtype=float)
    flux = current_to_flux * i_dc
    frac = flux / PHI0
    clipped = np.abs(frac % 1.0 - 0.5) < FLUX_GUARD
    l_sq = jj_inductance(squid.i_c_total) / np.abs(np.cos(np.pi * frac))
    l_sq[clipped] = np.nan
    omega0 = res.omega_r * (1.0 + (l_sq + squid.l1 / 2.0) / res.l_r)
    return i_dc, flux, l_sq, omega0, clipped


def flux_sweep(
    res: ResonatorParams,
    squid: SquidParams,
    current_to_flux: float,
    i_dc_values: Sequence[float] | np.ndarray,
) -> list[FluxSweepPoint]:
    """flux_table's columns as one FluxSweepPoint per point."""
    columns = flux_table(res, squid, current_to_flux, i_dc_values)
    return list(map(FluxSweepPoint._make, zip(*(a.tolist() for a in columns))))


def rsj_iv_curve(
    junction: JunctionParams,
    temperature: float,
    i_values: Sequence[float] | np.ndarray,
    seed: Optional[int | np.random.SeedSequence] = None,
    dt_eff: float = 1e-12,
) -> tuple[np.ndarray, np.ndarray]:
    """Noisy DC I-V curve of a resistively shunted junction.

    The deterministic backbone is V = R * sign(I) * sqrt(I^2 - I_c^2) above
    the critical current and 0 below it. At T > 0 a Brownian random walk
    b_k rides on the bias current before the backbone is evaluated; its
    per-sample step has standard deviation sqrt(4 k_B T / R) * sqrt(dt_eff).
    dt_eff is an artificial walk timestep, not a physical sweep rate. At
    T = 0 the output equals the backbone exactly.
    """
    if not 0 <= temperature < np.inf:
        raise ValueError("temperature must be >= 0 and finite")
    if not dt_eff > 0:
        raise ValueError("dt_eff must be > 0")
    i = np.asarray(i_values, dtype=float).copy()
    if i.ndim != 1 or i.size == 0:
        raise ValueError("i_values must be a non-empty 1-D sequence")
    biased = i
    if temperature > 0:
        rng = np.random.default_rng(seed)
        step_std = np.sqrt(4.0 * K_B * temperature / junction.r_shunt) * np.sqrt(
            dt_eff
        )
        walk = np.cumsum(rng.normal(0.0, step_std, i.size))
        biased = i + walk
    excess = biased**2 - junction.i_c**2
    v = np.where(
        np.abs(biased) > junction.i_c,
        junction.r_shunt * np.sign(biased) * np.sqrt(np.maximum(excess, 0.0)),
        0.0,
    )
    return i, v
