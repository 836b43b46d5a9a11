"""Classical energy model of the six-oscillator tile.

Four logical spins carry fields J_1..J_4; two ancilla spins and a constant
offset C_cnst multiply the four-body logical parity:

    E = sum_i J_i s_i - (J_a1 a_1 + J_a2 a_2 + C_cnst) * s_1 s_2 s_3 s_4

With a positive bracket the tile pays for odd logical parity, which is how
the parity tiles of the LHZ layout are realized in hardware.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .spins import all_configs, ground_mask


@dataclass(frozen=True)
class TileParams:
    """Couplings of one tile: per-spin fields j, ancilla couplings, offset."""

    j: tuple[float, float, float, float]
    j_a1: float
    j_a2: float
    c_cnst: float

    def __post_init__(self):
        j = tuple(float(v) for v in self.j)
        if len(j) != 4:
            raise ValueError("j must hold exactly 4 field values")
        object.__setattr__(self, "j", j)
        object.__setattr__(self, "j_a1", float(self.j_a1))
        object.__setattr__(self, "j_a2", float(self.j_a2))
        object.__setattr__(self, "c_cnst", float(self.c_cnst))


def uniform_tile_params(j_b: float, j_c: float) -> TileParams:
    """Equal fields j_b with ancilla couplings at twice the field scale and
    offset j_c. The doubled ancilla weight keeps the consistent
    configurations exactly degenerate at energy -j_c."""
    return TileParams(j=(j_b,) * 4, j_a1=2 * j_b, j_a2=2 * j_b, c_cnst=j_c)


@dataclass(frozen=True)
class TileConfig:
    """One assignment of the tile: four logical spins and two ancillas."""

    logical: tuple[int, int, int, int]
    ancilla: tuple[int, int]

    def __post_init__(self):
        for name, size in (("logical", 4), ("ancilla", 2)):
            spins = tuple(int(v) for v in getattr(self, name))
            if len(spins) != size or any(v not in (-1, 1) for v in spins):
                raise ValueError(f"{name} must be {size} spins valued -1 or +1")
            object.__setattr__(self, name, spins)

    @property
    def spins(self) -> tuple[int, ...]:
        return self.logical + self.ancilla

    @property
    def logical_parity(self) -> int:
        return math.prod(self.logical)

    @property
    def label(self) -> str:
        return "".join("1" if v == 1 else "0" for v in self.spins)


# every assignment, logical spins first, row r labelled by r's binary digits
_CONFIGS = all_configs(6)
# state code c as a TileConfig: ground sets and trial readouts are these objects
TILE_STATES = tuple(TileConfig(s[:4], s[4:]) for s in _CONFIGS.tolist())


def tile_energy(params: TileParams, config: TileConfig) -> float:
    """Energy of one tile assignment."""
    pi = config.logical_parity
    field = sum(jv * sv for jv, sv in zip(params.j, config.logical))
    a1, a2 = config.ancilla
    return float(field - (params.j_a1 * a1 + params.j_a2 * a2 + params.c_cnst) * pi)


def tile_energies(params: TileParams, spins: np.ndarray) -> np.ndarray:
    """Energies of an (m, 6) array of assignments, logical spins first, each
    summed in tile_energy's order so its bits equal tile_energy's on that row."""
    s1, s2, s3, s4, a1, a2 = np.asarray(spins, dtype=float).T
    j1, j2, j3, j4 = params.j
    field = 0.0 + j1 * s1 + j2 * s2 + j3 * s3 + j4 * s4
    bracket = params.j_a1 * a1 + params.j_a2 * a2 + params.c_cnst
    return field - bracket * (s1 * s2 * s3 * s4)


def tile_table(
    params: TileParams, clamp_ancilla: Optional[tuple[int, int]] = None
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The state codes, ascending, of the 64 tile assignments, or of the 16
    that clamp_ancilla pins, their (m, 6) int8 spin rows and their
    tile_energies. Code c's six binary digits are its spins, logical spins
    first, and TILE_STATES[c] is the same assignment as a TileConfig."""
    codes = np.arange(64)
    if clamp_ancilla is not None:
        # an entry such as 1.5 would match no row, so it is refused here
        if len(clamp_ancilla) != 2 or any(v not in (-1, 1) for v in clamp_ancilla):
            raise ValueError("clamp_ancilla takes two spins: entries must be -1 or +1")
        codes = np.flatnonzero(np.all(_CONFIGS[:, 4:] == clamp_ancilla, axis=1))
    spins = _CONFIGS[codes]
    return codes, spins, tile_energies(params, spins)


def ground_set(
    params: TileParams, clamp_ancilla: Optional[tuple[int, int]] = None
) -> tuple[float, set[TileConfig]]:
    """Exhaustive minimum over tile_table's assignments, and the assignments
    spins.ground_mask counts as degenerate with it, as TILE_STATES entries.
    An energy range beyond the float range raises ValueError."""
    codes, _, energies = tile_table(params, clamp_ancilla)
    ground = codes[ground_mask(energies)].tolist()
    return float(energies.min()), {TILE_STATES[c] for c in ground}


@dataclass(frozen=True)
class ParityCheck:
    """Outcome of the ground-sector parity audit."""

    valid: bool
    violations: tuple[TileConfig, ...]

    def __bool__(self) -> bool:
        return self.valid


def lhz_parity_valid(params: TileParams) -> ParityCheck:
    """Do all ground assignments have even logical parity?"""
    _, ground = ground_set(params)
    bad = tuple(
        sorted((g for g in ground if g.logical_parity != 1), key=lambda g: g.label)
    )
    return ParityCheck(valid=len(bad) == 0, violations=bad)


def penalty_negative_in_ground(params: TileParams) -> bool:
    """True when the four-body contribution is negative in every ground
    assignment, the regime the offset C_cnst is meant to enforce."""
    _, ground = ground_set(params)
    for g in ground:
        a1, a2 = g.ancilla
        term = -(params.j_a1 * a1 + params.j_a2 * a2 + params.c_cnst) * g.logical_parity
        if term >= 0:
            return False
    return True
