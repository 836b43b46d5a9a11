"""Exception types shared across the toolkit.

Validation-style errors subclass ValueError and map to CLI exit code 2;
numerical failures subclass RuntimeError and map to exit code 3.
"""

from __future__ import annotations


class ParseError(ValueError):
    """Malformed input file. The message names the file and the offending
    line or field."""


class CapacityError(ValueError):
    """Problem size exceeds the exhaustive-enumeration bound."""


class UnsupportedProblemError(ValueError):
    """Problem shape the requested mapping cannot represent."""


class DecodeError(ValueError):
    """Physical readout violates a parity constraint."""

    def __init__(self, tile_index: int, message: str):
        super().__init__(message)
        self.tile_index = tile_index


class EnergyRangeError(ValueError):
    """Energies whose range is not finite in float64."""


class DivergenceError(ValueError):
    """Requested operating point where the model quantity is unbounded."""


class CalibrationError(ValueError):
    """Calibration target cannot be met by any positive element value."""


class InsufficientDataError(ValueError):
    """Sample window too short for the requested estimate."""


class AmbiguousPhaseError(ValueError):
    """Phase sits exactly between the two classification targets."""


class IntegrationBlowupError(RuntimeError):
    """Integrator state became non-finite."""

    def __init__(self, t: float, dt: float):
        super().__init__(
            f"integration produced a non-finite amplitude at t={t:g} (dt={dt:g}); "
            "reduce dt or the coupling scale"
        )
        self.t = t
        self.dt = dt


class EigensolverError(RuntimeError):
    """Dense eigensolver failed to converge."""
