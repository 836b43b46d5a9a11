"""Checks of the lumped-element circuit relations."""

import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from jpotile import circuit
from jpotile.circuit import (
    FLUX_GUARD,
    PHI0,
    FluxSweepPoint,
    JunctionParams,
    ResonatorParams,
    SquidParams,
    calibrate_resonator,
    flux_sweep,
    jj_inductance,
    pump_frequency,
    resonance_frequency,
    rsj_iv_curve,
    squid_inductance,
)
from jpotile.errors import CalibrationError, DivergenceError

REFERENCE_SQUID = SquidParams(l1=7.5e-12, l2=7.5e-12, i_c1=80e-6, i_c2=80e-6)


def test_jj_inductance_reference_value():
    assert jj_inductance(160e-6) == 2.0569123650120935e-12
    with pytest.raises(ValueError):
        jj_inductance(0.0)
    with pytest.raises(ValueError):
        jj_inductance(-1e-6)


def test_squid_inductance_zero_flux_equals_bare_junction():
    assert squid_inductance(REFERENCE_SQUID, 0.0) == jj_inductance(160e-6)


def test_squid_inductance_diverges_at_half_quantum():
    with pytest.raises(DivergenceError):
        squid_inductance(REFERENCE_SQUID, PHI0 / 2)
    # inside the guard band counts as divergent, just outside does not
    with pytest.raises(DivergenceError):
        squid_inductance(REFERENCE_SQUID, (0.5 + 5e-7) * PHI0)
    squid_inductance(REFERENCE_SQUID, (0.5 + 2e-6) * PHI0)


def test_squid_inductance_doubles_at_third_quantum():
    base = squid_inductance(REFERENCE_SQUID, 0.0)
    third = squid_inductance(REFERENCE_SQUID, PHI0 / 3)
    assert third == pytest.approx(2.0 * base, rel=1e-12)


def test_squid_inductance_even_and_periodic():
    for frac in (0.1, 0.23, 0.4):
        plus = squid_inductance(REFERENCE_SQUID, frac * PHI0)
        minus = squid_inductance(REFERENCE_SQUID, -frac * PHI0)
        shifted = squid_inductance(REFERENCE_SQUID, (frac + 1.0) * PHI0)
        assert minus == pytest.approx(plus, rel=1e-14)
        assert shifted == pytest.approx(plus, rel=1e-12)


def test_resonance_frequency_rises_with_flux_magnitude():
    l_r = 1.0e-9
    res = ResonatorParams(omega_r=2 * np.pi * 5e9, l_r=l_r, c_s=0.5e-12)
    values = [
        resonance_frequency(res, REFERENCE_SQUID, f * PHI0)
        for f in (0.0, 0.1, 0.2, 0.3)
    ]
    assert values == sorted(values)
    assert values[0] < values[-1]


def test_calibration_round_trip_and_pump():
    target = 2 * np.pi * 7.5e9
    omega_r = 2 * np.pi * 5e9
    l_r = calibrate_resonator(target, omega_r, REFERENCE_SQUID)
    assert l_r > 0
    res = ResonatorParams(omega_r=omega_r, l_r=l_r, c_s=0.5e-12)
    achieved = resonance_frequency(res, REFERENCE_SQUID, 0.0)
    assert achieved == pytest.approx(target, rel=1e-9)
    # doubling the target operating point lands on the pump grid exactly
    assert pump_frequency(target) == 2 * np.pi * 15e9


def test_calibration_rejects_infeasible_targets():
    omega_r = 2 * np.pi * 5e9
    with pytest.raises(CalibrationError):
        calibrate_resonator(omega_r, omega_r, REFERENCE_SQUID)
    with pytest.raises(CalibrationError):
        calibrate_resonator(0.5 * omega_r, omega_r, REFERENCE_SQUID)
    with pytest.raises(ValueError):
        calibrate_resonator(omega_r, 0.0, REFERENCE_SQUID)
    with pytest.raises(ValueError):
        pump_frequency(0.0)


def test_parameter_validation():
    with pytest.raises(ValueError):
        JunctionParams(i_c=0.0, r_shunt=15.0)
    with pytest.raises(ValueError):
        JunctionParams(i_c=1e-6, r_shunt=-1.0)
    with pytest.raises(ValueError):
        SquidParams(l1=0.0, l2=1e-12, i_c1=1e-6, i_c2=1e-6)
    with pytest.raises(ValueError):
        ResonatorParams(omega_r=1e9, l_r=1e-9, c_s=0.0)
    assert REFERENCE_SQUID.i_c_total == 160e-6


def test_flux_sweep_marks_divergent_points():
    omega_r = 2 * np.pi * 5e9
    l_r = calibrate_resonator(2 * np.pi * 7.5e9, omega_r, REFERENCE_SQUID)
    res = ResonatorParams(omega_r=omega_r, l_r=l_r, c_s=0.5e-12)
    points = flux_sweep(res, REFERENCE_SQUID, PHI0, [0.0, 0.25, 0.5, 0.75])
    assert [p.clipped for p in points] == [False, False, True, False]
    for p in points:
        assert isinstance(p, FluxSweepPoint)
        assert p.flux == PHI0 * p.i_dc
        if p.clipped:
            assert math.isnan(p.l_squid) and math.isnan(p.omega0)
        else:
            assert p.omega0 == resonance_frequency(res, REFERENCE_SQUID, p.flux)


@st.composite
def sweep_grids(draw):
    """A guard, a current_to_flux over many magnitudes and both signs, and
    bias currents with negatives, +-0.0, exact half-integer flux and points
    just inside and just outside the guard band."""
    # no float lands exactly on the shipped 1e-6 boundary; a dyadic guard
    # does, and pins the strict comparison there
    guard = draw(st.sampled_from([FLUX_GUARD, 2.0**-20]))
    sign = draw(st.sampled_from([-1.0, 1.0]))
    current_to_flux = sign * draw(st.floats(1.0, 10.0)) * 10.0 ** draw(
        st.integers(-25, 0)
    )
    currents = draw(
        st.lists(st.floats(-1e3, 1e3) | st.sampled_from([0.0, -0.0]), max_size=20)
    )
    for k in draw(st.lists(st.integers(-3, 3), max_size=4)):
        for offset in (0.0, guard, -guard):
            for scale in (1.0 - 1e-9, 1.0, 1.0 + 1e-9):
                currents.append((k + 0.5 + offset * scale) * PHI0 / current_to_flux)
    return guard, current_to_flux, currents


# flux exactly 2**-20 past a half quantum: outside a strict 2**-20 guard
EDGE = 0.5 + 2.0**-20


@settings(deadline=None)
@given(sweep_grids())
@example((2.0**-20, 1.0, [EDGE * PHI0, -EDGE * PHI0, -0.5 * PHI0, -0.0]))
def test_flux_sweep_matches_the_scalar_relations_bit_for_bit(grid):
    guard, current_to_flux, currents = grid
    omega_r = 2 * np.pi * 5e9
    l_r = calibrate_resonator(2 * np.pi * 7.5e9, omega_r, REFERENCE_SQUID)
    res = ResonatorParams(omega_r=omega_r, l_r=l_r, c_s=0.5e-12)
    with mock.patch.object(circuit, "FLUX_GUARD", guard):
        points = flux_sweep(res, REFERENCE_SQUID, current_to_flux, currents)
        assert len(points) == len(currents)
        for p, i_dc in zip(points, currents):
            flux = current_to_flux * i_dc
            try:
                l_sq = squid_inductance(REFERENCE_SQUID, flux)
            except DivergenceError:
                assert p.clipped
                assert math.isnan(p.l_squid) and math.isnan(p.omega0)
                expected = (i_dc, flux)
            else:
                assert not p.clipped
                omega0 = resonance_frequency(res, REFERENCE_SQUID, flux)
                expected = (i_dc, flux, l_sq, omega0)
            got = p[: len(expected)]
            assert np.array(got).tobytes() == np.array(expected).tobytes()


def test_rsj_zero_temperature_backbone():
    junction = JunctionParams(i_c=160e-6, r_shunt=15.0)
    i_in = np.array([-320e-6, -160e-6, 0.0, 80e-6, 160e-6, 320e-6])
    i_out, v = rsj_iv_curve(junction, 0.0, i_in)
    assert np.array_equal(i_out, i_in)
    assert v[5] == 0.004156921938165306
    assert v[0] == -v[5]
    assert np.all(v[1:5] == 0.0)
    # T = 0 must bypass the random walk entirely
    _, v_seeded = rsj_iv_curve(junction, 0.0, i_in, seed=123)
    assert np.array_equal(v, v_seeded)


def test_rsj_thermal_walk_is_seeded():
    junction = JunctionParams(i_c=160e-6, r_shunt=15.0)
    i_in = np.linspace(0.0, 320e-6, 200)
    _, backbone = rsj_iv_curve(junction, 0.0, i_in)
    _, v_a = rsj_iv_curve(junction, 4.2, i_in, seed=7)
    _, v_b = rsj_iv_curve(junction, 4.2, i_in, seed=7)
    _, v_c = rsj_iv_curve(junction, 4.2, i_in, seed=8)
    assert np.array_equal(v_a, v_b)
    assert not np.array_equal(v_a, backbone)
    assert not np.array_equal(v_a, v_c)


def test_rsj_input_validation():
    junction = JunctionParams(i_c=160e-6, r_shunt=15.0)
    with pytest.raises(ValueError):
        rsj_iv_curve(junction, -1.0, [0.0])
    with pytest.raises(ValueError):
        rsj_iv_curve(junction, 0.0, [])
    with pytest.raises(ValueError):
        rsj_iv_curve(junction, 0.0, [[0.0, 1.0]])
    with pytest.raises(ValueError):
        rsj_iv_curve(junction, 4.2, [0.0], dt_eff=0.0)
