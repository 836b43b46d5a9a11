"""Dynamics, statistics, and readout checks of the annealing module."""

import hashlib
import json
import math
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from jpotile import anneal
from jpotile.anneal import (
    DEFAULT_BETA,
    DEFAULT_ETA,
    NARROW_BATCH,
    NOISE_BLOCK,
    AnnealSchedule,
    CouplingProgram,
    OscillatorState,
    StateHistogram,
    alternating_field_program,
    classify_state,
    coupling_from_phase,
    dft_phase,
    effective_tile_couplings,
    even_parity_program,
    johnson_noise_amplitude,
    readout_bit,
    run_trials,
    simulate_trial,
    wall_clock_seconds,
)
from jpotile.anneal import _integrate_batch
from jpotile.circuit import K_B
from jpotile.errors import (
    AmbiguousPhaseError,
    InsufficientDataError,
    IntegrationBlowupError,
)
from jpotile.tile import TileConfig, ground_set, tile_energy

import anneal_gate
import anneal_steps
from anneal_gate import ALPHA, clopper_pearson, gate

EVEN_LABELS = {"0000", "0011", "0101", "0110", "1001", "1010", "1100", "1111"}


def config_from_label(label):
    spins = tuple(1 if ch == "1" else -1 for ch in label)
    return TileConfig(logical=spins[:4], ancilla=spins[4:6])


def test_coupling_from_phase_values():
    assert coupling_from_phase(2.0, 0.0) == 2.0
    assert coupling_from_phase(2.0, math.pi) == -2.0
    assert abs(coupling_from_phase(1.5, math.pi / 2)) < 1e-12
    assert coupling_from_phase(3.0, math.pi / 3) == pytest.approx(1.5, rel=1e-12)


def test_johnson_noise_reference_value():
    amp = johnson_noise_amplitude(15.0, 4.2)
    assert amp == 5.898504454520655e-11
    assert abs(amp - 5.90e-11) / 5.90e-11 < 0.005
    assert johnson_noise_amplitude(15.0, 0.0) == 0.0
    with pytest.raises(ValueError):
        johnson_noise_amplitude(0.0, 4.2)
    with pytest.raises(ValueError):
        johnson_noise_amplitude(15.0, -1.0)
    # a NaN or infinite input gives a nan or inf amplitude, no noise scale
    for r, t, field in ((15.0, math.nan, "t"), (15.0, math.inf, "t"), (math.inf, 4.2, "r")):
        with pytest.raises(ValueError, match=f"^{field} must be finite"):
            johnson_noise_amplitude(r, t)


def test_johnson_noise_of_an_overflowing_power_is_its_root():
    # 4 r t k_B leaves the float range, but its root does not
    amp = johnson_noise_amplitude(1e200, 1e200)
    assert amp == pytest.approx(2e200 * math.sqrt(K_B), rel=1e-15)
    assert johnson_noise_amplitude(sys.float_info.max, sys.float_info.max) < 1.4e297


def test_schedule_defaults_and_derived_quantities():
    sched = AnnealSchedule()
    assert sched.duration == 50.0
    assert sched.dt == 1e-2
    assert sched.p_start == 0.5
    assert sched.p_end == 2.0
    assert sched.n_steps == 5000
    assert sched.c_thresh == 0.5
    assert sched.c_sat == 1.5
    assert sched.pump(0.0) == 0.5
    assert sched.pump(50.0) == 2.0
    assert sched.pump(25.0) == pytest.approx(1.25, rel=1e-12)
    # the ramp clamps outside its window
    assert sched.pump(-5.0) == 0.5
    assert sched.pump(1e9) == 2.0


def test_schedule_validation():
    with pytest.raises(ValueError):
        AnnealSchedule(dt=0.0)
    with pytest.raises(ValueError):
        AnnealSchedule(p_start=1.0)
    with pytest.raises(ValueError):
        AnnealSchedule(p_end=0.9)
    # an infinite ramp end would make the first pump gain NaN (inf * 0)
    with pytest.raises(ValueError, match="^p_start must be finite"):
        AnnealSchedule(duration=1.0, dt=0.1, p_start=-math.inf)
    with pytest.raises(ValueError, match="^p_end must be finite"):
        AnnealSchedule(duration=1.0, dt=0.1, p_end=math.inf)
    # finite ends whose span overflows would make the pump gains non-finite
    with pytest.raises(ValueError, match="^p_end - p_start must be finite"):
        AnnealSchedule(duration=1.0, dt=0.1, p_start=-1e308, p_end=1e308)
    with pytest.raises(ValueError):
        AnnealSchedule(duration=50.003, dt=1e-2)
    with pytest.raises(ValueError):
        AnnealSchedule(duration=0.05, dt=1e-2)


def test_program_to_tile_couplings():
    even = effective_tile_couplings(even_parity_program())
    assert all(abs(v) < 1e-12 for v in even.j)
    assert abs(even.j_a1) < 1e-12 and abs(even.j_a2) < 1e-12
    assert even.c_cnst == 5.0

    alt = effective_tile_couplings(alternating_field_program())
    assert alt.j == (2.0, -2.0, 2.0, -2.0)
    assert alt.j_a1 == 4.0 and alt.j_a2 == 4.0
    assert alt.c_cnst == 2.0

    shifted = CouplingProgram(
        pump_phase=(math.pi,) * 6, coupler_offset_phase=math.pi, j_max=1.5
    )
    params = effective_tile_couplings(shifted)
    assert params.j == (1.5, 1.5, 1.5, 1.5)
    assert params.j_a1 == 3.0

    override = CouplingProgram(pump_phase=(0.0,) * 6, j_max=1.0, j_max_ancilla=0.25)
    assert override.ancilla_scale == 0.25
    assert effective_tile_couplings(override).j_a1 == 0.25

    with pytest.raises(ValueError):
        CouplingProgram(pump_phase=(0.0,) * 5)
    # the ancilla coupling defaults to 2 * j_max, which overflows above ~9e307
    with pytest.raises(ValueError, match="^j_max must give a finite"):
        CouplingProgram(pump_phase=(0.0,) * 6, j_max=1e308)
    with pytest.raises(ValueError, match="^j_max_ancilla must give a finite"):
        CouplingProgram(pump_phase=(0.0,) * 6, j_max=1e308, j_max_ancilla=math.inf)
    capped = CouplingProgram((0.0,) * 6, j_max=1e308, j_max_ancilla=1.0)
    assert capped.ancilla_scale == 1.0


def test_oscillator_state_leaves_the_callers_array_alone():
    c = np.linspace(-1.0, 1.0, 6)
    state = OscillatorState(c, 1.0)
    assert c.flags.writeable
    c[0] = 5.0
    assert state.c[0] == -1.0
    assert not state.c.flags.writeable


def test_state_and_histogram_validation():
    with pytest.raises(ValueError):
        OscillatorState(c=np.zeros(5), c_ref=1.0)
    with pytest.raises(ValueError):
        OscillatorState(c=np.full(6, np.inf), c_ref=1.0)

    hist = StateHistogram(counts={"0101": 3, "1010": 5}, trials=10, unsettled=2)
    assert hist.probability("1010") == 0.5
    assert hist.probability("0000") == 0.0
    assert hist.support() == {"0101", "1010"}
    with pytest.raises(ValueError):
        StateHistogram(counts={"0101": 3}, trials=10, unsettled=2)
    with pytest.raises(ValueError):
        StateHistogram(counts={"01x1": 10}, trials=10, unsettled=0)
    with pytest.raises(ValueError):
        StateHistogram(counts={"010101": 10}, trials=10, unsettled=0, n_bits=4)
    with pytest.raises(ValueError):
        StateHistogram(counts={}, trials=0, unsettled=0)
    # the counts sum to trials, but a negative one is no count
    with pytest.raises(ValueError, match="counts must be >= 0"):
        StateHistogram(counts={"0000": -1, "0001": 2}, trials=1, unsettled=0)


def test_single_trial_shapes_and_determinism():
    result = simulate_trial(even_parity_program(), seed=1)
    sched = AnnealSchedule()
    assert result.trajectory.shape == (sched.n_steps + 1, 7)
    assert result.times.shape == (sched.n_steps + 1,)
    assert result.times[0] == 0.0
    assert result.times[-1] == pytest.approx(sched.duration, rel=1e-12)
    assert np.all(np.abs(result.trajectory) <= sched.c_sat)
    assert result.settled
    assert result.config is not None
    ref_sign = 1 if result.state.c_ref > 0 else -1
    assert result.canonical_config.logical == tuple(
        v * ref_sign for v in result.config.logical
    )
    assert result.canonical_config.ancilla == result.config.ancilla

    again = simulate_trial(even_parity_program(), seed=1)
    assert np.array_equal(result.trajectory, again.trajectory)
    assert result.config == again.config

    bare = simulate_trial(even_parity_program(), seed=1, record_trajectory=False)
    assert bare.trajectory is None and bare.times is None
    assert bare.config == result.config


@pytest.mark.kernel_bytes
def test_trajectory_digest_is_pinned():
    # 1000 steps is not a multiple of the 256-step noise block, so the
    # digest also covers a partial last block
    result = simulate_trial(
        alternating_field_program(), AnnealSchedule(duration=10.0), seed=1
    )
    assert result.trajectory.shape == (1001, 7)
    assert hashlib.sha256(result.trajectory.tobytes()).hexdigest() == (
        "73c4e8c9d4a7178654bedb16f18b2e7ad926e3af4446fd5ff6285ccaacc0bea9"
    )
    assert result.config.label == "010111"
    assert result.canonical_config.label == "010111"


@pytest.mark.kernel_bytes
def test_batch_digest_is_pinned():
    # run_trials digests see only labels, which hide last-bit drift in the
    # batched arithmetic; this pins the raw states of a 37-trial batch, whose
    # reference row is an ordered elementwise sum on any BLAS kernel
    schedule = AnnealSchedule(duration=7.77)
    assert schedule.n_steps % NOISE_BLOCK != 0
    phases = tuple(np.random.default_rng(37).uniform(0.0, 2 * math.pi, 6))
    programs = (
        alternating_field_program(),
        CouplingProgram(pump_phase=phases, j_max=2.0, c_cnst=2.0),
    )
    digest = hashlib.sha256()
    for program in programs:
        params = effective_tile_couplings(program)
        seeds = np.random.SeedSequence(37).spawn(37)
        finals, _ = _integrate_batch(params, schedule, DEFAULT_ETA, DEFAULT_BETA, seeds)
        # only a single-trial run records; trial 0's path is the batch's own,
        # as a batch row equals the single-trial run of its seed
        _, trajectory = _integrate_batch(
            params, schedule, DEFAULT_ETA, DEFAULT_BETA, seeds[:1], record=True
        )
        assert finals.shape == (37, 7)
        assert trajectory.shape == (schedule.n_steps + 1, 7)
        # the fast ramp drives amplitudes into the clamp
        assert np.any(np.abs(finals) == schedule.c_sat)
        digest.update(finals.tobytes())
        digest.update(trajectory.tobytes())
    assert digest.hexdigest() == (
        "b82404050e8d4d25bb82f5ca4ce8c9da587c2165f9c136b6a49d10d316b9301b"
    )


def test_noise_increments_are_the_documented_bits(monkeypatch):
    # after its 7 initial draws, bit k of a trial's random_raw words, read as
    # little-endian uint64 least significant bit first, is its increment k,
    # step-major over the 7 oscillators: -eta sqrt(dt) when set, else +.
    # Python ints make the reference independent of the host's byte order
    schedule = AnnealSchedule(duration=3.0)  # 300 steps, a partial last noise block
    blocks = -(-schedule.n_steps // NOISE_BLOCK)
    scale = DEFAULT_ETA * math.sqrt(schedule.dt)
    seeds = np.random.SeedSequence(11).spawn(NARROW_BATCH)
    expected = np.empty((schedule.n_steps, 7, len(seeds)))
    for row, seed in enumerate(seeds):
        rng = np.random.default_rng(seed)
        rng.normal(0.0, anneal.INIT_AMPLITUDE_STD, 7)
        words = [int(w) for w in rng.bit_generator.random_raw(blocks * anneal.NOISE_WORDS)]
        bits = [words[k // 64] >> k % 64 & 1 for k in range(expected[..., row].size)]
        expected[..., row] = np.where(np.reshape(bits, (-1, 7)), -scale, scale)

    filled, fill = [], anneal._noise_block

    def spy(rngs, scale, out):
        fill(rngs, scale, out)
        filled.append(out.copy())

    monkeypatch.setattr(anneal, "_noise_block", spy)
    params = effective_tile_couplings(alternating_field_program())
    _integrate_batch(params, schedule, DEFAULT_ETA, DEFAULT_BETA, seeds)
    assert len(filled) == blocks
    wide = np.concatenate(filled)
    filled.clear()
    for seed in seeds:  # one trial a batch: the Python-float step
        _integrate_batch(params, schedule, DEFAULT_ETA, DEFAULT_BETA, [seed])
    assert len(filled) == blocks * len(seeds)
    narrow = np.concatenate(
        [np.concatenate(filled[i : i + blocks]) for i in range(0, len(filled), blocks)], axis=2
    )
    assert wide.tobytes() == expected.tobytes()
    assert narrow.tobytes() == expected.tobytes()
    assert set(np.abs(wide).ravel().tolist()) == {scale}


@pytest.mark.kernel_bytes
@settings(deadline=None, max_examples=25)
@given(
    phases=st.lists(st.floats(0.0, 2 * math.pi), min_size=6, max_size=6),
    j_max=st.floats(0.0, 4.0),
    c_cnst=st.floats(-10.0, 10.0),
    eta=st.floats(0.0, 2.0),
    beta=st.floats(0.0, 1.0),
    seed=st.integers(0, 2**32 - 1),
    width=st.sampled_from([NARROW_BATCH, 32, 37, 128]),  # 32 and 128: the benchmark's widths
)
@example(phases=[0.5, 1.5, 2.5, 3.5, 4.5, 5.5], j_max=2.0, c_cnst=2.0,
         eta=DEFAULT_ETA, beta=DEFAULT_BETA, seed=5, width=NARROW_BATCH)
def test_batch_rows_equal_single_trial_runs_bit_for_bit(
    phases, j_max, c_cnst, eta, beta, seed, width
):
    # a batch of width >= NARROW_BATCH trials takes the numpy step, with its
    # constants spread over the width, and a single trial the step on Python
    # floats; both round the same operations in one order, so a trial's
    # states do not depend on the trials it is batched with
    program = CouplingProgram(pump_phase=tuple(phases), j_max=j_max, c_cnst=c_cnst)
    params = effective_tile_couplings(program)
    schedule = AnnealSchedule(duration=3.0)  # 300 steps, a partial last noise block
    assert schedule.n_steps % NOISE_BLOCK != 0
    seeds = np.random.SeedSequence(seed).spawn(width)
    batch, _ = _integrate_batch(params, schedule, eta, beta, seeds)
    singles = [_integrate_batch(params, schedule, eta, beta, [s]) for s in seeds]
    assert batch.tobytes() == np.concatenate([final for final, _ in singles]).tobytes()


@settings(deadline=None, max_examples=60)
@given(
    phases=st.lists(st.floats(0.0, 2 * math.pi), min_size=6, max_size=6),
    j_max=st.floats(0.0, 4.0),
    j_max_ancilla=st.floats(-8.0, 8.0),
    c_cnst=st.floats(-10.0, 10.0),
    beta=st.floats(0.0, 1.0),
    dt=st.floats(1e-4, 0.5),
    p_start=st.floats(-2.0, 0.99),
    p_end=st.floats(1.01, 4.0),
    eta=st.floats(0.0, 2.0),
    k=st.integers(0, 9),
    unit=hnp.arrays(float, (7, NARROW_BATCH), elements=st.floats(-1.0, 1.0)),
    signs=hnp.arrays(bool, (7, NARROW_BATCH)),
)
def test_one_step_is_the_documented_update(
    phases, j_max, j_max_ancilla, c_cnst, beta, dt, p_start, p_end, eta, k, unit, signs
):
    # either step body, fed a state inside the clamp and a noise row, is
    # c + dt ((p - 1 - c^2) c - beta dE/dc) + n clamped to +-c_sat, to a few
    # ulps of the largest of the update and its terms: each side rounds ~10
    # operations, each to half an ulp of a partial sum of that size
    program = CouplingProgram(tuple(phases), j_max=j_max, j_max_ancilla=j_max_ancilla,
                              c_cnst=c_cnst)
    params = effective_tile_couplings(program)
    schedule = AnnealSchedule(duration=10 * dt, dt=dt, p_start=p_start, p_end=p_end)
    hi, scale = schedule.c_sat, eta * math.sqrt(dt)
    state, n = unit * hi, np.where(signs, -scale, scale)
    seeds = np.random.SeedSequence(0).spawn(NARROW_BATCH)

    def one_step(name, narrow_batch):
        body = getattr(anneal, name)

        def spy(x, noise, amps, start, *rest):  # step k of the block, from state
            x[...] = state
            noise[k] = n
            return body(x, noise[k : k + 1], amps[k : k + 1], start + k, *rest)

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(anneal, name, spy)
            patch.setattr(anneal, "NARROW_BATCH", narrow_batch)
            final, _ = _integrate_batch(params, schedule, eta, beta, seeds)
        return final.T

    c1, c2, c3, c4, c5, c6, cr = state
    j, j_anc = np.array(params.j)[:, None], np.array([params.j_a1, params.j_a2])[:, None]
    others = np.array([c2 * c3 * c4, c1 * c3 * c4, c1 * c2 * c4, c1 * c2 * c3])
    bracket = np.array([c5 * params.j_a1, c6 * params.j_a2, np.full_like(c5, params.c_cnst)])
    fields, anc = j * cr, -j_anc * (c1 * c2 * c3 * c4)
    grad = np.vstack([fields - others * bracket.sum(axis=0), anc, (j * state[:4]).sum(axis=0)])
    gain = schedule.pump(k * dt) - 1.0
    update = state + dt * ((gain - state**2) * state - beta * grad) + n
    expected = np.clip(update, -hi, hi)
    grad_terms = np.vstack([
        np.maximum(abs(fields), (abs(others[:, None]) * abs(bracket)).max(axis=1)),
        abs(anc),
        abs(j * state[:4]).max(axis=0),
    ])
    largest = np.max([abs(state), dt * abs(gain * state), dt * abs(state**3),
                      dt * beta * grad_terms, abs(n), abs(update)], axis=0)
    for name, narrow_batch in (("_row_steps", NARROW_BATCH), ("_float_steps", NARROW_BATCH + 1)):
        error = abs(one_step(name, narrow_batch) - expected)
        assert np.all(error <= 8 * np.spacing(largest)), name


def test_unsettled_trials_are_reported_not_classified():
    # a ramp that barely crosses threshold leaves amplitudes near zero
    short = AnnealSchedule(duration=0.5, dt=0.05, p_start=0.5, p_end=1.01)
    result = simulate_trial(even_parity_program(), schedule=short, seed=0)
    assert not result.settled
    assert result.config is None and result.canonical_config is None

    hist = run_trials(even_parity_program(), trials=20, schedule=short, seed=3)
    assert hist.unsettled == 20
    assert hist.counts == {}


def test_even_parity_program_statistics():
    hist = run_trials(even_parity_program(), trials=300, seed=2024)
    assert hist.unsettled == 0
    assert hist.support() == EVEN_LABELS
    for label in EVEN_LABELS:
        assert abs(hist.probability(label) - 0.125) < 0.07


def test_alternating_program_raw_and_canonical():
    raw = run_trials(alternating_field_program(), trials=200, seed=2024)
    assert raw.unsettled == 0
    assert raw.support() == {"0101", "1010"}

    folded = run_trials(
        alternating_field_program(), trials=200, seed=2024, canonical=True
    )
    assert folded.support() == {"0101"}

    full = run_trials(
        alternating_field_program(), trials=200, seed=2024, canonical=True, n_bits=6
    )
    assert full.support() == {"010111"}


def test_global_flip_symmetry_of_raw_readout():
    trials = 600
    hist = run_trials(alternating_field_program(), trials=trials, seed=5)
    assert hist.unsettled == 0
    three_sigma = 3 * 0.5 / math.sqrt(trials)
    assert abs(hist.probability("0101") - 0.5) <= three_sigma


def test_canonical_readout_reaches_tile_ground_energy():
    for program in (even_parity_program(), alternating_field_program()):
        params = effective_tile_couplings(program)
        floor, _ = ground_set(params)
        hist = run_trials(program, trials=250, seed=42, canonical=True, n_bits=6)
        assert hist.unsettled == 0
        for label in hist.support():
            energy = tile_energy(params, config_from_label(label))
            assert energy <= floor + 1e-9


def test_noisy_anneals_meet_the_tile_ground_set_within_a_binomial_band():
    # the paper's check as a bound on rates, not on one realisation's counts:
    # at confidence 1 - ALPHA, at least 99.5 % of canonical readouts lie in the
    # tile's analytic ground set, and under 0.5 % read odd parity or end
    # unsettled (about 1e-4 of even-program trials do each, by design)
    for program in (even_parity_program(), alternating_field_program()):
        fractions = gate(program, trials=4000, seed=2024)
        assert fractions["hit"][1] >= 0.995
        assert fractions["odd"][2] <= 0.005
        assert fractions["unsettled"][2] <= 0.005
    # the band's closed forms at no and at every success
    assert clopper_pearson(0, 4000) == (0.0, pytest.approx(1 - (ALPHA / 2) ** (1 / 4000)))
    assert clopper_pearson(4000, 4000) == (pytest.approx((ALPHA / 2) ** (1 / 4000)), 1.0)


def test_gate_command_prints_each_program_histogram_and_bands(capsys):
    anneal_gate.main(["--trials", "12", "--seed", "3"])
    report = json.loads(capsys.readouterr().out)
    assert (report["trials"], report["seed"]) == (12, 3)
    assert list(report["programs"]) == ["even", "alternating", "random0", "random1", "random2"]
    for entry in report["programs"].values():
        assert sum(entry["histogram"].values()) == 12
        program = CouplingProgram(
            tuple(entry["pump_phase"]), j_max=entry["j_max"], c_cnst=entry["c_cnst"]
        )
        assert entry["bands"] == {k: list(v) for k, v in gate(program, 12, seed=3).items()}


def test_step_timing_command_prints_each_body_width_and_step_count(capsys):
    anneal_steps.main(["--widths", "2", "9", "--steps", "10", "20", "--repeats", "2"])
    report = json.loads(capsys.readouterr().out)
    assert report["unit"] == "us per batch step"
    for body in ("floats", "rows"):
        cells = report["timings"][body]
        assert list(cells) == ["2", "9"] and all(list(c) == ["10", "20"] for c in cells.values())
        assert all(0 < t["min"] <= t["median"] for c in cells.values() for t in c.values())
    anneal_steps.main(["--widths", "4", "--steps", "10", "--repeats", "1", "--trials", "9"])
    assert json.loads(capsys.readouterr().out)["unit"] == "us per trial-step"
    assert anneal.NARROW_BATCH == NARROW_BATCH


def test_histogram_is_chunk_size_invariant():
    reference = run_trials(even_parity_program(), trials=60, seed=9, chunk_size=128)
    for chunk in (1, 37):
        hist = run_trials(even_parity_program(), trials=60, seed=9, chunk_size=chunk)
        assert hist.counts == reference.counts
        assert hist.unsettled == reference.unsettled
    assert reference.seed == 9
    assert reference.n_bits == 4


@settings(deadline=None, max_examples=25)
@given(st.data())
def test_histogram_is_invariant_under_any_chunking(data):
    trials = data.draw(st.integers(min_value=1, max_value=12))
    chunk = data.draw(st.integers(min_value=1, max_value=trials))
    seed = data.draw(st.integers(min_value=0, max_value=2**32 - 1))
    canonical = data.draw(st.booleans())
    n_bits = data.draw(st.sampled_from([4, 6]))
    # 300 steps cross a noise block boundary; about a third of the trials
    # are still unsettled at the end of this short ramp
    schedule = AnnealSchedule(duration=15.0, dt=0.05)

    def hist(chunk_size):
        return run_trials(
            even_parity_program(),
            trials,
            seed=seed,
            schedule=schedule,
            canonical=canonical,
            n_bits=n_bits,
            chunk_size=chunk_size,
        )

    reference, chunked = hist(trials), hist(chunk)
    assert chunked.counts == reference.counts
    assert chunked.unsettled == reference.unsettled


@pytest.mark.parametrize("trials", [1, NARROW_BATCH], ids=["narrow", "wide"])
def test_run_trials_memory_does_not_grow_with_schedule_length(trials):
    program = even_parity_program()
    # warm up first, so lazy imports inside numpy are not counted
    run_trials(program, trials, seed=1, schedule=AnnealSchedule(duration=0.1))
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        run_trials(program, trials, seed=1, schedule=AnnealSchedule(duration=200.0))
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    # 20 000 steps: noise held for the whole schedule would take 1.12 MB a trial
    assert peak < 1_000_000


def test_run_trials_validation():
    with pytest.raises(ValueError):
        run_trials(even_parity_program(), trials=0)
    with pytest.raises(ValueError):
        run_trials(even_parity_program(), trials=10, n_bits=5)
    with pytest.raises(ValueError):
        run_trials(even_parity_program(), trials=10, chunk_size=0)
    # a negative noise strength or feedback gain has no meaning in the model
    for kwargs in ({"eta": -0.05}, {"beta": -0.2}, {"eta": math.nan}):
        name = next(iter(kwargs))
        with pytest.raises(ValueError, match=f"^{name} must be >= 0"):
            run_trials(even_parity_program(), trials=10, **kwargs)
        with pytest.raises(ValueError, match=f"^{name} must be >= 0"):
            simulate_trial(even_parity_program(), **kwargs)


def test_deterministic_part_converges_at_first_order():
    gentle = CouplingProgram(
        pump_phase=(0.0, math.pi, 0.0, math.pi, 0.0, 0.0), j_max=0.3, c_cnst=0.5
    )

    def final_state(dt):
        r = simulate_trial(
            gentle,
            schedule=AnnealSchedule(duration=50.0, dt=dt),
            eta=0.0,
            seed=33,
            record_trajectory=False,
        )
        return np.concatenate([r.state.c, [r.state.c_ref]])

    reference = final_state(2.5e-3)
    errors = {
        dt: float(np.max(np.abs(final_state(dt) - reference)))
        for dt in (2e-2, 1e-2, 5e-3)
    }
    assert errors[2e-2] > errors[1e-2] > errors[5e-3] > 0.0
    assert errors[2e-2] < 5e-4
    # halving dt should roughly halve the error; against a finite
    # reference the ideal ratios are 7/3 and 3, so accept a loose band
    assert 1.8 < errors[2e-2] / errors[1e-2] < 4.0
    assert 1.8 < errors[1e-2] / errors[5e-3] < 4.5


def test_integration_blowup_is_reported(monkeypatch):
    # the step subtracts beta dt dE/dc; at beta = 10 and dt = 0.1 the folded
    # couplings equal the program's, and the bracket times c_1 c_2 c_4 at the
    # clamp overflows on the second step
    hot = CouplingProgram(pump_phase=(0.0,) * 6, j_max=1.0, c_cnst=1e308)
    schedule = AnnealSchedule(duration=1.0, dt=0.1)
    with pytest.raises(IntegrationBlowupError) as err:
        simulate_trial(hot, schedule=schedule, seed=0, beta=10.0)
    assert err.value.dt == 0.1
    assert err.value.t == pytest.approx(0.2, rel=1e-12)
    assert "non-finite" in str(err.value)
    # batches on both sides of NARROW_BATCH report the same step as a single
    # trial: for an overflow in the step, for infinite noise, for a folded
    # coupling beta dt C that overflows, and for pump factors
    # 1 + (p - 1) dt that overflow on the first two steps, where the rows
    # would clamp an infinite state and overflow only on the third
    steep = AnnealSchedule(duration=20.0, dt=2.0, p_start=-1e308)
    for program, sched, eta, beta, t in (
        (hot, schedule, DEFAULT_ETA, 10.0, 0.2),
        (even_parity_program(), schedule, math.inf, DEFAULT_BETA, 0.1),
        (hot, schedule, DEFAULT_ETA, 20.0, 0.1),
        (even_parity_program(), steep, DEFAULT_ETA, DEFAULT_BETA, 2.0),
    ):
        for trials in (1, 3, NARROW_BATCH):
            with pytest.raises(IntegrationBlowupError) as err:
                run_trials(program, trials=trials, schedule=sched, seed=0, eta=eta, beta=beta)
            assert err.value.t == pytest.approx(t, rel=1e-12)
    # noise of 1e307 leaves every amplitude in the clamp at +-c_sat = +-0.15,
    # with the sign of its increment. At beta = 1 and dt = 1 the folded
    # couplings are the program's, and the ancilla bracket
    # c_5 J_a1 + c_6 J_a2 + C then overflows only on a step that starts with
    # both ancillas at +c_sat, a different step in each trial; either path
    # reports the batch's first
    wild = CouplingProgram((0.0,) * 6, j_max=0.0, j_max_ancilla=1e308, c_cnst=1.7e308)
    params = effective_tile_couplings(wild)
    coarse = AnnealSchedule(duration=20.0, dt=1.0, p_end=1.01)
    seeds = np.random.SeedSequence(3).spawn(5)

    def blowup_time(seeds):
        with pytest.raises(IntegrationBlowupError) as err:
            _integrate_batch(params, coarse, 1e307, 1.0, seeds)
        return err.value.t

    singles = [blowup_time([s]) for s in seeds]
    assert len(set(singles)) > 1
    assert blowup_time(seeds) == min(singles)
    monkeypatch.setattr(anneal, "NARROW_BATCH", 1)
    assert blowup_time(seeds) == min(singles)
    assert blowup_time(seeds[:1]) == singles[0]


def test_wall_clock_report():
    assert wall_clock_seconds(AnnealSchedule(), kappa=2e7) == 2.5e-6
    with pytest.raises(ValueError):
        wall_clock_seconds(AnnealSchedule(), kappa=0.0)
    # the report is a finite duration: an infinite kappa, or one so small
    # that the quotient overflows, is refused naming kappa
    for kappa in (math.inf, math.nan, 1e-320):
        with pytest.raises(ValueError, match="^kappa "):
            wall_clock_seconds(AnnealSchedule(), kappa=kappa)
    assert wall_clock_seconds(AnnealSchedule(), kappa=1e-300) == 50.0 / 1e-300


def carrier(phase, f0=5.0, dt=0.01, n=2000, noise_std=0.0, seed=None):
    t = np.arange(n) * dt
    x = np.cos(2 * np.pi * f0 * t + phase)
    if noise_std:
        x = x + np.random.default_rng(seed).normal(0.0, noise_std, n)
    return x


def test_dft_phase_recovers_clean_carriers():
    for phase in (0.0, np.pi / 3, np.pi):
        est = dft_phase(carrier(phase), dt=0.01, f0=5.0)
        assert abs(est - phase) < 1e-6
    est = dft_phase(carrier(-np.pi / 3), dt=0.01, f0=5.0)
    assert est == pytest.approx(-np.pi / 3, abs=1e-6)


def test_dft_phase_window_and_input_validation():
    with pytest.raises(InsufficientDataError):
        dft_phase(carrier(0.0, n=60), dt=0.01, f0=5.0)
    # exactly four periods is the shortest accepted window
    dft_phase(carrier(0.0, n=80), dt=0.01, f0=5.0)
    with pytest.raises(ValueError):
        dft_phase([], dt=0.01, f0=5.0)
    with pytest.raises(ValueError):
        dft_phase(np.zeros((4, 4)), dt=0.01, f0=5.0)
    with pytest.raises(ValueError):
        dft_phase(carrier(0.0), dt=0.0, f0=5.0)
    with pytest.raises(ValueError):
        dft_phase(carrier(0.0), dt=0.01, f0=-5.0)
    # one NaN sample makes the phase NaN (read out as 0), an infinite one -pi/4
    for bad in (math.nan, math.inf, -math.inf):
        samples = carrier(0.0)
        samples[7] = bad
        with pytest.raises(ValueError, match="^samples must be finite"):
            dft_phase(samples, dt=0.01, f0=5.0)
        with pytest.raises(ValueError, match="^samples must be finite"):
            readout_bit(samples, dt=0.01, f0=5.0)
        with pytest.raises(ValueError, match="^dt must be finite"):
            dft_phase(carrier(0.0), dt=abs(bad), f0=5.0)
        with pytest.raises(ValueError, match="^f0 must be finite"):
            dft_phase(carrier(0.0), dt=0.01, f0=abs(bad))


def test_dft_phase_refuses_a_window_whose_phase_overflows():
    # finite dt and f0 whose window span len(samples) * dt * f0 overflows
    samples = np.cos(np.arange(100) * 0.5)
    with pytest.raises(ValueError, match=r"dt=.*, f0="):
        dft_phase(samples, 1e200, 1e200)
    with pytest.raises(ValueError, match="carrier phase overflows"):
        readout_bit(samples, 1e200, 1e200)
    # 2 pi f0 overflows, but no phase 2 pi f0 t in the window does: a
    # carrier at a quarter cycle per sample past 1e8 whole cycles
    dt, f0 = 1e-300, 1.0000000025e308
    phase = 0.7
    x = np.cos(2 * np.pi * (f0 * (np.arange(100) * dt)) + phase)
    assert abs(dft_phase(x, dt, f0) - phase) < 1e-3
    assert readout_bit(x, dt, f0) == 0


def test_dft_phase_tolerates_noise():
    true_phase = np.pi / 3
    x = carrier(true_phase, noise_std=0.0707, seed=11)
    est = dft_phase(x, dt=0.01, f0=5.0)
    assert abs(est - true_phase) < 0.05


def test_classification_boundaries():
    assert classify_state(0.0) == 0
    assert classify_state(np.pi) == 1
    assert classify_state(-np.pi) == 1
    assert classify_state(2 * np.pi) == 0
    assert classify_state(3 * np.pi) == 1
    assert classify_state(0.4 * np.pi) == 0
    assert classify_state(0.6 * np.pi) == 1
    for phase in (np.pi / 2, -np.pi / 2):
        with pytest.raises(AmbiguousPhaseError):
            classify_state(phase)
    # a non-finite phase names no state: refused by name, never read out as 0
    for phase in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="^phase must be finite"):
            classify_state(phase)


def test_readout_bit_chain():
    assert readout_bit(carrier(0.0), dt=0.01, f0=5.0) == 0
    noisy = carrier(np.pi, noise_std=0.0707, seed=13)
    assert readout_bit(noisy, dt=0.01, f0=5.0) == 1
