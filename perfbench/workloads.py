"""The four seeded workloads.

Each workload is a function ``(seed, directory) -> Workload``: it queues every
input file under ``directory`` (``jobs.flush_inputs`` writes them), derives
every array from the seed, and returns the fixed list of jobs one round runs,
the malformed-input probes, the set-up's warm-up job and how to read its
throughput. The same seed gives the same inputs and the same outputs, so
every round must reproduce the first round's digests.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

import jpotile.anneal as anneal
import jpotile.circuit as circuit
import jpotile.cli as cli
import jpotile.lhz as lhz
import jpotile.quantum as quantum
import jpotile.spins as spins
import jpotile.tile as tile
from jpotile.errors import DecodeError

from jobs import (
    EVEN_LABELS, UNSETTLED_SHARE, Job, Probe, binomial_band, cli_job, digest,
    histogram, parse_csv, require, write_json, write_text,
)

PI = math.pi


@dataclass
class Workload:
    jobs: list
    probes: list
    work_group: str          # jobs whose work sets the throughput metric
    work_metric: str         # name and unit of that throughput in the summary
    work_unit: str
    warm_up: Job             # run in set-up; traced rounds run it too
    extra: Callable[[dict], dict] = field(default=lambda rnd: {})


def _seeds(rng: np.random.Generator, count: int) -> list[int]:
    return [int(s) for s in rng.integers(0, 2**31, size=count)]


def _usage_probe(args: list) -> Probe:
    # a required option left out is a usage error, documented as exit 1
    return Probe("usage: required option missing", args, 1)


# ---------------------------------------------------------------------------
# cross-layer smoke job: one tiny call into every layer, with known answers.
# It is the warm-up job of every workload's set-up. Traced runs also run it
# once per round, so every per-layer time is measured on every workload
# instead of reading a constant zero on the layers the workload leaves idle.


def smoke_job(directory: str) -> Job:
    quantum_in = write_json(
        os.path.join(directory, "smoke_quantum.json"),
        {"j_a": 1.0, "j_c": 1.0, "j": [0.25, -0.25, 0.25, -0.25]},
    )
    program_in = write_json(
        os.path.join(directory, "smoke_program.json"),
        {"pump_phase": [PI / 2] * 6, "c_cnst": 5.0,
         "schedule": {"duration": 0.1, "dt": 0.01}},
    )
    problem_in = write_json(
        os.path.join(directory, "smoke_problem.json"),
        {"n": 4, "h": [0, 0, 0, 0], "J": [[0, 1, -1.0], [2, 3, 2.0]]},
    )
    out = os.path.join(directory, "smoke_out.csv")
    f0, dt = 1.0e6, 1.0 / 64e6
    t = np.arange(256) * dt

    def run():
        codes = [
            cli.main(["tile", "quantum", "--params", quantum_in, "--trials", "2",
                      "--seed", "1", "--out", out, "--quiet"]),
            cli.main(["anneal", "--program", program_in, "--trials", "2",
                      "--seed", "1", "--out", out, "--quiet"]),
            cli.main(["lhz", "map", "--n", "4", "--problem", problem_in,
                      "--format", "json", "--out", out, "--quiet"]),
        ]
        os.unlink(out)
        trial = anneal.simulate_trial(
            anneal.even_parity_program(), anneal.AnnealSchedule(duration=0.1), seed=1
        )
        bits = [anneal.readout_bit(np.cos(2 * PI * f0 * t + ph), dt, f0)
                for ph in (0.0, PI)]
        energy, ground = tile.ground_set(tile.TileParams((0, 0, 0, 0), 1, 1, 1))
        points = circuit.flux_sweep(
            circuit.ResonatorParams(2 * PI * 5e9, 1e-10, 5e-13),
            circuit.SquidParams(7.5e-12, 7.5e-12, 80e-6, 80e-6),
            1.0, np.array([0.0, circuit.PHI0 / 2]),
        )
        _, volts = circuit.rsj_iv_curve(
            circuit.JunctionParams(2e-6, 15.0), 0.0, np.array([-4e-6, 0.0, 4e-6])
        )
        j = np.zeros((4, 4))
        j[0, 1] = j[1, 0] = -1.0
        j[2, 3] = j[3, 2] = 2.0
        problem = spins.IsingProblem(np.zeros(4), j)
        layout = lhz.build_layout(4)
        fields = lhz.map_couplings(problem)
        word = lhz.encode(layout, [1, -1, 1, -1])
        decoded = lhz.decode_readout(word, layout)
        products = lhz.tile_products(layout, word)
        physical = lhz.lhz_energy(lhz.LhzProblem(fields, 4.0), layout, word)
        doc = lhz.layout_to_dict(layout, fields)
        broken = word.copy()
        broken[0] = -broken[0]
        try:
            lhz.decode_readout(broken, layout)
            rejected = False
        except DecodeError:
            rejected = True
        return (codes, trial, bits, energy, len(ground), points, volts, decoded,
                products, physical, spins.ising_energy(problem, [1, -1, 1, -1]),
                -4.0 * len(layout.tiles), doc, rejected)

    def check(result):
        (codes, trial, bits, energy, n_ground, points, volts, decoded, products,
         physical, logical, constant, doc, rejected) = result
        require(codes == [0, 0, 0], f"smoke CLI exit codes {codes}")
        require(trial.trajectory.shape == (11, 7), "smoke trajectory shape")
        require(bits == [0, 1], f"smoke carrier bits {bits}")
        require(energy == -3.0 and n_ground == 8, "smoke field-free ground set")
        require(not points[0].clipped and points[1].clipped, "smoke flux clipping")
        require(volts[1] == 0.0 and volts[2] > 0 > volts[0], "smoke IV backbone")
        require(list(decoded) == [1, -1, 1, -1], "smoke decode")
        require(bool(np.all(products == 1)), "smoke tile products")
        require(physical - constant == logical, "smoke LHZ energy identity")
        require(len(doc["tiles"]) == 3, "smoke layout document")
        require(rejected, "smoke corrupted word was decoded")
        return digest(repr((trial.state.c.tobytes(), energy, physical)))

    return Job("smoke", run, check, rejects=1)


# ---------------------------------------------------------------------------
# anneal_ensemble: CLI ensembles of the two paper programs and random ones


ENSEMBLE_TRIALS = 128   # one full default chunk; the paper histograms use 1000
RANDOM_PROGRAMS = 4


def _program_doc(program: anneal.CouplingProgram) -> dict:
    return {"pump_phase": list(program.pump_phase), "j_max": program.j_max,
            "c_cnst": program.c_cnst}


def _ground_labels(program: anneal.CouplingProgram) -> frozenset:
    _, configs = tile.ground_set(anneal.effective_tile_couplings(program))
    return frozenset(c.label[:4] for c in configs)


def _anneal_probes(directory: str, base: dict, cases: list) -> list:
    probes = []
    for index, (name, doc) in enumerate(cases):
        path = os.path.join(directory, f"probe_{index}.json")
        if isinstance(doc, str):
            write_text(path, doc)
        else:
            write_json(path, {**base, **doc})
        probes.append(Probe(name, ["anneal", "--program", path, "--trials", "2",
                                   "--seed", "1"], 2))
    probes.append(_usage_probe(["anneal", "--trials", "2"]))
    return probes


def anneal_ensemble(seed: int, directory: str) -> Workload:
    rng = np.random.default_rng([seed, 1])
    programs = [("even", anneal.even_parity_program()),
                ("alternating", anneal.alternating_field_program())]
    for k in range(RANDOM_PROGRAMS):
        phases = tuple(float(v) for v in rng.uniform(0.0, 2 * PI, 6))
        programs.append(
            (f"random{k}", anneal.CouplingProgram(phases, j_max=2.0, c_cnst=2.0))
        )
    job_seeds = _seeds(rng, len(programs))
    trials = ENSEMBLE_TRIALS
    jobs = []
    for (name, program), job_seed in zip(programs, job_seeds):
        path = write_json(os.path.join(directory, f"{name}.json"), _program_doc(program))
        ground = _ground_labels(program)

        def check(data, name=name, ground=ground):
            counts, config = histogram(data, trials)
            support = {label for label, c in counts.items() if c > 0}
            if name == "even":
                require(config["unsettled"] <= UNSETTLED_SHARE * trials,
                        "even program left too many trials unsettled")
                require(support == EVEN_LABELS, f"even support {sorted(support)}")
                band = max(0.035, binomial_band(0.125, trials))
                for label in EVEN_LABELS:
                    require(abs(counts[label] / trials - 0.125) <= band,
                            f"even program: {label} outside 0.125 +/- {band:.3f}")
            elif name == "alternating":
                require(config["unsettled"] <= UNSETTLED_SHARE * trials,
                        "alternating program left too many trials unsettled")
                require(support <= ground, f"alternating stray states {sorted(support)}")
            else:
                return {"hits": sum(c for label, c in counts.items() if label in ground)}

        jobs.append(cli_job(
            f"anneal:{name}",
            ["anneal", "--program", path, "--trials", str(trials),
             "--seed", str(job_seed), "--canonical"],
            os.path.join(directory, f"{name}.out.csv"),
            check, group="anneal", work=trials,
        ))

    base = _program_doc(anneal.even_parity_program())
    probes = _anneal_probes(directory, base, [
        ("duration Infinity", {"schedule": {"duration": math.inf}}),
        ("j_max NaN", {"j_max": math.nan}),
        ("pump_phase of 5", {"pump_phase": [0.0] * 5}),
        ("dt zero", {"schedule": {"dt": 0.0}}),
        ("pump_phase with a string", {"pump_phase": ["0"] * 6}),
        ("truncated JSON", '{"pump_phase": [0, 0,'),
    ])

    def extra(rnd: dict) -> dict:
        hits = sum(rnd["info"].get(f"anneal:random{k}", {}).get("hits", 0)
                   for k in range(RANDOM_PROGRAMS))
        total = RANDOM_PROGRAMS * trials
        seconds = sum(rnd["jobs"][f"anneal:random{k}"] for k in range(RANDOM_PROGRAMS))
        p = hits / total
        t_trial = seconds / total
        if p >= 1.0:
            factor = 1.0
        elif p <= 0.0:
            factor = math.inf
        else:
            factor = max(1.0, math.log(0.01) / math.log(1.0 - p))
        return {"success_prob": (p, "ratio"), "tts99_s": (t_trial * factor, "s")}

    return Workload(jobs, probes, "anneal", "trials_per_s", "1/s",
                    warm_up=smoke_job(directory), extra=extra)


# ---------------------------------------------------------------------------
# anneal_trace: the integrator used narrow and long


TRACE_SEEDS = 2
TRACE_DURATION = 100.0
LONG_TRIALS = 32
LONG_DURATION = 250.0


def anneal_trace(seed: int, directory: str) -> Workload:
    rng = np.random.default_rng([seed, 2])
    seeds = _seeds(rng, TRACE_SEEDS + 1)
    f0, dt = 1.0e6, 1.0 / 64e6
    t = np.arange(1024) * dt
    jobs = []
    program = anneal.alternating_field_program()
    schedule = anneal.AnnealSchedule(duration=TRACE_DURATION)
    for k in range(TRACE_SEEDS):
        def run(job_seed=seeds[k]):
            result = anneal.simulate_trial(program, schedule, seed=job_seed,
                                           record_trajectory=True)
            final = result.trajectory[-1]
            bits = [anneal.readout_bit(np.cos(2 * PI * f0 * t + (0.0 if c > 0 else PI)),
                                       dt, f0) for c in final]
            return result, bits

        def check(output):
            result, bits = output
            steps = schedule.n_steps
            require(result.trajectory.shape == (steps + 1, 7), "trajectory shape")
            require(result.times[-1] == steps * schedule.dt, "trajectory times")
            final = result.trajectory[-1]
            require(np.array_equal(final[:6], result.state.c)
                    and final[6] == result.state.c_ref, "trajectory end != state")
            require(bits == [int(c < 0) for c in final], f"carrier readout {bits}")
            if result.settled:
                signs = tuple(int(s) for s in np.sign(final[:6]))
                require(result.config.spins == signs, "config != amplitude signs")
            return digest(result.trajectory.tobytes())

        jobs.append(Job(f"simulate_trial:{k}", run, check, "integrate",
                        schedule.n_steps))

    long_schedule = anneal.AnnealSchedule(duration=LONG_DURATION)

    def run_long():
        return anneal.run_trials(anneal.even_parity_program(), LONG_TRIALS,
                                 seed=seeds[-1], schedule=long_schedule,
                                 canonical=True)

    def check_long(hist):
        require(hist.trials == LONG_TRIALS
                and hist.unsettled <= UNSETTLED_SHARE * LONG_TRIALS,
                "long ramp left too many trials unsettled")
        require(hist.support() <= EVEN_LABELS, f"odd states {sorted(hist.support())}")
        return digest(repr(sorted(hist.counts.items())))

    jobs.append(Job("run_trials:long", run_long, check_long, "integrate",
                    LONG_TRIALS * long_schedule.n_steps))

    base = _program_doc(anneal.even_parity_program())
    probes = _anneal_probes(directory, base, [
        ("duration Infinity", {"schedule": {"duration": math.inf}}),
        ("p_end below threshold", {"schedule": {"p_end": 0.9}}),
        ("duration not a multiple of dt", {"schedule": {"duration": 1.005}}),
        ("eta as a string", {"eta": "0.05"}),
    ])
    return Workload(jobs, probes, "integrate", "trial_steps_per_s", "1/s",
                    warm_up=smoke_job(directory))


# ---------------------------------------------------------------------------
# tile_spectra: quantum tile eigensolves, tile enumeration, circuit tables


SWEEP_TRIALS = 100
FIXED_TRIALS = 500
ENUMERATE_FILES = 100
CLOSED_FORM_CASES = 16
SWEEP_POINTS = 10001
IV_POINTS = 50000


def _tile_oracle(j, j_a1, j_a2, c_cnst, clamp):
    idx = np.arange(64)
    s = 2 * ((idx[:, None] >> np.arange(5, -1, -1)) & 1) - 1
    if clamp is not None:
        s = s[(s[:, 4] == clamp[0]) & (s[:, 5] == clamp[1])]
    parity = np.prod(s[:, :4], axis=1)
    energy = s[:, :4] @ np.asarray(j, float) - (
        j_a1 * s[:, 4] + j_a2 * s[:, 5] + c_cnst) * parity
    labels = ["".join("1" if v == 1 else "0" for v in row) for row in s]
    return energy, labels


def tile_spectra(seed: int, directory: str) -> Workload:
    rng = np.random.default_rng([seed, 3])
    j_a, j_c = (float(v) for v in rng.uniform(0.8, 1.2, 2))
    gap = quantum.spectral_gap(quantum.build_hamiltonian((0, 0, 0, 0), j_a, j_c))
    sweep_in = write_json(os.path.join(directory, "sweep.json"), {
        "j_a": j_a, "j_c": j_c, "sweep": True,
        "noise": {"thermal_coefficient": 0.1 * gap, "distribution": "uniform"}})
    j_fixed = [float(v) for v in rng.choice([-1, 1], 4) * rng.uniform(0.3, 1.0, 4)]
    fixed_coef = 0.02
    fixed_in = write_json(os.path.join(directory, "fixed.json"), {
        "j_a": j_a, "j_c": j_c, "j": j_fixed,
        "noise": {"thermal_coefficient": fixed_coef, "distribution": "normal"}})
    sweep_seed, fixed_seed, iv_seed = _seeds(rng, 3)
    jobs = []

    def check_sweep(data):
        _, header, rows = parse_csv(data)
        labels = {r[0] for r in rows}
        require(labels == EVEN_LABELS, f"sweep support {sorted(labels)}")
        require(abs(sum(float(r[1]) for r in rows) - 1.0) < 1e-4, "sweep mass")

    jobs.append(cli_job(
        "tile quantum:sweep",
        ["tile", "quantum", "--params", sweep_in, "--trials", str(SWEEP_TRIALS),
         "--seed", str(sweep_seed)],
        os.path.join(directory, "sweep.out.csv"), check_sweep,
        group="eigensolve", work=len(quantum.default_field_sweep(j_c)) * SWEEP_TRIALS,
    ))

    s4 = 2 * ((np.arange(16)[:, None] >> np.arange(3, -1, -1)) & 1) - 1
    block = s4 @ np.asarray(j_fixed) - j_c * np.prod(s4, axis=1)
    near = {format(i, "04b") for i in range(16) if block[i] <= block.min() + 10 * fixed_coef}

    def check_fixed(data):
        _, header, rows = parse_csv(data)
        mass = sum(float(r[1]) for r in rows if r[0] in near)
        require(mass >= 0.999, f"fixed-field mass {mass:.4f} off the classical ground")

    jobs.append(cli_job(
        "tile quantum:fixed",
        ["tile", "quantum", "--params", fixed_in, "--trials", str(FIXED_TRIALS),
         "--seed", str(fixed_seed), "--format", "csv"],
        os.path.join(directory, "fixed.out.csv"), check_fixed,
        group="eigensolve", work=FIXED_TRIALS,
    ))

    cases = [(tuple(j_fixed), j_a, j_c)] + [
        (tuple(float(v) for v in rng.uniform(-2, 2, 4)),
         float(rng.uniform(0, 2)), float(rng.uniform(0, 2)))
        for _ in range(CLOSED_FORM_CASES - 1)
    ]

    def run_closed_form():
        return [quantum.ground_states(quantum.build_hamiltonian(*c))[0] for c in cases]

    def check_closed_form(energies):
        for e, case in zip(energies, cases):
            expected = quantum.closed_form_ground_energy(*case)
            require(abs(e - expected) < 1e-9, f"ground energy {e} != closed form {expected}")
        return digest(np.asarray(energies).tobytes())

    jobs.append(Job("quantum:closed_form", run_closed_form, check_closed_form))

    halves = np.array([-1.0, -0.5, 0.0, 0.5, 1.0])
    for k in range(ENUMERATE_FILES):
        j = [float(v) for v in rng.choice(halves, 4)]
        j_a1, j_a2 = (float(v) for v in rng.choice(halves + 1.0, 2))
        c_cnst = float(rng.choice(halves[3:] + 0.5))
        clamp = [int(v) for v in rng.choice([-1, 1], 2)] if k % 4 == 3 else None
        fmt = "json" if k % 5 == 4 else "csv"
        path = write_json(os.path.join(directory, f"tile{k}.json"), {
            "j": j, "j_a1": j_a1, "j_a2": j_a2, "c_cnst": c_cnst,
            "clamp_ancilla": clamp})
        energy, labels = _tile_oracle(j, j_a1, j_a2, c_cnst, clamp)
        e_min = float(energy.min())
        ground = sorted(lab for lab, e in zip(labels, energy) if e <= e_min + 1e-9)

        def check_tile(data, fmt=fmt, energy=energy, e_min=e_min, ground=ground):
            if fmt == "json":
                doc = json.loads(data)
                config, got = doc["metadata"]["config"], [r["energy"] for r in doc["rows"]]
            else:
                config, header, rows = parse_csv(data)
                got = [float(r[6]) for r in rows]
            require(np.array_equal(np.asarray(got), energy), "tile energies differ")
            require(config["ground_energy"] == e_min, "tile ground energy differs")
            require(config["ground_states"] == ground, "tile ground states differ")

        jobs.append(cli_job(
            f"tile enumerate:{k}",
            ["tile", "enumerate", "--params", path, "--format", fmt],
            os.path.join(directory, f"tile{k}.out.{fmt}"), check_tile,
        ))

    scale = rng.uniform(0.9, 1.1, 3)
    squid = {"l1": 7.5e-12, "l2": 7.5e-12, "i_c1": 80e-6 * scale[0], "i_c2": 80e-6 * scale[0]}
    target = 2 * PI * 7.5e9 * scale[1]
    current_to_flux = 8.3e-16 * scale[2]
    i_half = circuit.PHI0 / 2 / current_to_flux
    circuit_in = write_json(os.path.join(directory, "circuit.json"), {
        "squid": squid,
        "resonator": {"omega_r": 2 * PI * 5e9, "c_s": 5e-13},
        "target_omega0": target,
        "sweep": {"current_to_flux": current_to_flux, "i_start": 0.0,
                  "i_stop": 2 * i_half, "points": SWEEP_POINTS},
        "iv": {"junction": {"i_c": 2e-6, "r_shunt": 15.0},
               "i_start": -6e-6, "i_stop": 6e-6, "points": IV_POINTS, "dt_eff": 1e-12},
    })
    frac = current_to_flux * np.linspace(0.0, 2 * i_half, SWEEP_POINTS) / circuit.PHI0
    expect_clipped = int(np.count_nonzero(np.abs(frac % 1.0 - 0.5) < circuit.FLUX_GUARD))

    def check_sweep_table(data):
        config, header, rows = parse_csv(data)
        require(len(config["clipped_i_dc"]) == expect_clipped >= 1, "clipped points")
        require(len(rows) == SWEEP_POINTS - expect_clipped, "sweep row count")
        require(abs(float(rows[0][3]) / (target / (2 * PI)) - 1.0) < 1e-9,
                "zero-flux resonance is not the calibration target")

    jobs.append(cli_job(
        "circuit sweep", ["circuit", "sweep", "--config", circuit_in],
        os.path.join(directory, "sweep_table.out.csv"), check_sweep_table,
    ))

    def check_iv(data):
        _, header, rows = parse_csv(data)
        table = np.array(rows, dtype=float)
        require(table.shape == (IV_POINTS, 2), "IV row count")
        i, v = table[:, 0], table[:, 1]
        above = np.abs(i) > 1.01 * 2e-6
        backbone = 15.0 * np.sign(i[above]) * np.sqrt(i[above] ** 2 - 4e-12)
        require(bool(np.all(np.abs(v[above] / backbone - 1.0) < 1e-6)), "IV above I_c")
        require(bool(np.all(v[np.abs(i) < 0.99 * 2e-6] == 0.0)), "IV below I_c")

    jobs.append(cli_job(
        "circuit iv",
        ["circuit", "iv", "--config", circuit_in, "--temp", "4.2", "--seed", str(iv_seed)],
        os.path.join(directory, "iv.out.csv"), check_iv,
    ))

    probe_files = {
        "tile NaN": {"j": [math.nan, 0, 0, 0], "j_a1": 1, "j_a2": 1, "c_cnst": 1},
        "clamp 0": {"j": [0, 0, 0, 0], "j_a1": 1, "j_a2": 1, "c_cnst": 1,
                    "clamp_ancilla": [0, 1]},
        "quantum no j_c": {"j_a": 1.0},
        "quantum cauchy": {"j_a": 1.0, "j_c": 1.0, "noise": {"distribution": "cauchy"}},
        "sweep points 1": {"squid": squid, "resonator": {"omega_r": 1e10, "c_s": 5e-13,
                           "l_r": 1e-10}, "sweep": {"current_to_flux": 1e-15,
                           "i_start": 0, "i_stop": 1, "points": 1}},
        "iv no junction": {"squid": squid, "resonator": {"omega_r": 1e10, "c_s": 5e-13,
                           "l_r": 1e-10}, "iv": {"i_start": 0, "i_stop": 1, "points": 5}},
    }
    paths = {name: write_json(os.path.join(directory, f"probe_{k}.json"), doc)
             for k, (name, doc) in enumerate(probe_files.items())}
    probes = [
        Probe("tile enumerate: j NaN", ["tile", "enumerate", "--params", paths["tile NaN"]], 2),
        Probe("tile enumerate: clamp_ancilla 0",
              ["tile", "enumerate", "--params", paths["clamp 0"]], 2),
        Probe("tile quantum: j_c missing",
              ["tile", "quantum", "--params", paths["quantum no j_c"], "--seed", "1"], 2),
        Probe("tile quantum: unknown distribution",
              ["tile", "quantum", "--params", paths["quantum cauchy"], "--seed", "1"], 2),
        Probe("circuit sweep: one point",
              ["circuit", "sweep", "--config", paths["sweep points 1"]], 2),
        Probe("circuit iv: junction missing",
              ["circuit", "iv", "--config", paths["iv no junction"], "--temp", "0"], 2),
        _usage_probe(["circuit", "iv", "--config", paths["iv no junction"]]),
    ]
    return Workload(jobs, probes, "eigensolve", "eigensolves_per_s", "1/s",
                    warm_up=smoke_job(directory))


# ---------------------------------------------------------------------------
# lhz_mapping: layout, mapping, encode/decode at n = 200, exhaustive search


MAP_N = 200
LAYOUT_SIZES = (50, 100, 200, 400)
ROUND_TRIPS = 4
CORRUPTED = 2
IDENTITY_CONFIGS = 1
ENUMERATE_N = 15
PENALTY = 8.0


def _integer_couplings(rng, n):
    j = np.zeros((n, n))
    iu = np.triu_indices(n, 1)
    j[iu] = rng.integers(-4, 5, iu[0].size)
    return j + j.T


def lhz_mapping(seed: int, directory: str) -> Workload:
    rng = np.random.default_rng([seed, 4])
    n = MAP_N
    j200 = _integer_couplings(rng, n)
    iu = np.triu_indices(n, 1)
    fields = -j200[iu]
    problem_in = write_json(os.path.join(directory, "problem.json"), {
        "n": n, "h": [0.0] * n,
        "J": [[int(a), int(b), float(j200[a, b])] for a, b in zip(*iu)]})
    jobs = []

    def check_map_csv(data):
        config, header, rows = parse_csv(data)
        require(header == ["k", "i", "j", "j_k"], f"lhz map header {header}")
        table = np.array(rows, dtype=float)
        require(table.shape == (fields.size, 4), "lhz map row count")
        require(np.array_equal(table[:, 1], iu[0]) and np.array_equal(table[:, 2], iu[1]),
                "lhz map pair order")
        require(np.array_equal(table[:, 3], fields), "lhz map fields")

    def check_map_json(data):
        doc = json.loads(data)
        require(doc["k_physical"] == fields.size, "lhz map k_physical")
        require(len(doc["tiles"]) == fields.size - n + 1, "lhz map tile count")
        require(np.array_equal(np.asarray(doc["j_fields"]), fields), "lhz map JSON fields")

    for fmt, check in (("csv", check_map_csv), ("json", check_map_json)):
        jobs.append(cli_job(
            f"lhz map:{fmt}",
            ["lhz", "map", "--n", str(n), "--problem", problem_in, "--format", fmt],
            os.path.join(directory, f"map.out.{fmt}"), check,
        ))

    def run_layouts():
        return [lhz.build_layout(size) for size in LAYOUT_SIZES]

    def check_layouts(layouts):
        for size, layout in zip(LAYOUT_SIZES, layouts):
            k = size * (size - 1) // 2
            require(layout.k_physical == k and len(layout.tiles) == k - size + 1,
                    f"layout counts at n={size}")
            a, b = np.triu_indices(size, 1)
            require(list(layout.pairs) == list(zip(a.tolist(), b.tolist())),
                    f"layout pair order at n={size}")
        return digest(repr([layout.tiles[-1] for layout in layouts]))

    jobs.append(Job("build_layout", run_layouts, check_layouts))

    problem = spins.IsingProblem(np.zeros(n), j200)
    layout = lhz.build_layout(n)

    def check_fields(mapped):
        require(np.array_equal(mapped, fields), "map_couplings differs")
        return digest(mapped.tobytes())

    jobs.append(Job("map_couplings", lambda: lhz.map_couplings(problem), check_fields))

    configs = rng.choice([-1, 1], (ROUND_TRIPS + CORRUPTED, n)).astype(np.int8)
    for k in range(ROUND_TRIPS):
        sigma = configs[k]
        word = sigma[iu[0]] * sigma[iu[1]]
        canonical = sigma * sigma[0]

        def run_trip(sigma=sigma):
            encoded = lhz.encode(layout, sigma)
            return encoded, lhz.tile_products(layout, encoded), lhz.decode_readout(
                encoded, layout)

        def check_trip(output, word=word, canonical=canonical):
            encoded, products, decoded = output
            require(np.array_equal(encoded, word), "encode differs from sigma_i*sigma_j")
            require(bool(np.all(products == 1)), "encoded word violates a tile")
            require(np.array_equal(decoded, canonical), "decode round trip differs")
            return digest(decoded.tobytes())

        jobs.append(Job(f"round trip:{k}", run_trip, check_trip, "readout", 1))

    for k in range(CORRUPTED):
        sigma = configs[ROUND_TRIPS + k]
        word = (sigma[iu[0]] * sigma[iu[1]]).astype(np.int8)
        word[int(rng.integers(word.size))] *= -1

        def run_corrupt(word=word):
            try:
                lhz.decode_readout(word, layout)
            except DecodeError as exc:
                return exc.tile_index
            return None

        def check_corrupt(tile_index):
            require(tile_index is not None, "corrupted word decoded without DecodeError")
            return str(tile_index)

        jobs.append(Job(f"corrupted:{k}", run_corrupt, check_corrupt, rejects=1))

    physical_problem = lhz.LhzProblem(fields, PENALTY)
    constant = -PENALTY * len(layout.tiles)
    for k in range(IDENTITY_CONFIGS):
        sigma = configs[k]
        word = (sigma[iu[0]] * sigma[iu[1]]).astype(np.int8)

        def run_identity(word=word):
            return lhz.lhz_energy(physical_problem, layout, word)

        def check_identity(energy, sigma=sigma):
            logical = spins.ising_energy(problem, sigma)
            require(energy - constant == logical, "LHZ energy identity broken")
            return repr(energy)

        jobs.append(Job(f"lhz_energy:{k}", run_identity, check_identity))

    j16 = _integer_couplings(rng, ENUMERATE_N)
    small = spins.IsingProblem(np.zeros(ENUMERATE_N), j16)
    every = 2 * ((np.arange(1 << ENUMERATE_N)[:, None]
                  >> np.arange(ENUMERATE_N - 1, -1, -1)) & 1) - 1
    energies = -0.5 * np.einsum("ci,ij,cj->c", every, j16, every)
    e16 = float(energies.min())
    ground16 = {tuple(int(v) for v in every[c]) for c in np.nonzero(energies == e16)[0]}

    def run_enumerate():
        return spins.enumerate_ground_states(
            lambda config: spins.ising_energy(small, config), ENUMERATE_N)

    def check_enumerate(output):
        energy, ground = output
        require(energy == e16 and ground == ground16, "exhaustive ground set differs")
        return digest(repr(sorted(ground)))

    jobs.append(Job("enumerate_ground_states", run_enumerate, check_enumerate))

    small_problem = {"n": 4, "h": [0, 0, 0, 0], "J": [[0, 1, 1.0]]}
    probe_files = {
        "n mismatch": small_problem,
        "local field": {**small_problem, "h": [0.5, 0, 0, 0]},
        "duplicate pair": {**small_problem, "J": [[0, 1, 1.0], [1, 0, 2.0]]},
        "coupling NaN": {**small_problem, "J": [[0, 1, math.nan]]},
        "index out of range": {**small_problem, "J": [[0, 4, 1.0]]},
    }
    probes = []
    for k, (name, doc) in enumerate(probe_files.items()):
        path = write_json(os.path.join(directory, f"probe_{k}.json"), doc)
        size = "5" if name == "n mismatch" else "4"
        probes.append(Probe(f"lhz map: {name}",
                            ["lhz", "map", "--n", size, "--problem", path], 2))
    probes.append(_usage_probe(["lhz", "map", "--problem", path]))
    return Workload(jobs, probes, "readout", "readouts_per_s", "1/s",
                    warm_up=smoke_job(directory))


WORKLOADS = {
    "anneal_ensemble": anneal_ensemble,
    "anneal_trace": anneal_trace,
    "tile_spectra": tile_spectra,
    "lhz_mapping": lhz_mapping,
}
