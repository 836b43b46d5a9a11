"""End-to-end checks of the command line front end."""

import json
import math
import os
from pathlib import Path

import pytest

from jpotile import __version__
from jpotile.anneal import MAX_TRIALS
from jpotile.cli import MAX_GRID_POINTS, main
from jpotile.spins import MAX_PROBLEM_SPINS

PI = math.pi
TWO_PI = 2 * math.pi

EVEN_LABELS = {"0000", "0011", "0101", "0110", "1001", "1010", "1100", "1111"}


def run_cli(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_json(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def problem_file(tmp_path, **overrides):
    payload = {
        "n": 3, "h": [0.0, 0.0, 0.0], "J": [[0, 1, 2.0], [0, 2, -3.0], [1, 2, 0.5]]
    }
    payload.update(overrides)
    return write_json(tmp_path, "problem.json", payload)


def tile_file(tmp_path, **overrides):
    payload = {"j": [0.0, 0.0, 0.0, 0.0], "j_a1": 1.0, "j_a2": 1.0, "c_cnst": 1.0}
    payload.update(overrides)
    return write_json(tmp_path, "tile.json", payload)


def quantum_file(tmp_path, **overrides):
    payload = {"j_a": 1.0, "j_c": 1.0}
    payload.update(overrides)
    return write_json(tmp_path, "quantum.json", payload)


def circuit_file(tmp_path, **overrides):
    payload = {
        "squid": {"l1": 7.5e-12, "l2": 7.5e-12, "i_c1": 80e-6, "i_c2": 80e-6},
        "resonator": {"omega_r": TWO_PI * 5e9, "c_s": 5e-13},
        "target_omega0": TWO_PI * 7.5e9,
    }
    payload.update(overrides)
    return write_json(tmp_path, "circuit.json", payload)


def program_file(tmp_path, name="program.json", **overrides):
    payload = {
        "pump_phase": [PI / 2] * 6,
        "c_cnst": 5.0,
        "schedule": {"duration": 20.0, "dt": 0.01},
    }
    payload.update(overrides)
    return write_json(tmp_path, name, payload)


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert __version__ in capsys.readouterr().out


def test_usage_errors_exit_one(capsys):
    code, _, err = run_cli(capsys, ["anneal"])
    assert code == 1
    assert "usage" in err
    assert "jpotile: usage error" in err

    code, _, err = run_cli(capsys, ["bogus"])
    assert code == 1
    assert "usage" in err

    code, _, err = run_cli(capsys, [])
    assert code == 1


def test_usage_error_leaves_the_next_call_unchanged(tmp_path, capsys):
    # main keeps one parser per process, so a failed parse must not leak
    # into the next call
    argv = ["lhz", "map", "--n", "3", "--problem", problem_file(tmp_path), "--quiet"]
    code, first, _ = run_cli(capsys, argv)
    assert code == 0
    code, _, err = run_cli(capsys, ["lhz", "map", "--n", "3", "--format", "xml"])
    assert code == 1
    assert "jpotile: usage error" in err
    code, again, _ = run_cli(capsys, argv)
    assert code == 0
    assert again == first


def test_lhz_map_csv(tmp_path, capsys):
    code, out, _ = run_cli(
        capsys,
        ["lhz", "map", "--n", "3", "--problem", problem_file(tmp_path), "--quiet"],
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "# jpotile lhz map"
    assert lines[1].startswith("# config=")
    config = json.loads(lines[1].removeprefix("# config="))
    assert config == {"n": 3, "problem": "problem.json", "format": "csv"}
    assert lines[2].startswith("# layout=")
    layout = json.loads(lines[2].removeprefix("# layout="))
    assert set(layout) == {"rows", "row_members", "fixed_row", "tiles"}
    assert lines[3] == "k,i,j,j_k"
    # physical fields carry the negated couplings
    assert lines[4:] == ["0,0,1,-2", "1,0,2,3", "2,1,2,-0.5"]


def test_lhz_map_json_and_mismatched_n(tmp_path, capsys):
    code, out, _ = run_cli(
        capsys,
        [
            "lhz", "map", "--n", "3", "--problem", problem_file(tmp_path),
            "--format", "json", "--quiet",
        ],
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["metadata"]["command"] == "lhz map"
    assert doc["j_fields"] == [-2.0, 3.0, -0.5]
    assert doc["n_logical"] == 3
    assert doc["pairs"] == [[0, 1], [0, 2], [1, 2]]

    code, _, err = run_cli(
        capsys,
        ["lhz", "map", "--n", "4", "--problem", problem_file(tmp_path), "--quiet"],
    )
    assert code == 2
    assert "does not match" in err


@pytest.mark.parametrize("n", [MAX_PROBLEM_SPINS + 1, 100_000])
def test_lhz_map_problem_above_the_spin_bound_exits_two(tmp_path, capsys, n):
    path = problem_file(tmp_path, n=n, h=[0] * n, J=[[0, 1, 1.0]])
    code, out, err = run_cli(capsys, ["lhz", "map", "--n", str(n), "--problem", path])
    assert code == 2
    assert out == ""
    assert (
        f"jpotile: {path}: field 'n': expected at most {MAX_PROBLEM_SPINS} spins"
        in err
    )


def test_lhz_map_malformed_problem(tmp_path, capsys):
    bad = write_json(tmp_path, "bad.json", {"n": 3, "h": [0, 0, 0]})
    code, _, err = run_cli(capsys, ["lhz", "map", "--n", "3", "--problem", bad])
    assert code == 2
    assert "jpotile:" in err

    code, _, err = run_cli(
        capsys, ["lhz", "map", "--n", "3", "--problem", str(tmp_path / "nope.json")]
    )
    assert code == 2


def test_tile_enumerate_csv(tmp_path, capsys):
    code, out, err = run_cli(
        capsys, ["tile", "enumerate", "--params", tile_file(tmp_path)]
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "# jpotile tile enumerate"
    config = json.loads(lines[1].removeprefix("# config="))
    assert config["ground_energy"] == -3.0
    assert len(config["ground_states"]) == 8
    assert lines[2] == "s1,s2,s3,s4,a1,a2,energy,parity"
    rows = lines[3:]
    assert len(rows) == 64
    # all-minus row: parity +1, bracket -1, energy +1
    assert rows[0] == "-1,-1,-1,-1,-1,-1,1,1"
    assert "ground energy -3 with 8 states" in err


def test_tile_enumerate_clamped(tmp_path, capsys):
    path = tile_file(tmp_path, clamp_ancilla=[-1, -1])
    code, out, _ = run_cli(capsys, ["tile", "enumerate", "--params", path, "--quiet"])
    assert code == 0
    rows = out.splitlines()[3:]
    assert len(rows) == 16
    assert all(r.split(",")[4] == "-1" and r.split(",")[5] == "-1" for r in rows)

    bad = tile_file(tmp_path, clamp_ancilla=[0, 1])
    code, _, err = run_cli(capsys, ["tile", "enumerate", "--params", bad, "--quiet"])
    assert code == 2
    assert "entries must be -1 or +1" in err


def test_tile_quantum_sweep_default(tmp_path, capsys):
    args = [
        "tile", "quantum", "--params", quantum_file(tmp_path),
        "--seed", "7", "--quiet",
    ]
    code, out, _ = run_cli(capsys, args)
    assert code == 0
    lines = out.splitlines()
    config = json.loads(lines[1].removeprefix("# config="))
    assert config["sweep"] is True
    assert config["seed"] == 7
    assert lines[2] == "state,probability"
    rows = [line.split(",") for line in lines[3:]]
    assert {r[0] for r in rows} == EVEN_LABELS
    total = sum(float(r[1]) for r in rows)
    assert abs(total - 1.0) < 1e-4

    # same seed, same bytes
    code, out_again, _ = run_cli(capsys, args)
    assert code == 0
    assert out_again == out


def test_tile_quantum_fixed_fields_and_dense(tmp_path, capsys):
    path = quantum_file(tmp_path, j=[0.0, 0.0, 0.0, 0.0])
    code, out, _ = run_cli(
        capsys, ["tile", "quantum", "--params", path, "--seed", "1", "--quiet"]
    )
    assert code == 0
    rows = [line.split(",") for line in out.splitlines()[3:]]
    assert {r[0] for r in rows} == EVEN_LABELS
    assert all(float(r[1]) == 0.125 for r in rows)

    code, out, _ = run_cli(
        capsys,
        ["tile", "quantum", "--params", path, "--seed", "1", "--dense", "--quiet"],
    )
    assert len(out.splitlines()[3:]) == 16

    code, _, err = run_cli(
        capsys,
        ["tile", "quantum", "--params", path, "--seed", "1", "--trials", "0"],
    )
    assert code == 2
    assert "--trials must be >= 1" in err


def test_tile_quantum_noise_deterministic(tmp_path, capsys):
    path = quantum_file(tmp_path, noise={"thermal_coefficient": 0.19})
    args = [
        "tile", "quantum", "--params", path, "--seed", "3",
        "--trials", "5", "--format", "json", "--quiet",
    ]
    code, out, _ = run_cli(capsys, args)
    assert code == 0
    doc = json.loads(out)
    assert doc["metadata"]["config"]["thermal_coefficient"] == 0.19
    assert {r["state"] for r in doc["rows"]} == EVEN_LABELS
    code, out_again, _ = run_cli(capsys, args)
    assert out_again == out


def test_circuit_sweep_clipping(tmp_path, capsys):
    phi0 = 2.067833848e-15
    path = circuit_file(
        tmp_path,
        sweep={
            "current_to_flux": phi0,
            "i_start": 0.0,
            "i_stop": 0.75,
            "points": 4,
        },
    )
    code, out, err = run_cli(capsys, ["circuit", "sweep", "--config", path])
    assert code == 0
    lines = out.splitlines()
    config = json.loads(lines[1].removeprefix("# config="))
    assert config["clipped_i_dc"] == [0.5]
    assert lines[2] == "i_dc_A,flux_wb,l_squid_H,f0_Hz"
    rows = [line.split(",") for line in lines[3:]]
    assert len(rows) == 3
    assert abs(float(rows[0][3]) - 7.5e9) < 1.0
    assert "1 samples clipped" in err


def test_circuit_config_validation(tmp_path, capsys):
    no_sweep = circuit_file(tmp_path)
    code, _, err = run_cli(capsys, ["circuit", "sweep", "--config", no_sweep])
    assert code == 2
    assert "no 'sweep' section" in err

    payload = json.loads(Path(no_sweep).read_text())
    del payload["target_omega0"]
    missing = write_json(tmp_path, "missing.json", payload)
    code, _, err = run_cli(capsys, ["circuit", "sweep", "--config", missing])
    assert code == 2
    assert "provide either" in err


def test_circuit_iv_backbone_and_determinism(tmp_path, capsys):
    path = circuit_file(
        tmp_path,
        iv={
            "junction": {"i_c": 160e-6, "r_shunt": 15.0},
            "i_start": 0.0,
            "i_stop": 320e-6,
            "points": 5,
        },
    )
    code, out, _ = run_cli(
        capsys,
        ["circuit", "iv", "--config", path, "--temp", "0", "--seed", "4", "--quiet"],
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[2] == "i_A,v_V"
    last = lines[-1].split(",")
    assert float(last[0]) == 320e-6
    assert last[1] == format(0.004156921938165306, ".12g")

    args = [
        "circuit", "iv", "--config", path, "--temp", "4.2", "--seed", "11", "--quiet",
    ]
    code, warm, _ = run_cli(capsys, args)
    assert code == 0
    code, warm_again, _ = run_cli(capsys, args)
    assert warm_again == warm

    code, _, err = run_cli(
        capsys, ["circuit", "iv", "--config", path, "--temp", "-1", "--seed", "4"]
    )
    assert code == 2
    assert "--temp must be >= 0" in err


def test_anneal_histogram_and_byte_identity(tmp_path, capsys):
    path = program_file(tmp_path)
    args = ["anneal", "--program", path, "--trials", "40", "--seed", "3", "--quiet"]
    code, out, _ = run_cli(capsys, args)
    assert code == 0
    lines = out.splitlines()
    config = json.loads(lines[1].removeprefix("# config="))
    assert config["trials"] == 40
    assert config["seed"] == 3
    assert config["settled"] + config["unsettled"] == 40
    assert lines[2] == "state,count,probability"
    rows = [line.split(",") for line in lines[3:]]
    assert sum(int(r[1]) for r in rows) == config["settled"]
    assert all(r[0] in EVEN_LABELS for r in rows)
    assert [r[0] for r in rows] == sorted(r[0] for r in rows)

    code, out_again, _ = run_cli(capsys, args)
    assert out_again == out


def test_anneal_json_counts_round_trip(tmp_path, capsys):
    path = program_file(tmp_path)
    base = ["anneal", "--program", path, "--trials", "30", "--seed", "8", "--quiet"]
    _, csv_out, _ = run_cli(capsys, base)
    _, json_out, _ = run_cli(capsys, base + ["--format", "json"])
    csv_counts = {
        line.split(",")[0]: int(line.split(",")[1])
        for line in csv_out.splitlines()[3:]
    }
    doc = json.loads(json_out)
    json_counts = {r["state"]: r["count"] for r in doc["rows"]}
    assert json_counts == csv_counts


def test_anneal_dense_canonical_and_kappa(tmp_path, capsys):
    path = program_file(tmp_path, name="kappa.json", kappa=2e7)
    code, out, _ = run_cli(
        capsys,
        [
            "anneal", "--program", path, "--trials", "20", "--seed", "5",
            "--dense", "--canonical", "--format", "json", "--quiet",
        ],
    )
    assert code == 0
    doc = json.loads(out)
    config = doc["metadata"]["config"]
    assert config["canonical"] is True
    assert config["kappa"] == 2e7
    assert config["wall_clock_s"] == 20.0 / 2e7
    assert len(doc["rows"]) == 16
    supported = {r["state"] for r in doc["rows"] if r["count"] > 0}
    assert supported <= EVEN_LABELS


def test_anneal_seed_and_trials_validation(tmp_path, capsys):
    path = program_file(tmp_path)
    code, _, err = run_cli(
        capsys, ["anneal", "--program", path, "--trials", "0", "--seed", "1"]
    )
    assert code == 2
    assert "--trials must be >= 1" in err

    code, _, err = run_cli(
        capsys, ["anneal", "--program", path, "--trials", "1", "--seed", "-5"]
    )
    assert code == 2
    assert "seed must be a nonnegative integer" in err


def test_anneal_draws_seed_when_absent(tmp_path, capsys):
    path = program_file(tmp_path)
    code, out, err = run_cli(
        capsys,
        ["anneal", "--program", path, "--trials", "1", "--format", "json"],
    )
    assert code == 0
    assert "seed drawn from system entropy:" in err
    doc = json.loads(out)
    assert isinstance(doc["metadata"]["config"]["seed"], int)
    assert doc["metadata"]["config"]["seed"] >= 0


def test_anneal_blowup_exits_three(tmp_path, capsys):
    path = program_file(
        tmp_path,
        name="hot.json",
        pump_phase=[0.0] * 6,
        j_max=1.0,
        c_cnst=1e308,
        schedule={"duration": 1.0, "dt": 0.1},
    )
    code, _, err = run_cli(
        capsys, ["anneal", "--program", path, "--trials", "2", "--seed", "0"]
    )
    assert code == 3
    assert "numerical failure" in err


IV_SECTION = {
    "junction": {"i_c": 160e-6, "r_shunt": 15.0},
    "i_start": 0.0,
    "i_stop": 320e-6,
    "points": 5,
}
SWEEP_SECTION = {"current_to_flux": 2e-15, "i_start": 0.0, "i_stop": 1e-3, "points": 5}
ANNEAL_ARGS = ["anneal", "--program", "{path}", "--trials", "2", "--seed", "1"]
LHZ_ARGS = ["lhz", "map", "--n", "3", "--problem", "{path}"]
ENUMERATE_ARGS = ["tile", "enumerate", "--params", "{path}"]
QUANTUM_ARGS = ["tile", "quantum", "--params", "{path}", "--seed", "1"]
IV_ARGS = ["circuit", "iv", "--config", "{path}", "--seed", "1", "--temp"]
SWEEP_ARGS = ["circuit", "sweep", "--config", "{path}"]


@pytest.mark.parametrize(
    "argv, make_file, overrides, field",
    [
        pytest.param(
            ANNEAL_ARGS, program_file, {"schedule": {"duration": math.inf, "dt": 0.01}},
            "schedule.duration", id="anneal duration Infinity",
        ),
        pytest.param(
            ANNEAL_ARGS, program_file, {"j_max": math.nan}, "j_max",
            id="anneal j_max NaN",
        ),
        pytest.param(
            ANNEAL_ARGS, program_file, {"eta": math.nan}, "eta", id="anneal eta NaN"
        ),
        pytest.param(
            ENUMERATE_ARGS, tile_file, {"j": [math.nan, 0, 0, 0]}, "j entry 0",
            id="tile enumerate j NaN",
        ),
        pytest.param(
            ENUMERATE_ARGS, tile_file, {"j_a1": 10**400}, "j_a1",
            id="tile enumerate integer beyond float range",
        ),
        pytest.param(
            LHZ_ARGS, problem_file, {"J": [[0, 1, math.inf]]}, "J entry 0",
            id="lhz map coupling Infinity",
        ),
        pytest.param(
            QUANTUM_ARGS, quantum_file, {"j_a": math.inf}, "j_a",
            id="tile quantum j_a Infinity",
        ),
        pytest.param(
            QUANTUM_ARGS, quantum_file, {"noise": {"thermal_coefficient": math.nan}},
            "noise.thermal_coefficient", id="tile quantum thermal NaN",
        ),
        pytest.param(
            IV_ARGS + ["0"], circuit_file, {"iv": {**IV_SECTION, "dt_eff": math.inf}},
            "iv.dt_eff", id="circuit iv dt_eff Infinity",
        ),
        pytest.param(
            IV_ARGS + ["nan"], circuit_file, {"iv": IV_SECTION}, "--temp",
            id="circuit iv temp nan",
        ),
        pytest.param(
            SWEEP_ARGS, circuit_file,
            {"sweep": {"current_to_flux": 2e-15, "i_start": 1e308, "i_stop": -1e308}},
            "sweep.i_stop", id="circuit sweep range overflows",
        ),
        pytest.param(
            IV_ARGS + ["0"], circuit_file,
            {"iv": {**IV_SECTION, "junction": {"i_c": 1e200, "r_shunt": 15.0}}},
            "iv.junction.i_c", id="circuit iv i_c squared overflows",
        ),
        pytest.param(
            IV_ARGS + ["0"], circuit_file,
            {"iv": {**IV_SECTION, "i_start": -1e200, "i_stop": 1e200}},
            "iv.i_start", id="circuit iv voltage overflows",
        ),
        pytest.param(
            IV_ARGS + ["1e300"], circuit_file,
            {"iv": {**IV_SECTION, "junction": {"i_c": 160e-6, "r_shunt": 1e-31}}},
            "iv.dt_eff", id="circuit iv thermal walk overflows",
        ),
        pytest.param(
            SWEEP_ARGS, circuit_file,
            {"sweep": {**SWEEP_SECTION, "current_to_flux": 1e300}},
            "sweep.current_to_flux", id="circuit sweep flux overflows",
        ),
        pytest.param(
            SWEEP_ARGS, circuit_file,
            {
                "squid": {"l1": 7.5e-12, "l2": 7.5e-12, "i_c1": 1e-320, "i_c2": 1e-320},
                "sweep": SWEEP_SECTION,
            },
            "squid", id="circuit sweep inductance overflows",
        ),
        pytest.param(
            SWEEP_ARGS, circuit_file,
            {
                "squid": {"l1": 7.5e-12, "l2": 7.5e-12, "i_c1": 1e-320, "i_c2": 1e-320},
                "resonator": {"omega_r": TWO_PI * 5e9, "c_s": 5e-13, "l_r": 1e-9},
                "sweep": SWEEP_SECTION,
            },
            "resonator.l_r", id="circuit sweep frequency overflows",
        ),
        pytest.param(
            LHZ_ARGS, problem_file, {"h": ["0", False, "0"]}, "h entry 0",
            id="lhz map h strings and booleans",
        ),
        pytest.param(
            LHZ_ARGS, problem_file, {"J": [0, 1, 1, "1", 0, 0, 1, 0, 0]}, "J entry 3",
            id="lhz map flat J with a string",
        ),
        pytest.param(
            QUANTUM_ARGS, quantum_file, {"sweep": "no"}, "sweep",
            id="tile quantum sweep as a string",
        ),
        pytest.param(
            ANNEAL_ARGS, program_file, {"schedule": []}, "schedule",
            id="anneal schedule as a list",
        ),
    ],
)
def test_malformed_input_exits_two_naming_the_field(
    tmp_path, capsys, argv, make_file, overrides, field
):
    path = make_file(tmp_path, **overrides)
    code, out, err = run_cli(capsys, [path if a == "{path}" else a for a in argv])
    assert code == 2
    assert out == ""
    if field.startswith("--"):
        assert f"jpotile: {field} must be" in err
    else:
        assert f"jpotile: {path}: field '{field}':" in err


@pytest.mark.parametrize(
    "duration", [1e308, 1e300, 1e6], ids=["1e308", "1e300", "1e6"]
)
def test_anneal_step_count_overflow_exits_two(tmp_path, capsys, duration):
    # 1e308 overflows duration / dt; 1e300 and 1e6 (1e8 steps) are finite
    # but beyond MAX_STEPS
    path = program_file(
        tmp_path, pump_phase=[0.0] * 6, schedule={"duration": duration, "dt": 0.01}
    )
    code, out, err = run_cli(capsys, ["anneal", "--program", path, "--seed", "1"])
    assert code == 2
    assert out == ""
    assert "duration" in err


@pytest.mark.parametrize("trials", [MAX_TRIALS + 1, 10**12], ids=["max+1", "1e12"])
@pytest.mark.parametrize("command", ["anneal", "tile quantum"])
def test_trials_above_the_bound_exit_two(tmp_path, capsys, command, trials):
    if command == "anneal":
        argv = ["anneal", "--program", program_file(tmp_path)]
    else:
        noisy = quantum_file(tmp_path, noise={"thermal_coefficient": 0.1})
        argv = ["tile", "quantum", "--params", noisy]
    code, out, err = run_cli(capsys, argv + ["--trials", str(trials), "--seed", "1"])
    assert code == 2
    assert out == ""
    assert f"--trials must be >= 1 and at most {MAX_TRIALS}" in err


@pytest.mark.parametrize("points", [MAX_GRID_POINTS + 1, 10**13], ids=["max+1", "1e13"])
@pytest.mark.parametrize("section", ["sweep", "iv"])
def test_circuit_grid_above_the_bound_exits_two(tmp_path, capsys, section, points):
    # the grid is refused before it is allocated
    if section == "sweep":
        grid = {"current_to_flux": 2e-15, "i_start": 0.0, "i_stop": 1e-3}
        argv = SWEEP_ARGS
    else:
        grid = IV_SECTION
        argv = IV_ARGS + ["0"]
    path = circuit_file(tmp_path, **{section: {**grid, "points": points}})
    code, out, err = run_cli(capsys, [path if a == "{path}" else a for a in argv])
    assert code == 2
    assert out == ""
    assert (
        f"jpotile: {path}: field '{section}.points': expected at most "
        f"{MAX_GRID_POINTS} points, got {points}" in err
    )


def test_out_file_and_env_redirect(tmp_path, capsys, monkeypatch):
    path = quantum_file(tmp_path, j=[0.0, 0.0, 0.0, 0.0])
    args = ["tile", "quantum", "--params", path, "--seed", "1", "--quiet"]
    _, stdout_text, _ = run_cli(capsys, args)

    out_dir = tmp_path / "redirected"
    monkeypatch.setenv("JPOTILE_OUT_DIR", str(out_dir))
    code, out, _ = run_cli(capsys, args + ["--out", "result.csv"])
    assert code == 0
    assert out == ""
    target = out_dir / "result.csv"
    assert target.read_text() == stdout_text
    assert not any(p.name.startswith(".jpotile-") for p in out_dir.iterdir())

    # absolute paths ignore the redirect
    absolute = tmp_path / "direct.csv"
    code, _, _ = run_cli(capsys, args + ["--out", str(absolute)])
    assert code == 0
    assert absolute.read_text() == stdout_text


def test_out_write_failure_exits_two(tmp_path, capsys, monkeypatch):
    monkeypatch.delenv("JPOTILE_OUT_DIR", raising=False)
    blocker = tmp_path / "blocker"
    blocker.write_text("plain file")
    path = quantum_file(tmp_path, j=[0.0, 0.0, 0.0, 0.0])
    code, _, err = run_cli(
        capsys,
        [
            "tile", "quantum", "--params", path, "--seed", "1", "--quiet",
            "--out", str(blocker / "x.csv"),
        ],
    )
    assert code == 2
    assert "jpotile:" in err
