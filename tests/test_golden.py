"""Golden digests of seeded CLI stdout.

Each case runs one subcommand on a small fixed input and compares the
sha256 of its stdout with a recorded digest, so any change to numerics or
to output formatting shows up here and has to be made on purpose. To
re-baseline after a deliberate change, run this file as a script: it
prints the current digest table.
"""

import contextlib
import hashlib
import io
import json
import math
import tempfile
from pathlib import Path

import pytest

from jpotile.cli import main

# every digest here must hold on each BLAS kernel and ufunc loop CI runs
pytestmark = pytest.mark.kernel_bytes

TWO_PI = 2 * math.pi

INPUTS = {
    "problem.json": {
        "n": 4,
        "h": [0.0, 0.0, 0.0, 0.0],
        "J": [[0, 1, 2.0], [0, 2, -3.0], [1, 2, 0.5], [1, 3, 0.125], [2, 3, -1.75]],
    },
    # sparse integer couplings: about a fifth of the pairs, some of them
    # explicit zeros, the rest omitted; pins hundreds of bulk tiles
    "sparse40.json": {
        "n": 40,
        "h": [0] * 40,
        "J": [
            [i, j, (i * j) % 7 - 3]
            for i in range(40)
            for j in range(i + 1, 40)
            if (i + 2 * j) % 5 == 0
        ],
    },
    "flat.json": {
        "n": 3,
        "h": [0, 0, 0],
        "J": [0, 1.5, -2, 1.5, 0, 0.25, -2, 0.25, 0],
    },
    "tile.json": {"j": [0.3, -0.2, 0.1, 0.0], "j_a1": 1.0, "j_a2": 0.7, "c_cnst": 1.5},
    "clamped.json": {
        "j": [0.0, 0.0, 0.0, 0.0], "j_a1": 1.0, "j_a2": 1.0, "c_cnst": 1.0,
        "clamp_ancilla": [1, -1],
    },
    "sweep.json": {"j_a": 1.0, "j_c": 1.0, "noise": {"thermal_coefficient": 0.19}},
    "fixed.json": {
        "j_a": 0.8, "j_c": 1.2, "j": [0.0, 0.0, 0.0, 0.0],
        "noise": {"thermal_coefficient": 0.3, "distribution": "normal"},
    },
    "circuit.json": {
        "squid": {"l1": 7.5e-12, "l2": 7.5e-12, "i_c1": 80e-6, "i_c2": 80e-6},
        "resonator": {"omega_r": TWO_PI * 5e9, "c_s": 5e-13},
        "target_omega0": TWO_PI * 7.5e9,
        "sweep": {
            "current_to_flux": 2.067833848e-15,
            "i_start": 0.0,
            "i_stop": 0.75,
            "points": 7,
        },
        "iv": {
            "junction": {"i_c": 160e-6, "r_shunt": 15.0},
            "i_start": 0.0,
            "i_stop": 320e-6,
            "points": 200,
        },
    },
    "program.json": {
        "pump_phase": [math.pi / 2] * 6,
        "c_cnst": 5.0,
        "kappa": 2e7,
        "schedule": {"duration": 20.0, "dt": 0.01},
    },
}

COMMANDS = {
    "lhz-map": ["lhz", "map", "--n", "4", "--problem", "problem.json"],
    "lhz-map-40": ["lhz", "map", "--n", "40", "--problem", "sparse40.json"],
    "lhz-map-flat": ["lhz", "map", "--n", "3", "--problem", "flat.json"],
    "tile-enumerate": ["tile", "enumerate", "--params", "tile.json"],
    "tile-enumerate-clamped": ["tile", "enumerate", "--params", "clamped.json"],
    "tile-quantum-sweep": [
        "tile", "quantum", "--params", "sweep.json", "--trials", "3", "--seed", "7",
    ],
    "tile-quantum-fixed": [
        "tile", "quantum", "--params", "fixed.json", "--trials", "4", "--seed", "2",
    ],
    "tile-quantum-dense": [
        "tile", "quantum", "--params", "fixed.json", "--trials", "4", "--seed", "2",
        "--dense",
    ],
    "circuit-sweep": ["circuit", "sweep", "--config", "circuit.json"],
    "circuit-iv": [
        "circuit", "iv", "--config", "circuit.json", "--temp", "4.2", "--seed", "11",
    ],
    "anneal": ["anneal", "--program", "program.json", "--trials", "16", "--seed", "3"],
    "anneal-dense-canonical": [
        "anneal", "--program", "program.json", "--trials", "16", "--seed", "5",
        "--dense", "--canonical",
    ],
}

DIGESTS = {
    "lhz-map/csv":
        "56d04711d2af184a0dce7d2e572b477c46cf3cd31f9e53fbc60c43bae42082ed",
    "lhz-map/json":
        "fcaa0792b775c9248d5b377e63930626a33fe3c5de1b813ad04baebeb2df6047",
    "lhz-map-40/csv":
        "53fef491a38c73e5edff10e87fa42fbde026ae447776f771da190f0dc124b5ff",
    "lhz-map-40/json":
        "aea8f80752c1c40f8a2f3b732652ab5ea4e1afd8b7c97b8c600ef42beea00bb9",
    "lhz-map-flat/csv":
        "7a60700790fb653d0407ba98e19ec1c6c54f3f323ef7542b92670b5a30168d8e",
    "lhz-map-flat/json":
        "52ca8cb52c14a8ee1ead6b2916ea7e7337f7f16dd26ad95acee266e35a163d68",
    "tile-enumerate/csv":
        "cdf33f973e0f427d8e1ef7a7776030034e0756069fcef6358c4fca88ad131871",
    "tile-enumerate/json":
        "196a287de08161d3f8b4c15f8afc92d65c94186b2289f834208a625eb6911eb4",
    "tile-enumerate-clamped/csv":
        "bdd6ec534472143798af66adc9413f22ea9ccdd2e8ed10d114e004d711c944dc",
    "tile-enumerate-clamped/json":
        "8c20ebffaf326deb3d5e269fcf2cc231476e9b4d7e36feb60242b3dc2fe8d15a",
    "tile-quantum-sweep/csv":
        "d8aefd6b1232523a1b9fb5eac96903997e1fa89a750f3d34f90916571e5b0671",
    "tile-quantum-sweep/json":
        "ee54f18bebbe462b2c1dabfdd662a9f4e3bcaa39df70f92b3c305f62c3e5d977",
    "tile-quantum-fixed/csv":
        "d9b99efdd68b259454fe0afaabebc644cbb87c537b865235f508b7ccfa307b55",
    "tile-quantum-fixed/json":
        "68292f27fe2ac75314367c92b6ec0af753d7e36cb01b63e07084eb7a12a95263",
    "tile-quantum-dense/csv":
        "d3a480554f92c9fa30a4f57692b0a4efaa8c94e4117e4d3588cbd597edffcbf7",
    "tile-quantum-dense/json":
        "2f8fd7fecdf7fd6c31874c234af509131e97213d35ef359753f7b82d9a41e3ef",
    "circuit-sweep/csv":
        "6026460430f920a37ea686e128979a01c0c5606b31292f637cf7db38569b0fec",
    "circuit-sweep/json":
        "cbfd882175751c853b5239e907899d2f08bbf6cdf3d7174aef436b6eacc42ca5",
    "circuit-iv/csv":
        "d0220aee262f4b5158bf18b8339f9711e754e190ebebbf0221d6ea8ad9204430",
    "circuit-iv/json":
        "ab7112fd05c807677f7ae6c392efbf798b33dcaae9b4e6e79cccafd6e830cf18",
    "anneal/csv":
        "542ece2d67e6dae97396ddd0aaca0a77348a0d48363f6bf036414ac3b01cd8c2",
    "anneal/json":
        "bfb95b60fad0005bba9c088d54faabdced97c7ce2cdccb6c07f124c74beecf50",
    "anneal-dense-canonical/csv":
        "59b093907b8a4dc39d4b7aac3c41385f510ef53cff602a877c11ed3933d9f14b",
    "anneal-dense-canonical/json":
        "bbdddcfd5711bdfde4275c8feea564c7e6481d4126331aba42e54fc1f39d5da8",
}


def stdout_digest(directory, name, fmt):
    """sha256 of the stdout of one case, run on input files in directory."""
    for filename, payload in INPUTS.items():
        (directory / filename).write_text(json.dumps(payload))
    argv = [
        str(directory / arg) if arg in INPUTS else arg for arg in COMMANDS[name]
    ]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv + ["--format", fmt, "--quiet"])
    assert code == 0
    return hashlib.sha256(out.getvalue().encode()).hexdigest()


@pytest.mark.parametrize("case", sorted(DIGESTS))
def test_seeded_stdout_digest(case, tmp_path):
    name, fmt = case.split("/")
    assert stdout_digest(tmp_path, name, fmt) == DIGESTS[case]


def test_every_command_and_format_has_a_digest():
    assert set(DIGESTS) == {f"{n}/{f}" for n in COMMANDS for f in ("csv", "json")}


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        for name in COMMANDS:
            for fmt in ("csv", "json"):
                print(f'    "{name}/{fmt}":\n        "{stdout_digest(Path(tmp), name, fmt)}",')
