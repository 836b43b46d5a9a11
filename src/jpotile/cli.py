"""Command line front end: one binary, subcommand style.

Exit codes: 0 success, 1 usage error, 2 input validation error,
3 numerical error. Data goes to --out (or stdout) and carries a metadata
block with the resolved configuration and seed; human-readable diagnostics
go to stderr and are silenced by --quiet. File writes are atomic (temp
file plus rename). The JPOTILE_OUT_DIR environment variable relocates
relative --out paths.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import functools
import json
import math
import os
import re
import secrets
import sys
import tempfile
import time
from itertools import chain
from json.encoder import encode_basestring_ascii
from typing import NamedTuple, Optional, Sequence

import numpy as np

from . import __version__
from .anneal import (
    AnnealSchedule,
    CouplingProgram,
    DEFAULT_BETA,
    DEFAULT_ETA,
    MAX_TRIALS,
    StateHistogram,
    run_trials,
    wall_clock_seconds,
)
from .circuit import (
    PHI0,
    JunctionParams,
    ResonatorParams,
    SquidParams,
    calibrate_resonator,
    flux_table,
    rsj_iv_curve,
)
from .errors import CalibrationError, EnergyRangeError, ParseError, UnsupportedProblemError
from .lhz import build_layout, layout_document, map_couplings
from .quantum import (
    NoiseSpec,
    StateDistribution,
    SUPPORT_TOL,
    logical_distribution,
    sweep_distribution,
)
from .spins import JsonObject, code_labels, ground_mask, load_ising_problem
from .tile import TileParams, tile_table

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_VALIDATION = 2
EXIT_NUMERICAL = 3

OUT_DIR_ENV = "JPOTILE_OUT_DIR"
# largest grid a circuit config may ask for: `circuit sweep` at this many
# points peaks at ~63 MB resident in either format, below `lhz map` at its n cap
MAX_GRID_POINTS = 500_000


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """argparse with usage failures routed to exit code 1, and a negative
    number in any float syntax after a flag read as its value."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # argparse's own pattern takes -5 and -.5 but reads -1e-3 and -inf as options
        self._negative_number_matcher = re.compile(
            r"^-(\d+\.?\d*|\.\d+)(e[-+]?\d+)?$|^-(inf|infinity|nan)$", re.IGNORECASE)

    def error(self, message):
        raise _UsageError(f"{self.format_usage().rstrip()}\njpotile: usage error: {message}")


def _round_prob(p: float) -> float:
    """A probability rounded once to the 6 significant digits both formats
    print; its 12-digit CSV rendering is then the 6-digit one."""
    return float(format(p, ".6g"))


def _log(args, message: str) -> None:
    if not getattr(args, "quiet", False):
        print(message, file=sys.stderr)


def _check_trials(trials: int) -> None:
    if not 1 <= trials <= MAX_TRIALS:
        raise ValueError(f"--trials must be >= 1 and at most {MAX_TRIALS}, got {trials}")


def _resolve_seed(args) -> int:
    seed = getattr(args, "seed", None)
    if seed is None:
        seed = secrets.randbits(64)
        _log(args, f"seed drawn from system entropy: {seed}")
    if seed < 0:
        raise ValueError("--seed must be a nonnegative integer")
    return seed


_SCALARS = {str, int, float, bool, type(None)}
_TABLE_ROWS = 1024  # rows per %-format call, which bounds the text held at once
# the indents json.dumps(indent=2) gives a row of a top-level table, and its cells
_ROW, _CELL = "\n    ", "\n      "
# a document value written row by row: columns (lists or arrays) and the row
# template, one %-slot per column
_Table = NamedTuple("_Table", [("columns", list), ("row", str)])


def _json_text(value, level: int = 0) -> str:
    """json.dumps(value, indent=2), byte for byte, for a value whose keys are
    strings. json.dumps runs its pure-Python encoder whenever indent is set;
    here the C encoder formats a list of scalars in one call, its item
    separator carrying the newline and the indent."""
    if not isinstance(value, (dict, list, tuple)) or not value:
        return json.dumps(value)
    close = "\n" + "  " * level
    inner = close + "  "
    if isinstance(value, dict):
        items = (
            f"{encode_basestring_ascii(key)}: {_json_text(v, level + 1)}"
            for key, v in value.items()
        )
        return "{" + inner + ("," + inner).join(items) + close + "}"
    if set(map(type, value)) <= _SCALARS:
        text = json.dumps(value, separators=("," + inner, ": "))[1:-1]
        return "".join(("[", inner, text, close, "]"))
    items = (_json_text(v, level + 1) for v in value)
    return "[" + inner + ("," + inner).join(items) + close + "]"


def _json_row(slots, brackets: str) -> str:
    """A row template of a top-level JSON table: the slots in brackets."""
    return brackets[0] + _CELL + ("," + _CELL).join(slots) + _ROW + brackets[1]


def _json_cells(values: list) -> list:
    """JSON's text for each value, from one encoder call: NUL separates
    the items, as no JSON text holds a raw one."""
    return json.dumps(values, separators=("\0", ":"))[1:-1].split("\0")


def _write_rows(out, columns: list, row: str, sep: str, cells) -> None:
    """Write a table: row, its %-slots filled from the columns, for each
    row, and sep between rows, in one %-format call per _TABLE_ROWS rows.
    cells maps a column's chunk, as a list, to the values its slot takes."""
    for start in range(0, len(columns[0]), _TABLE_ROWS):
        chunk = [c[start : start + _TABLE_ROWS] for c in columns]
        chunk = [cells(c.tolist() if isinstance(c, np.ndarray) else c) for c in chunk]
        template = (sep + row) * len(chunk[0])  # no separator before the first row
        out.write(template[0 if start else len(sep) :] % tuple(chain(*zip(*chunk))))


@contextlib.contextmanager
def _open_output(args):
    """The stream a document is written to: stdout, or a temp file beside
    --out that replaces it once the document is complete."""
    out = getattr(args, "out", None)
    if out is None:
        yield sys.stdout
        return
    out_dir = os.environ.get(OUT_DIR_ENV)
    if out_dir and not os.path.isabs(out):
        out = os.path.join(out_dir, out)
    directory = os.path.dirname(os.path.abspath(out))
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".jpotile-", suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as fh:
            yield fh
        os.replace(tmp, out)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise
    _log(args, f"wrote {out}")


def _emit(args, command: str, resolved: dict, columns: dict, header=None, body=None) -> None:
    """Write one result table and its metadata, the resolved config and
    seed, in args.format to --out or stdout. columns maps each column name
    to its values, a list or an array.

    CSV is '# jpotile <command>', '# config=<compact JSON>' and one
    '# <name>=<compact JSON>' line per entry of header, its arrays as lists,
    then the table: a column whose first value is a float in "%.12g"
    (format(x, ".12g")), any other in "%s" (str(x)). JSON is one document of
    the metadata and the table as "rows", one object per row, or of the
    metadata and body, each of whose arrays is a table of one value (1-D) or
    one list (2-D) per row."""
    with _open_output(args) as out:
        if args.format == "json":
            if body is None:
                keys = (encode_basestring_ascii(k).replace("%", "%%") for k in columns)
                row = _json_row([f"{key}: %s" for key in keys], "{}")
                body = {"rows": _Table(list(columns.values()), row)}
            doc = {"metadata": {"command": command, "config": resolved}, **body}
            for n, (key, value) in enumerate(doc.items()):
                out.write(("{" if n == 0 else ",") + "\n  " + encode_basestring_ascii(key) + ": ")
                if isinstance(value, np.ndarray):  # one value (1-D) or list (2-D) per row
                    row = _json_row(["%s"] * len(value.T), "[]") if value.ndim == 2 else "%s"
                    value = _Table(list(value.reshape(len(value), -1).T), row)
                if not isinstance(value, _Table):
                    out.write(_json_text(value, 1))
                elif len(value.columns[0]):
                    out.write("[" + _ROW)
                    _write_rows(out, value.columns, value.row, "," + _ROW, _json_cells)
                    out.write("\n  ]")
                else:
                    out.write("[]")
            out.write("\n}\n")
            return
        out.write(f"# jpotile {command}\n")
        for name, value in {"config": resolved, **(header or {})}.items():
            compact = json.dumps(value, sort_keys=True, separators=(",", ":"),
                                 default=np.ndarray.tolist)
            out.write(f"# {name}={compact}\n")
        out.write(",".join(columns) + "\n")
        # an array's first value is a numpy scalar: np.float64 is a float
        row = ",".join("%.12g" if len(v) and isinstance(v[0], float) else "%s"
                       for v in columns.values())
        _write_rows(out, list(columns.values()), row + "\n", "", list)


# ---------------------------------------------------------------------------
# histogram and distribution emitters


def emit_histogram(args, hist: StateHistogram, command: str, resolved: dict) -> None:
    """Write a state histogram in args.format. Zero-count states are
    omitted unless args.dense.

    Rows are sorted by state label; probabilities carry 6 significant
    digits. The JSON form round-trips the same counts.
    """
    labels = sorted(hist.counts)
    if args.dense:
        labels = code_labels(range(2**hist.n_bits), hist.n_bits)
    counts = [hist.counts.get(label, 0) for label in labels]
    probabilities = [_round_prob(count / hist.trials) for count in counts]
    columns = {"state": labels, "count": counts, "probability": probabilities}
    _emit(args, command, resolved, columns)


def emit_distribution(args, dist: StateDistribution, command: str, resolved: dict) -> None:
    """Write a probability distribution over the 16 logical states."""
    p = dist.probabilities
    kept = np.arange(16) if args.dense else np.flatnonzero(p > SUPPORT_TOL)
    probabilities = [_round_prob(v) for v in p[kept].tolist()]
    _emit(args, command, resolved, {"state": code_labels(kept, 4), "probability": probabilities})


# ---------------------------------------------------------------------------
# subcommand loaders


def _load_quantum_params(path: str) -> tuple[dict, NoiseSpec]:
    """The parameters in the order the config echo prints them, and the
    noise model they describe, without its seed."""
    data = JsonObject.load(path)
    j = data.numbers("j", 4, None)
    noise = data.section("noise") or JsonObject({}, path, "noise.")
    out = {
        "j": j,
        "j_a": data.number("j_a"),
        "j_c": data.number("j_c"),
        "sweep": data.flag("sweep", False) or j is None,
        "thermal_coefficient": noise.number("thermal_coefficient", 0.0) or 0.0,
        "distribution": noise.get("distribution", "uniform"),
    }
    with noise.naming(NoiseSpec):
        spec = NoiseSpec(out["thermal_coefficient"], out["distribution"])
    return out, spec


def _load_circuit_config(path: str) -> dict:
    data = JsonObject.load(path)
    squid = data.section("squid", required=True).model(SquidParams)
    rs = data.section("resonator", required=True)
    l_r = rs.number("l_r", None)
    target = data.number("target_omega0", None)
    # the field that sets l_r, named when the resonance frequency overflows
    l_r_field = "resonator.l_r"
    if l_r is None:
        if target is None:
            raise ParseError(
                f"{path}: provide either 'resonator.l_r' or 'target_omega0'"
            )
        with rs.naming(calibrate_resonator):
            try:
                l_r = calibrate_resonator(target, rs.number("omega_r"), squid)
            except CalibrationError as exc:
                raise data.error("target_omega0", str(exc)) from exc
        if not 0 < l_r < math.inf:  # l_sq + l1 / 2 > 0, so only by overflow or underflow
            raise data.error("squid", "its inductance puts the calibrated l_r out of range")
        l_r_field = "target_omega0"
    config = {
        "squid": squid, "resonator": rs.model(ResonatorParams, l_r=l_r),
        "target_omega0": target, "l_r_field": l_r_field,
    }
    sweep = data.section("sweep")
    if sweep is not None:
        config["current_to_flux"] = sweep.number("current_to_flux")
        config["sweep_i"] = _sample_grid(sweep)
    iv = data.section("iv")
    if iv is not None:
        config["junction"] = iv.section("junction", required=True).model(JunctionParams)
        config["iv_i"] = _sample_grid(iv)
        config["dt_eff"] = iv.number("dt_eff", 1e-12)
    return config


def _sample_grid(section: JsonObject) -> np.ndarray:
    start = section.number("i_start")
    stop = section.number("i_stop")
    if not math.isfinite(stop - start):
        raise section.error("i_stop", "i_stop - i_start must be finite")
    points = section.integer("points", 2)
    if points > MAX_GRID_POINTS:
        raise section.error(
            "points", f"expected at most {MAX_GRID_POINTS} points, got {points}"
        )
    return np.linspace(start, stop, points)


@contextlib.contextmanager
def _overflow_errors(path: str, quantity: str, terms: dict):
    """Trap numpy overflows and invalid results in the block, and energy
    ranges that ground_mask finds not finite. One is an input error naming
    the field of the file at path that holds the largest magnitude among
    terms, the fields' values (numbers or lists of them) that quantity is
    built from."""
    try:
        with np.errstate(over="raise", invalid="raise"):
            yield
    except (FloatingPointError, EnergyRangeError):
        field = max(terms, key=lambda name: np.abs(terms[name]).max())
        raise JsonObject({}, path).error(
            field, f"{quantity} overflows the float range"
        ) from None


def _require_finite(path: str, field: str, quantity: str, values, bias) -> None:
    """Reject a computed circuit column that overflowed, naming the input
    field of the file at path that drives it and the first bias current
    where it happened."""
    bad = np.flatnonzero(~np.isfinite(values))
    if bad.size:
        raise JsonObject({}, path).error(
            field, f"{quantity} overflows at bias current {bias[bad[0]]:g} A"
        )


# ---------------------------------------------------------------------------
# subcommands


def _cmd_lhz_map(args) -> int:
    problem = load_ising_problem(args.problem)
    if problem.n != args.n:
        raise ValueError(f"--n {args.n} does not match the problem file (n={problem.n})")
    if args.n < 3:  # build_layout's own message names no flag
        raise ValueError(f"--n {args.n}: the triangular layout needs at least 3 logical spins")
    layout = build_layout(args.n)
    try:
        fields = map_couplings(problem)
    except UnsupportedProblemError as exc:  # the pair mapping carries no local fields
        raise JsonObject({}, args.problem).error("h", str(exc)) from exc
    resolved = {"n": args.n, "problem": os.path.basename(args.problem), "format": args.format}
    doc = layout_document(layout, fields)
    # JSON writes the document; CSV's table carries the pairs and fields, and
    # its layout line the rest
    i, j = doc["pairs"].T
    columns = {"k": np.arange(layout.k_physical), "i": i, "j": j, "j_k": doc["j_fields"]}
    shape = {key: doc[key] for key in ("rows", "row_members", "fixed_row", "tiles")}
    _emit(args, "lhz map", resolved, columns, {"layout": shape}, body=doc)
    return EXIT_OK


def _cmd_tile_enumerate(args) -> int:
    data = JsonObject.load(args.params)
    params = data.model(TileParams, j=data.numbers("j", 4))
    clamp = data.numbers("clamp_ancilla", 2, None)
    fields = dataclasses.asdict(params)
    with data.naming(tile_table):  # clamp_ancilla
        with _overflow_errors(args.params, "the tile energy", fields):
            codes, rows, energies = tile_table(params, clamp_ancilla=clamp)
    with _overflow_errors(args.params, "the tile energy range", fields):
        ground_labels = code_labels(codes[ground_mask(energies)], 6)
    resolved = {
        **fields,
        "clamp_ancilla": clamp and [int(v) for v in clamp],
        "format": args.format,
        "ground_energy": float(energies.min()),
        "ground_states": ground_labels,
    }
    columns = dict(zip(("s1", "s2", "s3", "s4", "a1", "a2"), rows.T.tolist()))
    columns["energy"] = energies.tolist()
    columns["parity"] = np.prod(rows[:, :4], axis=1).tolist()
    _emit(args, "tile enumerate", resolved, columns)
    _log(args, f"ground energy {energies.min():.12g} with {len(ground_labels)} states")
    return EXIT_OK


def _cmd_tile_quantum(args) -> int:
    loaded, noise = _load_quantum_params(args.params)
    _check_trials(args.trials)
    seed = _resolve_seed(args)
    noise = dataclasses.replace(noise, seed=seed)
    terms = {
        "j": loaded["j"] or 0.0,
        "j_a": loaded["j_a"],
        "j_c": loaded["j_c"],
        "noise.thermal_coefficient": noise.thermal_coefficient,
    }
    with _overflow_errors(args.params, "the tile spectrum", terms):
        if loaded["sweep"]:
            dist = sweep_distribution(
                loaded["j_a"], loaded["j_c"], noise=noise, trials=args.trials
            )
        else:
            dist = logical_distribution(
                loaded["j"], loaded["j_a"], loaded["j_c"], noise=noise,
                trials=args.trials,
            )
    resolved = {
        **loaded,
        "trials": args.trials,
        "seed": seed,
        "format": args.format,
        "dense": args.dense,
    }
    emit_distribution(args, dist, "tile quantum", resolved)
    return EXIT_OK


@np.errstate(all="ignore")  # every overflow is reported below by field
def _cmd_circuit_sweep(args) -> int:
    config = _load_circuit_config(args.config)
    if "sweep_i" not in config:
        raise ValueError(f"{args.config}: no 'sweep' section configured")
    i_dc, flux, l_squid, omega0, clipped = flux_table(
        config["resonator"], config["squid"], config["current_to_flux"],
        config["sweep_i"],
    )
    resolved = {
        "squid": dataclasses.asdict(config["squid"]),
        "resonator": dataclasses.asdict(config["resonator"]),
        "current_to_flux": config["current_to_flux"],
        "i_start": float(config["sweep_i"][0]),
        "i_stop": float(config["sweep_i"][-1]),
        "points": int(config["sweep_i"].size),
        "format": args.format,
        "clipped_i_dc": i_dc[clipped].tolist(),
    }
    kept = ~clipped
    bias, flux, l_squid = i_dc[kept], flux[kept], l_squid[kept]
    f0 = omega0[kept] / (2 * math.pi)
    path = args.config
    _require_finite(path, "sweep.current_to_flux", "flux / PHI0", flux / PHI0, bias)
    _require_finite(path, "squid", "SQUID inductance", l_squid, bias)
    _require_finite(path, config["l_r_field"], "resonance frequency", f0, bias)
    columns = {"i_dc_A": bias, "flux_wb": flux, "l_squid_H": l_squid, "f0_Hz": f0}
    _emit(args, "circuit sweep", resolved, columns)
    if clipped.any():
        _log(args, f"{clipped.sum()} samples clipped near half-quantum flux")
    return EXIT_OK


@np.errstate(all="ignore")  # an overflowing voltage is reported below by field
def _cmd_circuit_iv(args) -> int:
    config = _load_circuit_config(args.config)
    if "junction" not in config:
        raise ValueError(f"{args.config}: no 'iv' section configured")
    if not (args.temp >= 0 and math.isfinite(args.temp)):
        raise ValueError(f"--temp must be >= 0 and finite, got {args.temp}")
    seed = _resolve_seed(args)
    with JsonObject({}, args.config, "iv.").naming(rsj_iv_curve):
        i, v = rsj_iv_curve(
            config["junction"],
            args.temp,
            config["iv_i"],
            seed=seed,
            dt_eff=config["dt_eff"],
        )
    if not np.isfinite(v).all():
        # without noise |V| grows with |I|, so an overflow reaches an end of the
        # bias range; if neither end overflows alone, the thermal walk did it
        ends = rsj_iv_curve(config["junction"], 0.0, i[[0, -1]])[1]
        names = ("iv.i_start", "iv.i_stop")
        fields = [f for f, e in zip(names, ends) if not math.isfinite(e)]
        field = (fields or ["iv.dt_eff"])[0]
        _require_finite(args.config, field, "voltage", v, i)
    resolved = {
        "junction": dataclasses.asdict(config["junction"]),
        "temperature": args.temp,
        "dt_eff": config["dt_eff"],
        "i_start": float(i[0]),
        "i_stop": float(i[-1]),
        "points": int(i.size),
        "seed": seed,
        "format": args.format,
    }
    _emit(args, "circuit iv", resolved, {"i_A": i, "v_V": v})
    return EXIT_OK


def _cmd_anneal(args) -> int:
    data = JsonObject.load(args.program)
    program = data.model(CouplingProgram, pump_phase=data.numbers("pump_phase", 6))
    sched = data.section("schedule") or JsonObject({}, args.program, "schedule.")
    schedule = sched.model(AnnealSchedule)
    kappa = data.number("kappa", None)
    if kappa is not None:
        with data.naming(wall_clock_seconds):
            wall_clock_s = wall_clock_seconds(schedule, kappa)
    eta = data.number("eta", DEFAULT_ETA)
    beta = data.number("beta", DEFAULT_BETA)
    _check_trials(args.trials)
    seed = _resolve_seed(args)
    with data.naming(run_trials):  # eta, beta
        hist = run_trials(
            program,
            trials=args.trials,
            seed=seed,
            schedule=schedule,
            eta=eta,
            beta=beta,
            canonical=args.canonical,
        )
    resolved = {
        **dataclasses.asdict(program),
        "j_max_ancilla": program.ancilla_scale,
        "schedule": dataclasses.asdict(schedule),
        "eta": eta,
        "beta": beta,
        "trials": args.trials,
        "seed": seed,
        "canonical": args.canonical,
        "format": args.format,
        "dense": args.dense,
        "settled": hist.trials - hist.unsettled,
        "unsettled": hist.unsettled,
    }
    if kappa is not None:
        resolved["kappa"] = kappa
        resolved["wall_clock_s"] = wall_clock_s
    emit_histogram(args, hist, "anneal", resolved)
    _log(
        args,
        f"{hist.trials - hist.unsettled}/{hist.trials} trials settled, "
        f"{len(hist.support())} distinct states",
    )
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser assembly


def _add_output_flags(parser, dense: bool = False):
    parser.add_argument("--out", help="output file (default: stdout)")
    parser.add_argument(
        "--format", choices=("csv", "json"), default="csv", help="output format"
    )
    parser.add_argument(
        "--quiet", action="store_true", help="suppress diagnostics on stderr"
    )
    if dense:
        parser.add_argument(
            "--dense",
            action="store_true",
            help="emit zero-probability states as well",
        )


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="jpotile", description=__doc__)
    parser.add_argument("--version", action="version", version=__version__)
    top = parser.add_subparsers(dest="command", required=True)

    lhz_parser = top.add_parser("lhz", help="logical-to-physical mapping")
    lhz_sub = lhz_parser.add_subparsers(dest="subcommand", required=True)
    p = lhz_sub.add_parser("map", help="emit layout and physical fields")
    p.add_argument("--n", type=int, required=True, help="logical spin count")
    p.add_argument("--problem", required=True, help="problem file (JSON)")
    _add_output_flags(p)
    p.set_defaults(func=_cmd_lhz_map)

    tile_parser = top.add_parser("tile", help="six-oscillator tile models")
    tile_sub = tile_parser.add_subparsers(dest="subcommand", required=True)
    p = tile_sub.add_parser("enumerate", help="all tile assignments and energies")
    p.add_argument("--params", required=True, help="tile parameter file (JSON)")
    _add_output_flags(p)
    p.set_defaults(func=_cmd_tile_enumerate)
    p = tile_sub.add_parser("quantum", help="ground-state distribution")
    p.add_argument("--params", required=True, help="parameter file (JSON)")
    p.add_argument("--trials", type=int, default=1, help="disorder trials")
    p.add_argument("--seed", type=int, help="master seed (drawn if absent)")
    _add_output_flags(p, dense=True)
    p.set_defaults(func=_cmd_tile_quantum)

    circuit_parser = top.add_parser("circuit", help="circuit tuning relations")
    circuit_sub = circuit_parser.add_subparsers(dest="subcommand", required=True)
    p = circuit_sub.add_parser("sweep", help="frequency versus bias current")
    p.add_argument("--config", required=True, help="circuit config file (JSON)")
    _add_output_flags(p)
    p.set_defaults(func=_cmd_circuit_sweep)
    p = circuit_sub.add_parser("iv", help="noisy junction I-V curve")
    p.add_argument("--config", required=True, help="circuit config file (JSON)")
    p.add_argument("--temp", type=float, required=True, help="temperature (K)")
    p.add_argument("--seed", type=int, help="master seed (drawn if absent)")
    _add_output_flags(p)
    p.set_defaults(func=_cmd_circuit_iv)

    p = top.add_parser("anneal", help="annealing trial ensemble")
    p.add_argument("--program", required=True, help="coupling program file (JSON)")
    p.add_argument("--trials", type=int, default=1000, help="ensemble size")
    p.add_argument("--seed", type=int, help="master seed (drawn if absent)")
    _add_output_flags(p, dense=True)
    p.add_argument("--canonical", action="store_true",
                   help="fold global sign flips into canonical readout")
    p.set_defaults(func=_cmd_anneal)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The process's one parser: setting argparse up costs more than most
    subcommands, and parse_args leaves the parser unchanged."""
    return build_parser()


def main(argv: Optional[Sequence[str]] = None) -> int:
    try:
        args = _parser().parse_args(argv)
    except _UsageError as exc:
        print(exc, file=sys.stderr)
        return EXIT_USAGE
    started = time.strftime("%Y-%m-%dT%H:%M:%S")
    command = " ".join(filter(None, (args.command, getattr(args, "subcommand", None))))
    _log(args, f"jpotile {command} started {started}")
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        # ParseError and the other validation types subclass ValueError
        print(f"jpotile: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except RuntimeError as exc:
        print(f"jpotile: numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
