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
import dataclasses
import functools
import json
import math
import os
import secrets
import sys
import tempfile
import time
from itertools import chain, repeat
from json.encoder import encode_basestring_ascii
from typing import Optional, Sequence

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
    flux_sweep,
    rsj_iv_curve,
)
from .errors import ParseError
from .lhz import build_layout, layout_to_dict, map_couplings
from .quantum import (
    NoiseSpec,
    StateDistribution,
    SUPPORT_TOL,
    logical_distribution,
    sweep_distribution,
)
from .spins import JsonObject, all_configs, code_labels, load_ising_problem
from .tile import TileParams, ground_set, tile_energies

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_VALIDATION = 2
EXIT_NUMERICAL = 3

OUT_DIR_ENV = "JPOTILE_OUT_DIR"
# largest grid a circuit config may ask for: `circuit sweep --format json`
# at this many points peaks at ~555 MB resident, near `lhz map` at its n cap
MAX_GRID_POINTS = 500_000


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """argparse with usage failures routed to exit code 1."""

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
        raise ValueError("seed must be a nonnegative integer")
    return seed


_compact_json = json.JSONEncoder(separators=(",", ":")).encode
_SCALARS = {str, int, float, bool, type(None)}
_UNQUOTED = _SCALARS - {str}


def _json_text(value, level: int = 0) -> str:
    """json.dumps(value, indent=2), byte for byte, for a document whose keys
    are strings.

    json.dumps runs its pure-Python encoder whenever indent is set. Here the
    C encoder formats a whole list in one call when it holds only scalars,
    only non-empty rows of non-string scalars, or only non-empty objects of
    scalars, and the text is re-indented with str.replace: the compact form
    of such a list has no newline, and no comma or bracket inside a value.
    """
    if not isinstance(value, (dict, list, tuple)) or not value:
        return _compact_json(value)
    close = "\n" + "  " * level
    inner = close + "  "
    if isinstance(value, dict):
        items = (
            f"{encode_basestring_ascii(key)}: {_json_text(v, level + 1)}"
            for key, v in value.items()
        )
        return "{" + inner + ("," + inner).join(items) + close + "}"
    deeper = inner + "  "
    types = set(map(type, value))
    if types <= _UNQUOTED or types <= {list, tuple}:
        text = _compact_json(value)
        rows = text.count("[") - 1
        if rows == 0:
            return "[" + inner + text[1:-1].replace(",", "," + inner) + close + "]"
        if rows == len(value) and '"' not in text and "[]" not in text:
            # "|" marks the row breaks: no number, null, true or false holds it
            body = (
                text[1:-1].replace("],[", "]|[").replace(",", "," + deeper)
                .replace("[", "[" + deeper).replace("]", inner + "]")
                .replace("|", "," + inner)
            )
            return "[" + inner + body + close + "]"
    elif types == {dict} and all(value):
        if set(map(type, chain.from_iterable(map(dict.values, value)))) <= _SCALARS:
            # one separator for object items and rows; "},<deeper>{" can only
            # be a row break, since a string holds no raw newline
            text = json.dumps(value, separators=("," + deeper, ": "))
            body = text[2:-2].replace(
                "}," + deeper + "{", inner + "}," + inner + "{" + deeper
            )
            return "[" + inner + "{" + deeper + body + inner + "}" + close + "]"
    items = (_json_text(v, level + 1) for v in value)
    return "[" + inner + ("," + inner).join(items) + close + "]"


def _emit(
    command: str,
    resolved: dict,
    columns: dict[str, list],
    fmt: str,
    header: Optional[dict] = None,
    body: Optional[dict] = None,
) -> str:
    """Render one result table with its metadata: the resolved config and seed.

    columns maps each column name to its values. CSV starts with
    '# jpotile <command>' and '# config=<compact JSON>' lines, one more
    '# <name>=<compact JSON>' line per entry of header, then the table;
    float columns print with 12 significant digits. JSON is one document
    with the metadata and the table as "rows", or body in place of the rows.
    """
    if fmt == "json":
        if body is None:
            rows = map(zip, repeat(list(columns)), zip(*columns.values()))
            body = {"rows": list(map(dict, rows))}
        doc = {"metadata": {"command": command, "config": resolved}}
        doc.update(body)
        return _json_text(doc) + "\n"
    lines = [f"# jpotile {command}"]
    for name, value in {"config": resolved, **(header or {})}.items():
        compact = json.dumps(value, sort_keys=True, separators=(",", ":"))
        lines.append(f"# {name}={compact}")
    lines.append(",".join(columns))
    # column-wise formatting: builtin maps only, no per-cell dispatch
    cells = [
        map(format, map(float, v), repeat(".12g"))
        if v and isinstance(v[0], float)
        else map(str, v)
        for v in columns.values()
    ]
    lines.extend(map(",".join, zip(*cells)))
    return "\n".join(lines) + "\n"


def _write_output(args, text: str) -> None:
    out = getattr(args, "out", None)
    if out is None:
        sys.stdout.write(text)
        return
    out_dir = os.environ.get(OUT_DIR_ENV)
    if out_dir and not os.path.isabs(out):
        out = os.path.join(out_dir, out)
    directory = os.path.dirname(os.path.abspath(out))
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".jpotile-", suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, out)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise
    _log(args, f"wrote {out}")


# ---------------------------------------------------------------------------
# histogram and distribution emitters


def emit_histogram(
    hist: StateHistogram, fmt: str, dense: bool, command: str, resolved: dict
) -> str:
    """Render a state histogram. Zero-count states are omitted unless dense.

    Rows are sorted by state label; probabilities carry 6 significant
    digits. The JSON form round-trips the same counts.
    """
    labels = sorted(hist.counts)
    if dense:
        labels = code_labels(range(2**hist.n_bits), hist.n_bits)
    counts = [hist.counts.get(label, 0) for label in labels]
    probabilities = [_round_prob(count / hist.trials) for count in counts]
    columns = {"state": labels, "count": counts, "probability": probabilities}
    return _emit(command, resolved, columns, fmt)


def emit_distribution(
    dist: StateDistribution, fmt: str, dense: bool, command: str, resolved: dict
) -> str:
    """Render a probability distribution over the 16 logical states."""
    p = dist.probabilities
    kept = np.arange(16) if dense else np.flatnonzero(p > SUPPORT_TOL)
    columns = {
        "state": code_labels(kept, 4),
        "probability": [_round_prob(v) for v in p[kept].tolist()],
    }
    return _emit(command, resolved, columns, fmt)


# ---------------------------------------------------------------------------
# subcommand loaders


def _load_tile_params(path: str) -> tuple[TileParams, Optional[tuple[int, int]]]:
    data = JsonObject.load(path)
    params = TileParams(
        j=data.numbers("j", 4),
        j_a1=data.number("j_a1"),
        j_a2=data.number("j_a2"),
        c_cnst=data.number("c_cnst"),
    )
    clamp = data.numbers("clamp_ancilla", 2, None)
    if clamp is not None:
        if any(v not in (-1.0, 1.0) for v in clamp):
            raise data.error("clamp_ancilla", "entries must be -1 or +1")
        clamp = (int(clamp[0]), int(clamp[1]))
    return params, clamp


def _load_quantum_params(path: str) -> dict:
    data = JsonObject.load(path)
    out = {
        "j_a": data.number("j_a"),
        "j_c": data.number("j_c"),
        "j": data.numbers("j", 4, None),
        "sweep": data.flag("sweep", False),
        "thermal_coefficient": 0.0,
        "distribution": "uniform",
    }
    noise = data.section("noise")
    if noise is not None:
        out["thermal_coefficient"] = noise.number("thermal_coefficient", 0.0) or 0.0
        out["distribution"] = noise.get("distribution", "uniform")
        if out["distribution"] not in ("uniform", "normal"):
            raise noise.error("distribution", "must be 'uniform' or 'normal'")
    if out["j"] is None:
        out["sweep"] = True
    return out


def _load_circuit_config(path: str) -> dict:
    data = JsonObject.load(path)
    sq = data.section("squid", required=True)
    squid = SquidParams(
        l1=sq.number("l1"),
        l2=sq.number("l2"),
        i_c1=sq.number("i_c1"),
        i_c2=sq.number("i_c2"),
    )
    rs = data.section("resonator", required=True)
    omega_r = rs.number("omega_r")
    c_s = rs.number("c_s")
    l_r = rs.number("l_r", None)
    target = data.number("target_omega0", None)
    # the field that sets l_r, named when the resonance frequency overflows
    l_r_field = "resonator.l_r"
    if l_r is None:
        if target is None:
            raise ParseError(
                f"{path}: provide either 'resonator.l_r' or 'target_omega0'"
            )
        l_r = calibrate_resonator(target, omega_r, squid)
        if not math.isfinite(l_r):
            raise data.error("squid", "its inductance overflows the calibrated l_r")
        l_r_field = "target_omega0"
    resonator = ResonatorParams(omega_r=omega_r, l_r=l_r, c_s=c_s)
    config = {
        "squid": squid, "resonator": resonator, "target_omega0": target,
        "l_r_field": l_r_field,
    }
    sweep = data.section("sweep")
    if sweep is not None:
        config["current_to_flux"] = sweep.number("current_to_flux")
        config["sweep_i"] = _sample_grid(sweep)
    iv = data.section("iv")
    if iv is not None:
        junction = iv.section("junction", required=True)
        i_c = junction.number("i_c")
        if not math.isfinite(i_c * i_c):
            raise junction.error("i_c", f"i_c**2 overflows, got {i_c!r}")
        config["junction"] = JunctionParams(
            i_c=i_c, r_shunt=junction.number("r_shunt")
        )
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


def _require_finite(path: str, field: str, quantity: str, values, bias) -> None:
    """Reject a computed circuit column that overflowed, naming the input
    field of the file at path that drives it and the first bias current
    where it happened."""
    bad = np.flatnonzero(~np.isfinite(values))
    if bad.size:
        raise JsonObject({}, path).error(
            field, f"{quantity} overflows at bias current {bias[bad[0]]:g} A"
        )


def _load_program(path: str) -> dict:
    data = JsonObject.load(path)
    program = CouplingProgram(
        pump_phase=data.numbers("pump_phase", 6),
        coupler_offset_phase=data.number("coupler_offset_phase", 0.0),
        j_max=data.number("j_max", 1.0),
        j_max_ancilla=data.number("j_max_ancilla", None),
        c_cnst=data.number("c_cnst", 0.0),
    )
    sched = data.section("schedule") or JsonObject({}, path)
    schedule = AnnealSchedule(
        duration=sched.number("duration", 50.0),
        dt=sched.number("dt", 1e-2),
        p_start=sched.number("p_start", 0.5),
        p_end=sched.number("p_end", 2.0),
    )
    return {
        "program": program,
        "schedule": schedule,
        "eta": data.number("eta", DEFAULT_ETA),
        "beta": data.number("beta", DEFAULT_BETA),
        "kappa": data.number("kappa", None),
    }


# ---------------------------------------------------------------------------
# subcommands


def _cmd_lhz_map(args) -> int:
    problem = load_ising_problem(args.problem)
    if problem.n != args.n:
        raise ValueError(
            f"--n {args.n} does not match the problem file (n={problem.n})"
        )
    layout = build_layout(args.n)
    j_fields = map_couplings(problem)
    doc = layout_to_dict(layout, j_fields)
    resolved = {
        "n": args.n,
        "problem": os.path.basename(args.problem),
        "format": args.format,
    }
    columns = {
        "k": list(range(layout.k_physical)),
        "i": layout.pair_ends[0].tolist(),
        "j": layout.pair_ends[1].tolist(),
        "j_k": doc["j_fields"],
    }
    layout_keys = ("rows", "row_members", "fixed_row", "tiles")
    header = {"layout": {k: doc[k] for k in layout_keys}}
    _write_output(args, _emit("lhz map", resolved, columns, args.format, header, doc))
    return EXIT_OK


def _cmd_tile_enumerate(args) -> int:
    params, clamp = _load_tile_params(args.params)
    e_min, ground = ground_set(params, clamp_ancilla=clamp)
    ground_labels = sorted(g.label for g in ground)
    resolved = {
        "j": list(params.j),
        "j_a1": params.j_a1,
        "j_a2": params.j_a2,
        "c_cnst": params.c_cnst,
        "clamp_ancilla": list(clamp) if clamp else None,
        "format": args.format,
        "ground_energy": e_min,
        "ground_states": ground_labels,
    }
    rows = all_configs(6)
    if clamp:
        rows = rows[np.all(rows[:, 4:] == clamp, axis=1)]
    columns = dict(zip(("s1", "s2", "s3", "s4", "a1", "a2"), rows.T.tolist()))
    columns["energy"] = tile_energies(params, rows).tolist()
    columns["parity"] = np.prod(rows[:, :4], axis=1).tolist()
    _write_output(args, _emit("tile enumerate", resolved, columns, args.format))
    _log(args, f"ground energy {e_min:.12g} with {len(ground_labels)} states")
    return EXIT_OK


def _cmd_tile_quantum(args) -> int:
    loaded = _load_quantum_params(args.params)
    _check_trials(args.trials)
    seed = _resolve_seed(args)
    noise = NoiseSpec(
        thermal_coefficient=loaded["thermal_coefficient"],
        distribution=loaded["distribution"],
        seed=seed,
    )
    if loaded["sweep"]:
        dist = sweep_distribution(
            loaded["j_a"], loaded["j_c"], noise=noise, trials=args.trials
        )
    else:
        dist = logical_distribution(
            loaded["j"], loaded["j_a"], loaded["j_c"], noise=noise, trials=args.trials
        )
    resolved = {
        "j": list(loaded["j"]) if loaded["j"] is not None else None,
        "j_a": loaded["j_a"],
        "j_c": loaded["j_c"],
        "sweep": loaded["sweep"],
        "thermal_coefficient": loaded["thermal_coefficient"],
        "distribution": loaded["distribution"],
        "trials": args.trials,
        "seed": seed,
        "format": args.format,
        "dense": args.dense,
    }
    text = emit_distribution(dist, args.format, args.dense, "tile quantum", resolved)
    _write_output(args, text)
    return EXIT_OK


@np.errstate(all="ignore")  # every overflow is reported below by field
def _cmd_circuit_sweep(args) -> int:
    config = _load_circuit_config(args.config)
    if "sweep_i" not in config:
        raise ValueError(f"{args.config}: no 'sweep' section configured")
    i_dc, flux, l_squid, omega0, clipped = map(np.array, zip(*flux_sweep(
        config["resonator"], config["squid"], config["current_to_flux"],
        config["sweep_i"],
    )))
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
    columns = {
        "i_dc_A": bias.tolist(),
        "flux_wb": flux.tolist(),
        "l_squid_H": l_squid.tolist(),
        "f0_Hz": f0.tolist(),
    }
    _write_output(args, _emit("circuit sweep", resolved, columns, args.format))
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
    columns = {"i_A": i.tolist(), "v_V": v.tolist()}
    _write_output(args, _emit("circuit iv", resolved, columns, args.format))
    return EXIT_OK


def _cmd_anneal(args) -> int:
    loaded = _load_program(args.program)
    _check_trials(args.trials)
    seed = _resolve_seed(args)
    hist = run_trials(
        loaded["program"],
        trials=args.trials,
        seed=seed,
        schedule=loaded["schedule"],
        eta=loaded["eta"],
        beta=loaded["beta"],
        canonical=args.canonical,
    )
    program = loaded["program"]
    schedule = loaded["schedule"]
    resolved = {
        "pump_phase": list(program.pump_phase),
        "coupler_offset_phase": program.coupler_offset_phase,
        "j_max": program.j_max,
        "j_max_ancilla": program.ancilla_scale,
        "c_cnst": program.c_cnst,
        "schedule": dataclasses.asdict(schedule),
        "eta": loaded["eta"],
        "beta": loaded["beta"],
        "trials": args.trials,
        "seed": seed,
        "canonical": args.canonical,
        "format": args.format,
        "dense": args.dense,
        "settled": hist.trials - hist.unsettled,
        "unsettled": hist.unsettled,
    }
    if loaded["kappa"] is not None:
        resolved["kappa"] = loaded["kappa"]
        resolved["wall_clock_s"] = wall_clock_seconds(schedule, loaded["kappa"])
    text = emit_histogram(hist, args.format, args.dense, "anneal", resolved)
    _write_output(args, text)
    _log(
        args,
        f"{hist.trials - hist.unsettled}/{hist.trials} trials settled, "
        f"{len(hist.support())} distinct states",
    )
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser assembly


def _add_output_flags(parser, dense: bool = False, canonical: bool = False):
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
    if canonical:
        parser.add_argument(
            "--canonical",
            action="store_true",
            help="fold global sign flips into canonical readout",
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
    _add_output_flags(p, dense=True, canonical=True)
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
    _log(args, f"jpotile {args.command} started {started}")
    try:
        return args.func(args)
    except ValueError as exc:
        # ParseError and the other validation types subclass ValueError
        print(f"jpotile: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except OSError as exc:
        print(f"jpotile: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except RuntimeError as exc:
        print(f"jpotile: numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
