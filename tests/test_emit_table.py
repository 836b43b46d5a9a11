"""The CLI's table writer: the CSV table against per-cell formatting, every
subcommand's bytes at any number of rows per format call, and the memory and
format calls a table costs as it grows."""

import argparse
import contextlib
import io
import json
import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jpotile import cli

SPECIAL_FLOATS = [0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324, -5e-324, 1e300, -1e300]
FLOATS = st.one_of(st.floats(), st.sampled_from(SPECIAL_FLOATS))
INTS = st.integers(min_value=-(2**70), max_value=2**70)
OTHERS = st.one_of(INTS, st.booleans(), st.none(), st.text(max_size=6))
# a column's first value sets its format, so a float column may hold ints
# further down, and any other column may mix ints, strings, bools and None
COLUMN_KINDS = {
    "float": (FLOATS, st.one_of(FLOATS, INTS)),
    "int": (INTS, INTS),
    "str": (st.text(max_size=6), st.text(max_size=6)),
    "mixed": (OTHERS, OTHERS),
}


@st.composite
def tables(draw):
    rows = draw(st.integers(min_value=0, max_value=12))
    kinds = draw(st.lists(st.sampled_from(sorted(COLUMN_KINDS)), min_size=1, max_size=5))
    columns = {}
    for k, kind in enumerate(kinds):
        first, rest = COLUMN_KINDS[kind]
        cells = [draw(first)] if rows else []
        cells += draw(st.lists(rest, min_size=rows - len(cells), max_size=rows - len(cells)))
        columns[f"{kind}{k}"] = cells
    return columns


def per_cell_csv(columns):
    """The table as format(x, ".12g") per cell of a float column and str(x)
    per cell of any other."""
    cells = [
        [format(float(x), ".12g") for x in v] if v and isinstance(v[0], float)
        else [str(x) for x in v]
        for v in columns.values()
    ]
    return "".join(",".join(row) + "\n" for row in zip(*cells))


def written(columns, fmt="csv"):
    """What the writer puts on stdout for one table of a command "t"."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        cli._emit(argparse.Namespace(format=fmt, out=None), "t", {}, columns)
    return out.getvalue()


@settings(deadline=None)
@given(tables(), st.sampled_from([1, 2, 5, 4096]))
def test_csv_table_matches_per_cell_formatting(columns, rows_per_call):
    head = f"# jpotile t\n# config={{}}\n{','.join(columns)}\n"
    with mock.patch.object(cli, "_TABLE_ROWS", rows_per_call):
        assert written(columns) == head + per_cell_csv(columns)


def test_csv_special_values():
    columns = {"x": SPECIAL_FLOATS, "n": list(range(len(SPECIAL_FLOATS)))}
    expected = [
        "0", "-0", "inf", "-inf", "nan", "4.94065645841e-324", "-4.94065645841e-324",
        "1e+300", "-1e+300",
    ]
    # an array column takes the rule of the list it holds
    for table in (columns, {k: np.array(v) for k, v in columns.items()}):
        rows = written(table).splitlines()[3:]
        assert [r.split(",") for r in rows] == [[x, str(n)] for n, x in enumerate(expected)]
    assert written({"x": [], "y": []}).endswith("\nx,y\n")


def _problem(tmp_path, n):
    path = tmp_path / f"problem{n}.json"
    pairs = [[i, i + 1, 1.5] for i in range(n - 1)]
    path.write_text(json.dumps({"n": n, "h": [0] * n, "J": pairs}))
    return ["lhz", "map", "--n", str(n), "--problem", str(path)]


def _tile(tmp_path, clamp):
    path = tmp_path / f"tile{len(clamp or [])}.json"
    params = {"j": [0.3, -0.2, 0.1, 0.0], "j_a1": 1.0, "j_a2": 0.7, "c_cnst": 1.5}
    path.write_text(json.dumps({**params, "clamp_ancilla": clamp}))
    return ["tile", "enumerate", "--params", str(path)]


def _circuit(tmp_path, points):
    path = tmp_path / f"circuit{points}.json"
    path.write_text(json.dumps({
        "squid": {"l1": 7.5e-12, "l2": 7.5e-12, "i_c1": 80e-6, "i_c2": 80e-6},
        "resonator": {"omega_r": 3.1e10, "c_s": 5e-13, "l_r": 1e-9},
        # one flux quantum per ampere: an odd point count puts a point at half of one
        "sweep": {"current_to_flux": 2.067833848e-15, "i_start": 0.0, "i_stop": 1.0,
                  "points": points},
        "iv": {"junction": {"i_c": 2e-6, "r_shunt": 15.0}, "i_start": -6e-6, "i_stop": 6e-6,
               "points": points},
    }))
    return str(path)


def _sweep(tmp_path, points):
    return ["circuit", "sweep", "--config", _circuit(tmp_path, points)]


def _quantum(tmp_path):
    path = tmp_path / "quantum.json"
    path.write_text(json.dumps({"j_a": 1.0, "j_c": 1.0, "noise": {"thermal_coefficient": 0.2}}))
    return ["tile", "quantum", "--params", str(path), "--trials", "3", "--seed", "4"]


def _anneal(tmp_path):
    path = tmp_path / "program.json"
    program = {"pump_phase": [0.3, 1.1, 2.0, 0.0, 0.5, 1.7], "schedule": {"duration": 3.0}}
    path.write_text(json.dumps(program))
    return ["anneal", "--program", str(path), "--trials", "24", "--seed", "8", "--canonical"]


EVERY_SUBCOMMAND = {
    "lhz map": lambda p: _problem(p, 7),
    "tile enumerate": lambda p: _tile(p, None),
    "tile enumerate clamped": lambda p: _tile(p, [1, -1]),
    "tile quantum": _quantum,
    "tile quantum dense": lambda p: _quantum(p) + ["--dense"],
    # 201 points, one of them clipped at half a flux quantum
    "circuit sweep": lambda p: _sweep(p, 201),
    "circuit iv": lambda p: ["circuit", "iv", "--config", _circuit(p, 30), "--temp", "4.2",
                             "--seed", "3"],
    "anneal": _anneal,
    "anneal dense": lambda p: _anneal(p) + ["--dense"],
}


def _stdout(capsys, argv):
    assert cli.main(argv + ["--quiet"]) == 0
    return capsys.readouterr().out


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("command", sorted(EVERY_SUBCOMMAND))
def test_rows_per_call_leaves_every_byte(tmp_path, monkeypatch, capsys, command, fmt):
    argv = EVERY_SUBCOMMAND[command](tmp_path) + ["--format", fmt]
    whole = _stdout(capsys, argv)
    if fmt == "json":
        assert whole == json.dumps(json.loads(whole), indent=2) + "\n"
    for rows_per_call in (1, 2, 7):
        monkeypatch.setattr(cli, "_TABLE_ROWS", rows_per_call)
        assert _stdout(capsys, argv) == whole


class _CountingStream(io.StringIO):
    def __init__(self):
        super().__init__()
        self.writes = 0

    def write(self, text):
        self.writes += 1
        return super().write(text)


def _writes(argv):
    """How many writes a JSON run makes, and its document."""
    stream = _CountingStream()
    with contextlib.redirect_stdout(stream):
        assert cli.main(argv + ["--format", "json", "--quiet"]) == 0
    return stream.writes, json.loads(stream.getvalue())


def _chunks(rows, per_call):
    return -(-rows // per_call)


@pytest.mark.parametrize(
    "small, large, tables",
    [
        # pairs, tiles and j_fields: K, K - n + 1 and K rows
        (lambda p: _problem(p, 4), lambda p: _problem(p, 40),
         lambda doc: [doc["k_physical"], len(doc["tiles"]), doc["k_physical"]]),
        # 16 row objects against 64
        (lambda p: _tile(p, [1, -1]), lambda p: _tile(p, None), lambda doc: [len(doc["rows"])]),
        (lambda p: _sweep(p, 2), lambda p: _sweep(p, 300), lambda doc: [len(doc["rows"])]),
    ],
    ids=["lhz map", "tile enumerate", "circuit sweep"],
)
def test_format_calls_grow_as_rows_over_rows_per_call(tmp_path, monkeypatch, small, large, tables):
    # each chunk of rows is one %-format call and one write, so the writes
    # a table adds are its rows over the rows per call, rounded up
    per_call = 7
    counts = []
    for argv in (small(tmp_path), large(tmp_path)):
        monkeypatch.setattr(cli, "_TABLE_ROWS", per_call)
        writes, doc = _writes(argv)
        counts.append((writes, sum(_chunks(rows, per_call) for rows in tables(doc))))
    (few, few_chunks), (many, many_chunks) = counts
    assert many_chunks > few_chunks
    assert many - few == many_chunks - few_chunks


def _peak_bytes(path, rows, fmt):
    """tracemalloc's peak, above what is live before, while a table of that
    many four-float rows is written to path."""
    columns = {
        name: np.linspace(start, start + 1.0, rows)
        for name, start in (("a", 0.1), ("b", -2.0 / 3.0), ("c", 1e-12), ("d", 7.5e9))
    }
    args = argparse.Namespace(format=fmt, out=str(path), quiet=True)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        cli._emit(args, "t", {}, columns)
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_writing_a_table_to_a_file_takes_memory_bounded_in_its_rows(tmp_path, monkeypatch, fmt):
    monkeypatch.delenv(cli.OUT_DIR_ENV, raising=False)
    path = tmp_path / f"table.{fmt}"
    short = _peak_bytes(path, 2 * cli._TABLE_ROWS, fmt)
    long = _peak_bytes(path, 200_000, fmt)
    # what the writer holds at once is one chunk of rows, however many rows
    # the table has, and a small share of the 200,000 rows' text
    assert long < 1.2 * short + 100_000
    assert long < path.stat().st_size / 5
