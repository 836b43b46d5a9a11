"""The CLI's table writer: the CSV table against per-cell formatting, and
the JSON writer's one-call paths for bulk lists."""

import json
import math
import tracemalloc

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


@settings(deadline=None)
@given(tables())
def test_csv_table_matches_per_cell_formatting(columns):
    head = f"# jpotile t\n# config={{}}\n{','.join(columns)}\n"
    assert cli._emit("t", {}, columns, "csv") == head + per_cell_csv(columns)


def test_csv_special_values():
    columns = {"x": SPECIAL_FLOATS, "n": list(range(len(SPECIAL_FLOATS)))}
    rows = cli._emit("t", {}, columns, "csv").splitlines()[3:]
    assert [r.split(",")[0] for r in rows] == [
        "0", "-0", "inf", "-inf", "nan", "4.94065645841e-324", "-4.94065645841e-324",
        "1e+300", "-1e+300",
    ]
    assert cli._emit("t", {}, {"x": [], "y": []}, "csv").endswith("\nx,y\n")


RENDER = cli._json_text


def _json_calls(monkeypatch, capsys, argv):
    """Stdout of a JSON run, and how many times _json_text ran for it."""
    calls = []

    def counted(value, level=0):
        calls.append(value)
        return RENDER(value, level)

    monkeypatch.setattr(cli, "_json_text", counted)
    assert cli.main(argv + ["--format", "json", "--quiet"]) == 0
    return capsys.readouterr().out, len(calls)


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


def _sweep(tmp_path, points):
    path = tmp_path / f"circuit{points}.json"
    path.write_text(json.dumps({
        "squid": {"l1": 7.5e-12, "l2": 7.5e-12, "i_c1": 80e-6, "i_c2": 80e-6},
        "resonator": {"omega_r": 3.1e10, "c_s": 5e-13, "l_r": 1e-9},
        "sweep": {"current_to_flux": 2e-15, "i_start": 0.0, "i_stop": 1e-3, "points": points},
    }))
    return ["circuit", "sweep", "--config", str(path)]


@pytest.mark.parametrize(
    "small, large",
    [
        # pairs, tiles and row_members: 6, 3 and 3 rows against 780, 741 and 39
        (lambda p: _problem(p, 4), lambda p: _problem(p, 40)),
        # 16 row objects against 64
        (lambda p: _tile(p, [1, -1]), lambda p: _tile(p, None)),
        (lambda p: _sweep(p, 2), lambda p: _sweep(p, 300)),
    ],
    ids=["lhz map", "tile enumerate", "circuit sweep"],
)
def test_bulk_lists_take_one_encoder_call(tmp_path, monkeypatch, capsys, small, large):
    # a list that falls back to one call per item renders the same bytes, so
    # only the number of calls shows it: it must not grow with the table
    calls = []
    for argv in (small(tmp_path), large(tmp_path)):
        out, count = _json_calls(monkeypatch, capsys, argv)
        assert out == json.dumps(json.loads(out), indent=2) + "\n"
        calls.append(count)
    assert calls[0] == calls[1]


def test_row_table_keeps_at_most_two_copies_of_its_text():
    rows = [
        {"i_dc_A": k * 1e-7, "flux_wb": -k / 3, "l_squid_H": 1e-12 * k, "f0_Hz": 7.5e9 + k}
        for k in range(20_000)
    ]
    doc = {"metadata": {"command": "circuit sweep", "config": {}}, "rows": rows}
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        text = cli._json_text(doc)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert text == json.dumps(doc, indent=2)
    assert peak < 2.2 * len(text)
