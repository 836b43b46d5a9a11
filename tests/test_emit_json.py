"""The CLI's JSON writer against json.dumps(doc, indent=2), byte for byte."""

import argparse
import contextlib
import io
import json
from unittest import mock

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from jpotile import cli
from jpotile.cli import _json_text
from jpotile.lhz import build_layout, layout_to_dict, map_couplings
from jpotile.spins import load_ising_problem

SCALARS = st.one_of(
    st.integers(min_value=-(2**70), max_value=2**70),
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([-0.0, 0.0, 1e-300, -1e-300, 1e300, 3.0, -12.0, None, True, False]),
    st.text(max_size=6),
)
# the value forms every CLI table holds, with an empty list in some cells
CELLS = st.one_of(SCALARS, st.just([]))


def same_as_stdlib(doc):
    return _json_text(doc) == json.dumps(doc, indent=2)


def test_layout_documents(tmp_path, capsys):
    # lhz map writes its tables from the layout's arrays; the JSON document
    # is the one layout_to_dict's lists give, and the CSV layout line its
    # row shape and tiles
    for n in range(3, 41):
        # couplings on about half the pairs, zero, tiny and huge ones among them
        rng = np.random.default_rng(n)
        values = rng.choice([0.0, 1e-300, -2.5, 1 / 3, 1e300], size=(n, n))
        upper = np.triu(values * rng.integers(0, 2, (n, n)), 1)
        path = tmp_path / f"problem{n}.json"
        couplings = (upper + upper.T).ravel().tolist()
        path.write_text(json.dumps({"n": n, "h": [0] * n, "J": couplings}))
        argv = ["lhz", "map", "--n", str(n), "--problem", str(path), "--format", "json"]
        assert cli.main(argv + ["--quiet"]) == 0
        config = {"n": n, "problem": path.name, "format": "json"}
        doc = {"metadata": {"command": "lhz map", "config": config}}
        fields = map_couplings(load_ising_problem(str(path)))
        doc.update(layout_to_dict(build_layout(n), fields))
        assert capsys.readouterr().out == json.dumps(doc, indent=2) + "\n", n
        argv[-1] = "csv"
        assert cli.main(argv + ["--quiet"]) == 0
        line = capsys.readouterr().out.splitlines()[2]
        shape = {key: doc[key] for key in ("rows", "row_members", "fixed_row", "tiles")}
        assert json.loads(line.removeprefix("# layout=")) == shape, n


@st.composite
def row_tables(draw):
    """A table as the CLI's columns hold it, with the metadata of its
    document: every row has the same keys in the same order."""
    keys = draw(st.lists(st.text(max_size=5), min_size=1, max_size=6, unique=True))
    rows = draw(st.integers(min_value=0, max_value=12))
    columns = {key: draw(st.lists(CELLS, min_size=rows, max_size=rows)) for key in keys}
    config = draw(st.dictionaries(st.text(max_size=5), st.one_of(
        SCALARS, st.lists(SCALARS, max_size=4), st.lists(st.lists(SCALARS), max_size=3)
    )))
    return config, columns


@settings(deadline=None)
@given(row_tables(), st.sampled_from([1, 2, 5, 4096]))
def test_row_tables(table, rows_per_call):
    config, columns = table
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        args = argparse.Namespace(format="json", out=None)
        with mock.patch.object(cli, "_TABLE_ROWS", rows_per_call):
            cli._emit(args, "tile enumerate", config, columns)
    rows = [dict(zip(columns, row)) for row in zip(*columns.values())]
    doc = {"metadata": {"command": "tile enumerate", "config": config}, "rows": rows}
    assert out.getvalue() == json.dumps(doc, indent=2) + "\n"


JSON_VALUES = st.recursive(
    SCALARS,
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.dictionaries(st.text(max_size=4), inner, max_size=4),
    ),
    max_leaves=20,
)


@settings(deadline=None)
@given(JSON_VALUES)
def test_any_nesting(doc):
    assert same_as_stdlib(doc)


def test_hand_cases():
    for doc in (
        [], {}, [[]], [[], [1]], [[1, [2]], [3]], [[1, [2]], 3], [3, [1, 2]],
        [[{}], [1, {}]], [{"a": []}, {"a": 1}], [{}, {"a": 1}], [{"a": 1}, {}],
        [[None, 1], [2, None]], {"k": [[0.1, -0.0], [1e300, 1e-300]]},
        [{"a": "},\n{"}, {"a": "],["}], ["a,b", "c"], [[1, 2], (3, 4)],
        {"tiles": [[0, 1, 2, None]], "pairs": [[0, 1]], "j_fields": [-0.0]},
    ):
        assert same_as_stdlib(doc), doc
