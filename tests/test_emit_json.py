"""The CLI's JSON writer against json.dumps(doc, indent=2), byte for byte."""

import json

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from jpotile.cli import _json_text
from jpotile.lhz import build_layout, layout_to_dict

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


@settings(deadline=None, max_examples=60)
@given(st.integers(min_value=3, max_value=40), st.booleans(), st.data())
def test_layout_documents(n, with_fields, data):
    layout = build_layout(n)
    fields = None
    if with_fields:
        fields = np.array(data.draw(st.lists(
            st.floats(allow_nan=False, allow_infinity=False),
            min_size=layout.k_physical, max_size=layout.k_physical,
        )))
    doc = {"metadata": {"command": "lhz map", "config": {"n": n}}}
    doc.update(layout_to_dict(layout, fields))
    assert same_as_stdlib(doc)


@st.composite
def row_tables(draw):
    """A table body as the CLI builds it: one object per row, every row
    with the same keys in the same order."""
    keys = draw(st.lists(st.text(max_size=5), min_size=1, max_size=6, unique=True))
    rows = draw(st.lists(
        st.fixed_dictionaries({key: CELLS for key in keys}), max_size=12
    ))
    config = draw(st.dictionaries(st.text(max_size=5), st.one_of(
        SCALARS, st.lists(SCALARS, max_size=4), st.lists(st.lists(SCALARS), max_size=3)
    )))
    return {"metadata": {"command": "tile enumerate", "config": config}, "rows": rows}


@settings(deadline=None)
@given(row_tables())
def test_row_tables(doc):
    assert same_as_stdlib(doc)


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
