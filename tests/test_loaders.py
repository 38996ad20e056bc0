"""Every document loader and parser gives a valid object or a HomeplanError, never another exception.

The replay tests replace one field of a valid environment, model or
knowledge-base document: at every depth, and for lists their first three
elements.  The parser tests feed the presence-table and allocation-response
parsers arbitrary and near-valid text.
"""

import copy
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from homeplan.errors import HomeplanError, SchemaError
from homeplan.knowledge import (
    knowledge_from_dict,
    knowledge_from_environment,
    knowledge_to_dict,
)
from homeplan.planner import parse_allocation_response
from homeplan.spatial import Hyperparameters, model_from_dict, model_to_dict
from homeplan.world import environment_from_dict, paper_home

from conftest import environment_to_dict, parse_presence_table, random_model

JUNK = [None, 0, -1, 1e400, float("nan"), "x", [], {}, [1], [[1, 2]], True, 3.5, [None, None]]
DELETE = object()


def _documents():
    env = paper_home()
    model = replace(random_model(np.random.default_rng(0), 3), hyperparameters=Hyperparameters(), seed=5)
    kb = knowledge_from_environment(env, "1F", "Robot1")
    return {
        "environment": (environment_to_dict(env), environment_from_dict),
        "model": (model_to_dict(model), model_from_dict),
        "knowledge": (knowledge_to_dict(kb), knowledge_from_dict),
    }


DOCUMENTS = _documents()


def field_paths(doc, prefix=()):
    """The key path of every field of ``doc``, lists cut to their first three elements."""
    if isinstance(doc, dict):
        items = doc.items()
    elif isinstance(doc, list):
        items = enumerate(doc[:3])
    else:
        return
    for key, value in items:
        yield prefix + (key,)
        yield from field_paths(value, prefix + (key,))


PATHS = {name: list(field_paths(doc)) for name, (doc, _) in DOCUMENTS.items()}


def replaced(doc, path, value):
    """A copy of ``doc`` with the field at ``path`` set to ``value``, or removed for DELETE."""
    doc = copy.deepcopy(doc)
    node = doc
    for key in path[:-1]:
        node = node[key]
    if value is DELETE:
        del node[path[-1]]
    else:
        node[path[-1]] = copy.deepcopy(value)
    return doc


def load_typed(load, doc) -> None:
    try:
        load(doc)
    except HomeplanError:
        pass


@pytest.mark.parametrize("name", sorted(DOCUMENTS))
def test_every_junk_field_loads_or_is_a_homeplan_error(name):
    doc, load = DOCUMENTS[name]
    load(doc)
    cases = 0
    for path in field_paths(doc):
        for value in JUNK + ([DELETE] if isinstance(path[-1], str) else []):
            load_typed(load, replaced(doc, path, value))
            cases += 1
    assert cases > 900


json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=6,
)


@pytest.mark.parametrize("name", sorted(DOCUMENTS))
@settings(max_examples=60)
@given(data=st.data())
def test_any_json_field_loads_or_is_a_homeplan_error(name, data):
    doc, load = DOCUMENTS[name]
    path = data.draw(st.sampled_from(PATHS[name]))
    load_typed(load, replaced(doc, path, data.draw(json_values)))


# ----------------------------------------------------------- the two parsers

def _parsed_or_typed(parse, text):
    try:
        return parse(text)
    except HomeplanError:
        return None


ROW_VALUES = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True).map(repr),
    st.integers(-10, 10**400).map(str),
    st.sampled_from(["nan", "inf", "-1", "1e400", "-0.0", "abc", "", "1_0", "0x1", " 1"]),
)
WORDS = st.text(st.characters(codec="ascii", exclude_characters="\r\n"), max_size=6)


@st.composite
def presence_tables(draw):
    blocks = []
    for _ in range(draw(st.integers(1, 2))):
        rooms = draw(st.lists(WORDS, max_size=3))
        lines = [draw(WORDS), '"List of probabilities that an object exists":', f"[{', '.join(rooms)}]"]
        for _ in range(draw(st.integers(0, 3))):
            values = draw(st.lists(ROW_VALUES, min_size=1, max_size=4))
            lines.append(f"{draw(WORDS)} = [{', '.join(values)}]")
        blocks.append("\n".join(lines))
    return f"\n{'-' * 16}\n".join(blocks)


@settings(max_examples=150)
@given(text=presence_tables() | st.text(max_size=40))
def test_any_presence_table_parses_or_is_a_homeplan_error(text):
    kbs = _parsed_or_typed(parse_presence_table, text)
    for kb in kbs or []:
        for row in kb.presence_table.values():
            assert len(row) == len(kb.room_names)
            assert all(np.isfinite(v) and v >= 0 for v in row)
            assert sum(row) == 0 or abs(sum(row) - 1) < 1e-9


@pytest.mark.parametrize("value", ["abc", "nan", "1e400", "-1", "inf", ""])
def test_presence_table_rejects_a_bad_value(value):
    with pytest.raises(SchemaError):
        parse_presence_table(f'Robot1\n"List of probabilities that an object exists":\n[a, b]\n'
                             f"cup = [0.5, {value}]")


def test_presence_table_rejects_a_row_whose_sum_overflows():
    with pytest.raises(SchemaError):
        parse_presence_table('Robot1\n"List of probabilities that an object exists":\n[a, b]\n'
                             "cup = [1e308, 1e308]")


ALLOCATION_LINES = st.builds(
    "SubTask {}: {} -> {}".format,
    st.integers(0, 10**30) | st.text("0123456789٣", min_size=1, max_size=12),
    WORDS, WORDS,
)


@settings(max_examples=100)
@given(lines=st.lists(ALLOCATION_LINES | st.text(max_size=30), max_size=4))
def test_any_allocation_response_parses_or_is_a_homeplan_error(lines):
    parsed = _parsed_or_typed(parse_allocation_response, "\n".join(lines))
    for index, robot in (parsed or {}).items():
        assert isinstance(index, int) and index >= 0
        assert robot and not any(c.isspace() for c in robot)


def test_allocation_response_skips_an_index_too_long_for_int():
    assert parse_allocation_response(f"SubTask {'9' * 5000}: find cup -> Robot1") == {}
