"""Every document loader gives a valid object or a HomeplanError, never another exception.

Each test replaces one field of a valid environment, model or knowledge-base
document: at every depth, and for lists their first three elements.
"""

import copy

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from homeplan.errors import HomeplanError
from homeplan.knowledge import knowledge_from_dict, knowledge_from_environment, knowledge_to_dict
from homeplan.spatial import Hyperparameters, model_from_dict, model_to_dict
from homeplan.world import environment_from_dict, environment_to_dict, paper_home

from conftest import random_model

JUNK = [None, 0, -1, 1e400, float("nan"), "x", [], {}, [1], [[1, 2]], True, 3.5, [None, None]]
DELETE = object()


def _documents():
    env = paper_home()
    model = random_model(np.random.default_rng(0), 2, 3)
    model.hyperparameters, model.seed = Hyperparameters(), 5
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
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_any_json_field_loads_or_is_a_homeplan_error(name, data):
    doc, load = DOCUMENTS[name]
    path = data.draw(st.sampled_from(PATHS[name]))
    load_typed(load, replaced(doc, path, data.draw(json_values)))
