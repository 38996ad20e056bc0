import json
import re
from dataclasses import FrozenInstanceError, replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from homeplan.errors import SchemaError, UnknownLabelError
from homeplan.knowledge import KnowledgeBase
from homeplan.spatial import (
    Hyperparameters,
    SpatialConceptModel,
    load_model,
    model_from_dict,
    model_to_dict,
    object_location_posterior,
    save_model,
    word_posterior,
)

from conftest import random_model

FIXTURE = Path(__file__).parent / "fixtures" / "paper_home_models_visits5_seed7.json"
ARRAYS = ("pi", "word_dist", "object_dist", "means", "covs")


def brute_force_word_posterior(model, region):
    """Independent oracle: Bayes' rule over the words, P(w | r) = pi_r W_r[w] / sum_v pi_r W_r[v]."""
    out = [0.0] * len(model.vocab_places)
    for w in range(len(model.vocab_places)):
        out[w] += model.word_dist[region][w] * model.pi[region]
    total = sum(out)
    return [v / total for v in out]


def brute_force_object_posterior(model, obj):
    """Independent oracle: explicit loop over regions."""
    idx = model.vocab_objects.index(obj)
    out = [0.0] * model.num_regions
    for r in range(model.num_regions):
        out[r] += model.object_dist[r][idx] * model.pi[r]
    total = sum(out)
    return [v / total for v in out]


def delta(n, idx):
    v = np.zeros(n)
    v[idx] = 1.0
    return v


def test_single_concept_word_posterior_collapses():
    # A concept is one region, so a region's word posterior is its own word distribution.
    rng = np.random.default_rng(0)
    model = random_model(rng, num_regions=3)
    for region in range(3):
        post = word_posterior(model, region)
        np.testing.assert_array_equal(post, model.word_dist[region])


def test_disjoint_regions_select_their_concept():
    vocab = ["kitchen", "sofa"]
    model = SpatialConceptModel(
        pi=np.array([0.5, 0.5]),
        word_dist=[delta(2, 0), delta(2, 1)],
        object_dist=[delta(1, 0), delta(1, 0)],
        means=[np.zeros(2), np.ones(2)], covs=[np.eye(2), np.eye(2)],
        vocab_places=vocab, vocab_objects=["thing"],
    )
    np.testing.assert_allclose(word_posterior(model, 0), delta(2, 0), atol=1e-12)
    np.testing.assert_allclose(word_posterior(model, 1), delta(2, 1), atol=1e-12)


def test_word_posterior_matches_brute_force_k3():
    rng = np.random.default_rng(42)
    model = random_model(rng, num_regions=3)
    for region in range(3):
        post = word_posterior(model, region)
        np.testing.assert_allclose(post, brute_force_word_posterior(model, region), atol=1e-12)


def test_single_concept_object_posterior_is_region_dist():
    # With one region every object lies in it; with uniform weights an object's region
    # posterior is its column of the regions' object distributions, normalised.
    rng = np.random.default_rng(1)
    single = random_model(rng, num_regions=1)
    model = replace(random_model(rng, num_regions=4), pi=np.full(4, 0.25))
    for obj in model.vocab_objects:
        np.testing.assert_array_equal(object_location_posterior(single, obj), [1.0])
        column = model.object_dist[:, model.object_id(obj)]
        np.testing.assert_allclose(object_location_posterior(model, obj), column / column.sum(), atol=1e-12)


def test_object_posterior_matches_brute_force_k4():
    rng = np.random.default_rng(43)
    model = random_model(rng, num_regions=4)
    for obj in model.vocab_objects:
        post = object_location_posterior(model, obj)
        np.testing.assert_allclose(post, brute_force_object_posterior(model, obj), atol=1e-12)


def test_region_out_of_range_raises_index_error():
    model = random_model(np.random.default_rng(2), 2)
    for region in (2, -1):
        with pytest.raises(IndexError):
            word_posterior(model, region)


def test_unknown_object_raises_typed_error():
    model = random_model(np.random.default_rng(3), 2)
    with pytest.raises(UnknownLabelError):
        object_location_posterior(model, "no_such_object")


def test_zero_evidence_returns_uniform_with_flag():
    model = SpatialConceptModel(
        pi=np.array([1.0, 0.0]),
        word_dist=[delta(3, 0), delta(3, 2)], object_dist=[delta(2, 0), delta(2, 0)],
        means=[np.zeros(2), np.ones(2)], covs=[np.eye(2), np.eye(2)],
        vocab_places=["a", "b", "c"], vocab_objects=["x", "y"],
    )
    post = word_posterior(model, 1)  # region 1 has zero weight, yet its own word distribution
    np.testing.assert_array_equal(post, delta(3, 2))

    post_obj = object_location_posterior(model, "y")  # object y has zero mass
    np.testing.assert_allclose(post_obj, np.full(2, 0.5), atol=1e-12)


@given(st.integers(1, 6), st.integers(0, 10_000))
@settings(max_examples=60)
def test_posteriors_are_valid_categoricals(r, seed):
    model = random_model(np.random.default_rng(seed), r)
    for region in range(r):
        probs = word_posterior(model, region)
        assert np.all(probs >= 0)
        assert abs(probs.sum() - 1.0) <= 1e-9
    for obj in model.vocab_objects:
        probs = object_location_posterior(model, obj)
        assert np.all(probs >= 0)
        assert abs(probs.sum() - 1.0) <= 1e-9


@given(st.integers(2, 6), st.integers(0, 10_000))
@settings(max_examples=40)
def test_concept_permutation_leaves_posteriors_unchanged(r, seed):
    """Relabelling the regions, every array at once, relabels their posteriors and changes
    nothing else."""
    rng = np.random.default_rng(seed)
    model = random_model(rng, r)
    perm = rng.permutation(r)
    permuted = SpatialConceptModel(
        pi=model.pi[perm],
        word_dist=model.word_dist[perm],
        object_dist=model.object_dist[perm],
        means=model.means[perm],
        covs=model.covs[perm],
        vocab_places=model.vocab_places,
        vocab_objects=model.vocab_objects,
    )
    for region in range(r):
        np.testing.assert_allclose(
            word_posterior(model, perm[region]),
            word_posterior(permuted, region), atol=1e-12)
    for obj in model.vocab_objects:
        np.testing.assert_allclose(
            object_location_posterior(model, obj)[perm],
            object_location_posterior(permuted, obj), atol=1e-12)


@given(st.lists(st.floats(1e-6, 1e3), min_size=1, max_size=8), st.integers(-30, 30))
@settings(max_examples=100)
def test_normalization_invariant_under_positive_rescaling(values, exponent):
    """A presence row is normalized where it is read, so scaling it by a power of two, which is
    exact, keeps the best room and its probability.  An arbitrary factor can round two adjacent
    top values together, so no rule could keep the room under every scale."""
    rooms = [f"room{i}" for i in range(len(values))]
    row = np.array(values)
    kb = KnowledgeBase("R", rooms, [[] for _ in rooms], {"x": row.tolist()})
    scaled = KnowledgeBase("R", rooms, [[] for _ in rooms], {"x": (row * 2.0 ** exponent).tolist()})
    assert scaled.best_room("x") == kb.best_room("x")


def _write_nan_word_row(model):
    word_dist = model.word_dist.copy()
    word_dist[0] = np.nan
    replace(model, word_dist=word_dist)


@pytest.mark.parametrize("change, error", [
    *(pytest.param(lambda m, name=name: getattr(m, name).fill(0.5), ValueError, id=f"write-{name}")
      for name in ARRAYS),
    pytest.param(lambda m: setattr(m, "seed", 1), FrozenInstanceError, id="assign-seed"),
    pytest.param(lambda m: setattr(m, "pi", np.ones(2) / 2), FrozenInstanceError, id="assign-pi"),
    pytest.param(lambda m: m.vocab_places.append("sofa"), AttributeError, id="append-word"),
    pytest.param(_write_nan_word_row, SchemaError, id="replace-nan-word-row"),
])
def test_a_built_model_cannot_change(change, error):
    model = random_model(np.random.default_rng(4), 3)
    before = model_to_dict(model)
    with pytest.raises(error):
        change(model)
    assert model_to_dict(model) == before


def test_a_model_copies_the_arrays_it_is_given():
    source = random_model(np.random.default_rng(6), 3)
    arrays = {name: getattr(source, name).copy() for name in ARRAYS}
    model = SpatialConceptModel(**arrays, vocab_places=list(source.vocab_places), vocab_objects=source.vocab_objects)
    for name, given in arrays.items():
        assert given.flags.writeable and not getattr(model, name).flags.writeable
        given.fill(0.0)
    assert model_to_dict(model) == model_to_dict(source)
    assert model.vocab_places == source.vocab_places


@pytest.mark.parametrize("field, value", [("seed", "5"), ("seed", True), ("seed", 1.5),
                                          ("hyperparameters", {"alpha": 2.0})])
def test_a_built_model_rejects_an_untyped_seed_or_hyperparameters(field, value):
    with pytest.raises(SchemaError, match=field):
        replace(random_model(np.random.default_rng(5), 2), **{field: value})


@pytest.mark.parametrize("version", [99, 1, 0, "x", "2", True, 1.0, None, "missing"])
def test_a_model_document_of_another_schema_version_is_refused(version):
    # Version 1 linked concepts to regions through a second index, which version 2 dropped.
    doc = model_to_dict(random_model(np.random.default_rng(3), 2))
    assert model_from_dict(doc).num_regions == 2
    del doc["schema_version"]
    found = None if version == "missing" else version
    with pytest.raises(SchemaError, match=re.escape(f"schema_version {found!r}, expected 2")):
        model_from_dict(doc if version == "missing" else {**doc, "schema_version": version})


def test_model_serialization_round_trip(tmp_path):
    model = replace(random_model(np.random.default_rng(8), 4), hyperparameters=Hyperparameters(), seed=99)
    path = tmp_path / "model.json"
    save_model(model, path)
    loaded = load_model(path)
    for name in ARRAYS:
        np.testing.assert_allclose(getattr(loaded, name), getattr(model, name), atol=1e-12)
    assert loaded.vocab_places == model.vocab_places
    assert loaded.vocab_objects == model.vocab_objects
    assert loaded.hyperparameters == model.hyperparameters
    assert loaded.seed == 99
    # JSON round-trip of the dict form is byte-stable
    assert json.dumps(model_to_dict(loaded)) == json.dumps(model_to_dict(model))


@pytest.mark.parametrize("floor", ["1F", "2F"])
def test_stored_model_document_dumps_back_unchanged(floor):
    """Pins the JSON layout: one entry per region, loaded into the stacked arrays and
    dumped back to exactly the stored document."""
    stored = json.loads(FIXTURE.read_text())[floor]
    model = model_from_dict(stored)
    assert model.num_regions == len(stored["regions"]) == len(stored["pi"])
    assert all(sorted(entry) == ["cov", "mean", "object_dist", "word_dist"] for entry in stored["regions"])
    dumped = model_to_dict(model)
    assert dumped["regions"] == stored["regions"]
    assert dumped == stored


def test_model_from_dict_missing_key():
    with pytest.raises(SchemaError):
        model_from_dict({"pi": [1.0]})


def test_invalid_categorical_rejected():
    with pytest.raises(ValueError):
        SpatialConceptModel(
            pi=np.array([0.5, 0.4]),  # sums to 0.9
            word_dist=[delta(1, 0)] * 2, object_dist=[delta(1, 0)] * 2,
            means=[np.zeros(2)] * 2, covs=[np.eye(2)] * 2,
            vocab_places=["w"], vocab_objects=["o"],
        )


@pytest.mark.parametrize("name", ["word_dist", "object_dist"])
def test_every_concept_row_must_be_a_categorical(name):
    doc = model_to_dict(random_model(np.random.default_rng(9), 4))
    row = doc["regions"][-1][name]
    for bad in ([v / 2 for v in row], [1e308, 1e308] + row[2:]):
        doc["regions"][-1][name] = bad
        with pytest.raises(SchemaError, match="does not sum to 1"):
            model_from_dict(doc)
    doc["regions"][-1][name] = [row[0] + 1.0, -1.0] + row[2:]  # sums to 1, one entry negative
    with pytest.raises(SchemaError, match="negative"):
        model_from_dict(doc)


def test_hyperparameter_validation():
    with pytest.raises(ValueError):
        Hyperparameters(alpha=0.0)
    with pytest.raises(ValueError):
        Hyperparameters(nu0=1.0)
    with pytest.raises(ValueError):
        Hyperparameters(kappa=0.0)
    with pytest.raises(TypeError):  # the prior scale comes from the data, not a field
        Hyperparameters(V0=((2.0, 0.0), (0.0, 2.0)))
    with pytest.raises(TypeError):  # every learn runs 30 particles: a constant, not a field
        Hyperparameters(num_particles=30)


@pytest.mark.parametrize("key, value", [
    ("alpha", 0), ("alpha", float("nan")), ("kappa", float("inf")), ("beta", "x"), ("beta", None),
    ("chi", True), ("nu0", 1.0), ("kappa", -2.5), ("kappa", 0),
    ("chi", -0.5), ("nu0", 0.5), ("nu0", True), ("nu0", "2.0"),
])
def test_bad_hyperparameters_are_schema_errors(key, value):
    data = Hyperparameters().to_dict()
    data[key] = value
    with pytest.raises(SchemaError):
        Hyperparameters.from_dict(data)


@pytest.mark.parametrize("v0", [
    [[2.0, 0.0], [0.0, 2.0]], "x", 2.0, [[1.0, 0.0]], [[1.0, 0.0], [0.0, None]], [[1.0, 2.0], [0.0, 1.0]],
    [[1.0, 0.0], [0.0, -1.0]], [["2", "0"], ["0", "2"]], [[True, False], [False, True]],
], ids=["default", "str", "number", "one-row", "null-entry", "asymmetric", "negative-definite", "numeric-strings",
        "bools"])
def test_a_hyperparameters_document_with_any_V0_loads_and_ignores_it(v0):
    # Documents written with a V0 hyperparameter load: the learner takes its prior scale from the data.
    data = Hyperparameters().to_dict()
    assert "V0" not in data
    data["V0"] = v0
    assert Hyperparameters.from_dict(data) == Hyperparameters()


@pytest.mark.parametrize("data", [{}, [], "x", {"alpha": 1.0}])
def test_hyperparameter_documents_without_fields_are_schema_errors(data):
    with pytest.raises(SchemaError):
        Hyperparameters.from_dict(data)


def test_hyperparameters_load_from_documents_with_lambda_aux():
    data = Hyperparameters().to_dict()
    assert "lambda_aux" not in data and "m0" not in data and "gamma" not in data and "lag_window" not in data
    data["lambda_aux"] = 0.1  # written by older versions
    data["m0"] = [0.0, 0.0]  # the prior mean older versions took as a field
    data["gamma"] = 0.5  # the concept-to-region link concentration of schema_version 1 models
    data["lag_window"] = 10  # the Gibbs sweep's window, a field of models learned before the lag was fixed at zero
    assert Hyperparameters.from_dict(data) == Hyperparameters()
    # The particle count, a field of models learned before it was fixed at 30: read as nothing, whatever it holds.
    for particles in (30, 0, True, "x"):
        data["num_particles"] = particles
        assert Hyperparameters.from_dict(data) == Hyperparameters()
