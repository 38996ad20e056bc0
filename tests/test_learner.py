import json

import numpy as np
import pytest

from homeplan.errors import UnknownLabelError
from homeplan.learner import _systematic_resample, derive_vocabularies, learn_fixed_lag
from homeplan.spatial import (
    Hyperparameters,
    Session,
    model_to_dict,
    object_location_posterior,
)

FAST_HP = Hyperparameters(num_particles=8, lag_window=5)


def synthetic_rooms(rng, n_rooms=5, sessions_per_room=30, p_detect=1.0):
    """Generate-then-recover fixture: each room emits its own objects and words.

    Returns (sessions, room_names, objects_of_room).
    """
    centers = [np.array([6.0 * (i % 3), 6.0 * (i // 3)]) for i in range(n_rooms)]
    room_names = [f"room{i}" for i in range(n_rooms)]
    objects_of_room = {}
    words_of_room = {}
    next_obj = 0
    for i, name in enumerate(room_names):
        count = 2 + (i % 2)  # 2-3 objects per room
        objects_of_room[name] = [f"obj{next_obj + j}" for j in range(count)]
        next_obj += count
        words_of_room[name] = [f"{name}_word{j}" for j in range(3)]
    sessions = []
    for i, name in enumerate(room_names):
        for _ in range(sessions_per_room):
            position = rng.multivariate_normal(centers[i], 0.25 * np.eye(2))
            labels = [o for o in objects_of_room[name] if rng.random() < p_detect]
            words = [str(w) for w in rng.choice(words_of_room[name], size=int(rng.integers(1, 4)))]
            sessions.append(Session(position, labels, words, room_hint=name))
    return sessions, room_names, objects_of_room, centers


def test_empty_sessions_is_an_error():
    with pytest.raises(ValueError):
        learn_fixed_lag([], FAST_HP, seed=0)


def test_single_session_populates_one_region():
    session = Session(np.array([3.0, 4.0]), ["cup"], ["kitchen"], room_hint=None)
    model = learn_fixed_lag([session], FAST_HP, seed=0, num_concepts=2, num_regions=3)
    hp = FAST_HP
    # Exactly one region absorbed the observation; its mean is the NIW
    # posterior mean blending the prior anchor with the measurement.
    expected_mean = (hp.kappa * hp.m0_array + session.position) / (hp.kappa + 1.0)
    hits = [r for r in model.regions if np.allclose(r.mean, expected_mean)]
    assert len(hits) == 1
    untouched = [r for r in model.regions if np.allclose(r.mean, hp.m0_array)]
    assert len(untouched) == 2
    assert model.vocab_places == ["kitchen"]
    assert model.vocab_objects == ["cup"]


def test_lag_longer_than_stream_is_clamped():
    rng = np.random.default_rng(0)
    sessions = [Session(rng.normal(size=2), ["o"], ["w"]) for _ in range(3)]
    hp = Hyperparameters(num_particles=4, lag_window=50)
    model = learn_fixed_lag(sessions, hp, seed=1, num_concepts=2, num_regions=2)
    assert model.num_regions == 2


def test_unknown_label_with_supplied_vocab():
    sessions = [Session(np.zeros(2), ["mystery"], ["w"])]
    with pytest.raises(UnknownLabelError):
        learn_fixed_lag(sessions, FAST_HP, seed=0, vocab_places=["w"], vocab_objects=["known"])


def test_derive_vocabularies_sorted_union():
    sessions = [
        Session(np.zeros(2), ["b", "a"], ["z"]),
        Session(np.zeros(2), ["a"], ["y", "z"]),
    ]
    places, objects = derive_vocabularies(sessions)
    assert places == ["y", "z"]
    assert objects == ["a", "b"]


def test_learning_is_bit_reproducible():
    rng = np.random.default_rng(5)
    sessions, _, _, _ = synthetic_rooms(rng, n_rooms=3, sessions_per_room=8)
    hp = Hyperparameters(num_particles=6, lag_window=4)
    m1 = learn_fixed_lag(sessions, hp, seed=11, num_concepts=3, num_regions=3)
    m2 = learn_fixed_lag(sessions, hp, seed=11, num_concepts=3, num_regions=3)
    assert json.dumps(model_to_dict(m1)) == json.dumps(model_to_dict(m2))


def test_different_seeds_may_differ_but_stay_valid():
    rng = np.random.default_rng(6)
    sessions, _, _, _ = synthetic_rooms(rng, n_rooms=2, sessions_per_room=6)
    hp = Hyperparameters(num_particles=4, lag_window=3)
    for seed in (0, 1):
        model = learn_fixed_lag(sessions, hp, seed=seed, num_concepts=2, num_regions=2)
        model.validate()


def test_generate_then_recover_synthetic_five_rooms():
    """Independent recovery oracle: argmax region must match the generating room."""
    rng = np.random.default_rng(123)
    sessions, room_names, objects_of_room, centers = synthetic_rooms(
        rng, n_rooms=5, sessions_per_room=30, p_detect=0.9)
    model = learn_fixed_lag(sessions, Hyperparameters(num_particles=12, lag_window=10),
                            seed=123, num_concepts=5, num_regions=5)

    # Map each region to the closest generating center (greedy is fine here:
    # recovered means sit essentially on the centers).
    region_room = []
    for region in model.regions:
        dists = [np.linalg.norm(region.mean - c) for c in centers]
        region_room.append(room_names[int(np.argmin(dists))])

    total = correct = 0
    for room, objs in objects_of_room.items():
        for obj in objs:
            post = object_location_posterior(model, obj)
            total += 1
            correct += region_room[int(np.argmax(post.probs))] == room
    assert correct / total >= 0.8


from hypothesis import given, settings
from hypothesis import strategies as st


@st.composite
def session_batches(draw):
    n = draw(st.integers(1, 12))
    sessions = []
    for _ in range(n):
        x = draw(st.floats(-20.0, 20.0))
        y = draw(st.floats(-20.0, 20.0))
        labels = draw(st.lists(st.sampled_from(["a", "b", "c"]), max_size=4))
        words = draw(st.lists(st.sampled_from(["u", "v", "w"]), min_size=1, max_size=3))
        sessions.append(Session(np.array([x, y]), labels, words))
    return sessions


@given(session_batches(), st.integers(0, 999), st.integers(1, 3), st.integers(1, 3))
@settings(max_examples=40, deadline=None)
def test_learner_always_yields_a_valid_model(sessions, seed, k, r):
    """Robustness oracle: any session batch (duplicate positions included)
    must produce a model that passes full validation."""
    hp = Hyperparameters(num_particles=3, lag_window=2)
    model = learn_fixed_lag(sessions, hp, seed=seed, num_concepts=k, num_regions=r)
    model.validate()
    for region in range(model.num_regions):
        probs = object_location_posterior(model, model.vocab_objects[0]).probs \
            if model.vocab_objects else None
        if probs is not None:
            assert abs(probs.sum() - 1.0) <= 1e-9


def test_model_carries_hyperparameters_and_seed():
    sessions = [Session(np.zeros(2), ["o"], ["w"])]
    model = learn_fixed_lag(sessions, FAST_HP, seed=77, num_concepts=1, num_regions=1)
    assert model.seed == 77
    assert model.hyperparameters == FAST_HP


def test_systematic_resample_stays_in_range_at_the_top_draw():
    # For 30 uniform weights the cumulative sum ends just below 1, so the
    # largest uniform draw once indexed one past the last particle.
    class TopDraw:
        def random(self):
            return np.nextafter(1.0, 0.0)

    n = 30
    chosen = _systematic_resample(np.full(n, -np.log(n)), TopDraw())
    assert chosen.shape == (n,)
    assert np.all(chosen < n)
