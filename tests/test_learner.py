import copy
import json
import math
import warnings
from dataclasses import FrozenInstanceError
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from scipy.special import gammaln

from homeplan.errors import ConfigurationError, SchemaError
from homeplan.experiment import (
    _suite_seeds,
    best_room_recovery,
    default_robots,
    learn_floor_knowledge,
    learn_floor_model,
)
from homeplan.learner import (
    _CONCEPT,
    _OBJ_TOTAL,
    _WORDS,
    _Batch,
    _filter,
    _grid,
    _sample_grid,
    _systematic_resample,
    _Tables,
    learn_fixed_lag,
)
from homeplan.spatial import (
    Hyperparameters,
    Session,
    model_to_dict,
    object_location_posterior,
)
from homeplan.world import environment_from_dict, generate_floor_sessions, load_environment

from conftest import environment_to_dict
from test_acceptance import ACCEPTANCE_SEED

FIXTURES = Path(__file__).parent / "fixtures"


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
        learn_fixed_lag([], seed=0, num_regions=5)


def test_single_session_populates_one_region():
    session = Session(np.array([3.0, 4.0]), ["cup"], ["kitchen"], room_hint=None)
    model = learn_fixed_lag([session], seed=0, num_regions=3)
    hp = Hyperparameters()
    # The prior is centred on the one position, so every region's posterior mean,
    # the occupied one's and the empty ones', is that position.
    np.testing.assert_array_equal(model.means, np.tile(session.position, (3, 1)))
    # One position has no spread, so the scale is 1 and the prior scale I / R.  Exactly one
    # region absorbed the observation, which sits on the prior mean: it takes the
    # posterior-mean covariance (I / R) / (nu0 + 1 - 3).  The empty ones, whose nu_n = nu0
    # leaves that undefined, take the inverse-Wishart mode.
    v0 = np.eye(2) / 3
    occupied = v0 / (hp.nu0 + 1.0 - 3.0)
    empty = v0 / (hp.nu0 + 3.0)
    assert sum(np.allclose(cov, occupied, rtol=1e-12) for cov in model.covs) == 1
    assert sum(np.allclose(cov, empty, rtol=1e-12) for cov in model.covs) == 2
    assert model.vocab_places == ("kitchen",)
    assert model.vocab_objects == ("cup",)


@pytest.mark.parametrize("position, line", [
    (lambda i: (2.0, -1.0), None),
    (lambda i: (0.7 * i, 0.0), (0.0, 1.0, 0.0)),
    (lambda i: (0.7 * i, 0.7 * i), (1.0, -1.0, 0.0)),
    (lambda i: (0.1 * i, 3.0 * (0.1 * i) + 1.0), (3.0, -1.0, 1.0)),
    (lambda i: (1e-308 if i == 0 else 0.0, float(i > 0)), (1.0, 0.0, 0.0)),
], ids=["all-equal", "axis-aligned-line", "diagonal-line", "y=3x+1", "subnormal"])
def test_degenerate_positions_learn_without_warnings(position, line):
    # Positions on a point or a line have a (nearly) singular covariance, so the prior scale
    # falls back to I / R: every grid stays finite and every region covariance positive-definite.
    # A subnormal coordinate leaves a subnormal entry in the covariance, which must not warn either.
    sessions = [Session(position(i), ["cup"] if i % 2 else [], ["kitchen", "sink", "stove"][i % 3:][:2])
                for i in range(24)]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        model = learn_fixed_lag(sessions, seed=0, num_regions=3)
    assert np.all(np.linalg.eigvalsh(model.covs) > 0)
    if line is None:
        np.testing.assert_array_equal(model.means, np.tile(sessions[0].position, (3, 1)))
    else:
        # A posterior mean averages the mean position and some positions, so it lies on their line.
        a, b, c = line
        np.testing.assert_allclose(model.means @ [a, b] + c, 0.0, atol=1e-12)


def test_a_stream_shorter_than_the_region_count_learns():
    # Three sessions leave at least two of five regions empty, each at its prior weight.
    rng = np.random.default_rng(0)
    sessions = [Session(rng.normal(size=2), ["o"], ["w"]) for _ in range(3)]
    model = learn_fixed_lag(sessions, seed=1, num_regions=5)
    assert model.num_regions == 5
    alpha = Hyperparameters().alpha
    assert np.isclose(model.pi, alpha / (len(sessions) + 5 * alpha), rtol=1e-12).sum() >= 2


def test_a_learn_scores_each_session_once(monkeypatch):
    # The filter re-draws no past session: a learn of T sessions calls the grid kernel T times.
    import homeplan.learner as learner

    calls = []

    def spy(batch, s, tables):
        calls.append(s)
        return _grid(batch, s, tables)

    monkeypatch.setattr(learner, "_grid", spy)
    rng = np.random.default_rng(5)
    sessions = [Session(rng.normal(size=2), ["cup"] * (t % 2), ["kitchen", "sink"][t % 2:]) for t in range(25)]
    learn_fixed_lag(sessions, seed=0, num_regions=3)
    assert len(calls) == len(sessions)


def test_vocabularies_are_derived_from_the_sessions():
    sessions = [Session(np.zeros(2), ["mystery", "known"], ["w"]), Session(np.ones(2), ["known"], ["v", "w"])]
    model = learn_fixed_lag(sessions, seed=0, num_regions=2)
    assert (model.vocab_places, model.vocab_objects) == (("v", "w"), ("known", "mystery"))
    assert model.word_dist.shape == model.object_dist.shape == (2, 2)


def test_learned_vocabularies_are_the_sorted_union():
    sessions = [
        Session(np.zeros(2), ["b", "a"], ["z"]),
        Session(np.zeros(2), ["a"], ["y", "z"]),
    ]
    model = learn_fixed_lag(sessions, seed=0, num_regions=1)
    assert model.vocab_places == ("y", "z")
    assert model.vocab_objects == ("a", "b")


def test_learning_is_bit_reproducible():
    rng = np.random.default_rng(5)
    sessions, _, _, _ = synthetic_rooms(rng, n_rooms=3, sessions_per_room=8)
    m1 = learn_fixed_lag(sessions, seed=11, num_regions=3)
    m2 = learn_fixed_lag(sessions, seed=11, num_regions=3)
    assert json.dumps(model_to_dict(m1)) == json.dumps(model_to_dict(m2))


def test_different_seeds_may_differ_but_stay_valid():
    rng = np.random.default_rng(6)
    sessions, _, _, _ = synthetic_rooms(rng, n_rooms=2, sessions_per_room=6)
    for seed in (0, 1):
        learn_fixed_lag(sessions, seed=seed, num_regions=2)  # a model is checked when built


def test_generate_then_recover_synthetic_five_rooms():
    """Independent recovery oracle: argmax region must match the generating room."""
    rng = np.random.default_rng(123)
    sessions, room_names, objects_of_room, centers = synthetic_rooms(
        rng, n_rooms=5, sessions_per_room=30, p_detect=0.9)
    model = learn_fixed_lag(sessions, seed=123, num_regions=5)

    # Map each region to the closest generating center (greedy is fine here:
    # recovered means sit essentially on the centers).
    region_room = []
    for mean in model.means:
        dists = [np.linalg.norm(mean - c) for c in centers]
        region_room.append(room_names[int(np.argmin(dists))])

    total = correct = 0
    for room, objs in objects_of_room.items():
        for obj in objs:
            post = object_location_posterior(model, obj)
            total += 1
            correct += region_room[int(np.argmax(post))] == room
    assert correct / total >= 0.8


from hypothesis import assume, example, given, settings
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


@given(session_batches(), st.integers(0, 999), st.integers(1, 3))
@settings(max_examples=40)
def test_learner_always_yields_a_valid_model(sessions, seed, r):
    """Robustness oracle: any session batch (duplicate positions included)
    must produce a model that passes full validation, unless its positions
    spread so little that their squared deviations underflow: that is refused."""
    positions = np.array([s.position for s in sessions])
    if not np.square(positions - positions.mean(axis=0)).sum() and (positions != positions[0]).any():
        with pytest.raises(SchemaError, match="squared deviations do not underflow"):
            learn_fixed_lag(sessions, seed=seed, num_regions=r)
        return
    model = learn_fixed_lag(sessions, seed=seed, num_regions=r)  # checked when built
    for region in range(model.num_regions):
        probs = object_location_posterior(model, model.vocab_objects[0]) \
            if model.vocab_objects else None
        if probs is not None:
            assert abs(probs.sum() - 1.0) <= 1e-9


def test_model_carries_hyperparameters_and_seed():
    sessions = [Session(np.zeros(2), ["o"], ["w"])]
    model = learn_fixed_lag(sessions, seed=77, num_regions=1)
    assert model.seed == 77
    assert model.hyperparameters == Hyperparameters()


def test_a_learned_model_answers_the_fixed_settings_the_benchmark_reads():
    # ``benchmark/tracing.py`` counts a learn's grid evaluations from these two constants.
    model = learn_fixed_lag([Session(np.zeros(2), ["o"], ["w"])], seed=0, num_regions=1)
    assert (model.hyperparameters.num_particles, model.hyperparameters.lag_window) == (30, 0)
    # Neither is a field, so a model document records the five priors alone.
    assert list(Hyperparameters().to_dict()) == ["alpha", "beta", "chi", "kappa", "nu0"]


def test_systematic_resample_stays_in_range_at_the_top_draw():
    # For 30 uniform weights the cumulative sum ends just below 1, so the
    # largest uniform draw once indexed one past the last particle.
    class TopDraw:
        def random(self):
            return np.nextafter(1.0, 0.0)

    n = 30
    chosen = _systematic_resample(np.full(n, 1.0 / n), TopDraw())
    assert chosen.shape == (n,)
    assert np.all(chosen < n)


@given(st.lists(st.one_of(st.just(0.0), st.floats(1e-3, 1e3)), min_size=1, max_size=40),
       st.integers(0, 2 ** 32 - 1))
@example([1.0, 0.0, 3.0, 0.5], 0)
@settings(max_examples=200)
def test_systematic_resample_draws_each_particle_its_share(weights, seed):
    """One uniform offset places P evenly spaced positions on the cumulative weights, so
    particle i, an interval of length w_i, is drawn floor(P w_i) or ceil(P w_i) times, in
    particle order; a weight that underflowed to zero is never drawn."""
    w = np.array(weights)
    assume(w.sum() > 0)
    w /= w.sum()
    P = len(w)
    chosen = _systematic_resample(w, np.random.default_rng(seed))
    assert chosen.shape == (P,) and np.all(np.diff(chosen) >= 0)
    copies = np.bincount(chosen, minlength=P)
    assert np.all(np.floor(P * w) <= copies) and np.all(copies <= np.ceil(P * w))


def _first_floor_sessions(factor):
    env = load_environment("paper_home")
    sessions = generate_floor_sessions(env, default_robots(env)[0], np.random.default_rng(ACCEPTANCE_SEED))
    return [Session(s.position * factor, s.object_labels, s.place_words) for s in sessions]


@pytest.mark.parametrize("factor", [1e-170, 1e-300])
def test_positions_whose_squared_deviations_underflow_are_an_error(factor):
    # Every squared deviation underflows to 0, so the scale would fall back to 1 and the
    # regions collapse onto the floor's centre (2 of 13 best rooms right at 1e-170).
    with pytest.raises(SchemaError, match="squared deviations do not underflow"):
        learn_fixed_lag(_first_floor_sessions(factor), seed=ACCEPTANCE_SEED, num_regions=5)


def test_positions_just_above_the_underflow_learn_as_at_unit_scale():
    unit = learn_fixed_lag(_first_floor_sessions(1.0), seed=ACCEPTANCE_SEED, num_regions=5)
    tiny = learn_fixed_lag(_first_floor_sessions(1e-160), seed=ACCEPTANCE_SEED, num_regions=5)
    np.testing.assert_array_equal(tiny.pi, unit.pi)
    np.testing.assert_allclose(tiny.object_dist, unit.object_dist, rtol=1e-12)
    np.testing.assert_allclose(tiny.means, unit.means * 1e-160, rtol=1e-9, atol=0)


class _BadPosition(list):
    """A session position that ``Session`` itself rejects, before the learner sees it."""


@pytest.mark.parametrize("sessions, kwargs, error", [
    ([([0.0, 0.0], ["w"])], {"num_regions": True}, ConfigurationError),
    ([([0.0, 0.0], ["w"])], {"num_regions": 2.0}, ConfigurationError),
    ([([0.0, 0.0], ["w"])], {"num_regions": 0}, ConfigurationError),
    ([], {}, SchemaError),
    ([([0.0, 0.0], [])], {}, SchemaError),
    ([(_BadPosition([np.nan, 0.0]), ["w"])], {}, SchemaError),
    ([(_BadPosition([0.0, np.inf]), ["w"])], {}, SchemaError),
    ([([1e200, 0.0], ["w"]), ([0.0, 0.0], ["w"])], {}, SchemaError),
    ([(_BadPosition([0.0, 0.0, 0.0]), ["w"])], {}, SchemaError),
    ([([0.0, 0.0], ["w"]), (_BadPosition([0.0, 0.0, 0.0]), ["w"])], {}, SchemaError),
    ([(_BadPosition([True, 1]), ["w"])], {}, SchemaError),
])
def test_bad_learner_input_is_a_typed_error(sessions, kwargs, error):
    """Each session is given as (position, place words)."""
    built = []
    for position, words in sessions:
        if isinstance(position, _BadPosition):
            with pytest.raises(error, match="position"):
                Session(position, ["o"], words)
            return
        built.append(Session(position, ["o"], words))
    with pytest.raises(error):
        learn_fixed_lag(built, seed=0, **{"num_regions": 5, **kwargs})


def test_a_session_is_checked_and_frozen_when_built():
    session = Session([1, 2.5], ["o"], ["w"], room_hint="kitchen")
    assert session.position.tolist() == [1.0, 2.5] and session.position.dtype == float
    assert session.object_labels == ("o",) and session.place_words == ("w",)
    with pytest.raises(ValueError):
        session.position[0] = 3.0
    with pytest.raises(FrozenInstanceError):
        session.room_hint = None
    for position in (None, np.zeros((2, 2)), [0.0, "1"]):
        with pytest.raises(SchemaError, match="position"):
            Session(position, ["o"], ["w"])
    for labels, words, hint, where in ((["o", 1], ["w"], None, "object_labels"), (["o"], "w", None, "place_words"),
                                       (["o"], ["w"], 3, "room_hint")):
        with pytest.raises(SchemaError, match=where):
            Session([0.0, 0.0], labels, words, hint)


# Per-particle reference: the single-particle collapsed conditional, written
# out term by term as the learner computed it before particles were batched.

def _ref_tokens_log(counts, totals, conc, idx, cnt, m):
    if m == 0:
        return np.zeros(len(totals))
    vocab_mass = counts.shape[1] * conc
    sel = counts[:, idx]
    per_word = gammaln(sel + cnt + conc).sum(axis=1) - gammaln(sel + conc).sum(axis=1)
    return per_word + gammaln(totals + vocab_mass) - gammaln(totals + m + vocab_mass)


def _ref_position_log(p, x, hp, v0):
    n = p.pos_n
    kappa_n = hp.kappa + n
    nu_n = hp.nu0 + n
    xbar = p.pos_sum / np.maximum(n, 1.0)[:, None]
    scatter = p.pos_outer - n[:, None, None] * (xbar[:, :, None] * xbar[:, None, :])
    # The learner holds standardized positions, where the prior mean is zero.
    m_n = p.pos_sum / kappa_n[:, None]
    shrink = (hp.kappa * n / kappa_n)[:, None, None]
    V_n = v0 + scatter + shrink * (xbar[:, :, None] * xbar[:, None, :])
    df = nu_n - 1.0
    scale = V_n * ((kappa_n + 1.0) / (kappa_n * df))[:, None, None]
    det = scale[:, 0, 0] * scale[:, 1, 1] - scale[:, 0, 1] * scale[:, 1, 0]
    dev = x[None, :] - m_n
    quad = (scale[:, 1, 1] * dev[:, 0] ** 2
            - 2.0 * scale[:, 0, 1] * dev[:, 0] * dev[:, 1]
            + scale[:, 0, 0] * dev[:, 1] ** 2) / det
    return (gammaln((df + 2) / 2.0) - gammaln(df / 2.0) - np.log(df) - math.log(math.pi)
            - 0.5 * np.log(det) - ((df + 2) / 2.0) * np.log1p(quad / df))


def _ref_conditional(p, s, hp, v0):
    R = len(p.concept_counts)
    log_pc = np.log(p.concept_counts + hp.alpha) - math.log(p.concept_counts.sum() + R * hp.alpha)
    log_words = _ref_tokens_log(p.word_counts, p.word_totals, hp.beta,
                                s.word_idx, s.word_cnt, s.word_total)
    log_objects = _ref_tokens_log(p.object_counts, p.object_totals, hp.chi,
                                  s.obj_idx, s.obj_cnt, s.obj_total)
    log_pos = _ref_position_log(p, s.x, hp, v0)
    return log_pc + log_words + log_objects + log_pos


def _vocabulary_indexed(session, x, place_index, object_index):
    """A session's words and objects as vocabulary indices and counts, read from the session itself,
    and its standardized position ``x``."""
    word_idx, word_cnt = np.unique(np.array([place_index[w] for w in session.place_words], dtype=int),
                                   return_counts=True)
    obj_idx, obj_cnt = np.unique(np.array([object_index[o] for o in session.object_labels], dtype=int),
                                 return_counts=True)
    return SimpleNamespace(word_idx=word_idx, word_cnt=word_cnt, word_total=len(session.place_words),
                           obj_idx=obj_idx, obj_cnt=obj_cnt, obj_total=len(session.object_labels), x=x)


def _standardized(sessions, R):
    """The sessions' positions standardized and the prior scale for R regions, by their
    definitions: z = (x - c) / s with c the mean and s = sqrt(mean((x - c)^2)), 1 if that
    is 0, and Cov(z) / R, or I / R when det Cov(z) <= 1e-6."""
    z = np.array([s.position for s in sessions])
    z = z - z.mean(axis=0)
    z /= np.sqrt(np.mean(z ** 2)) or 1.0
    cov = np.cov(z.T, bias=True)
    return z, (cov if np.linalg.det(cov) > 1e-6 else np.eye(2)) / R


def _stream_and_views(sessions, place_index, object_index, R=1):
    """The stream as ``_Tables`` takes it (the sessions, their standardized positions and the
    vocabulary indices), each session's vocabulary-indexed view at its standardized position,
    and the prior scale for R regions."""
    z, v0 = _standardized(sessions, R)
    return ((sessions, z, place_index, object_index),
            [_vocabulary_indexed(s, x, place_index, object_index) for s, x in zip(sessions, z)], v0)


def _twice(stream):
    """The stream run twice over: tables sized for it reach twice a learn's counts."""
    sessions, z, place_index, object_index = stream
    return sessions * 2, np.concatenate((z, z)), place_index, object_index


def _random_stream(rng, n, places, objects, R=1):
    place_index = {w: i for i, w in enumerate(places)}
    object_index = {o: i for i, o in enumerate(objects)}
    sessions = [Session(rng.normal(scale=4.0, size=2),
                        [str(o) for o in rng.choice(objects, size=int(rng.integers(0, 5)))] if objects else [],
                        [str(w) for w in rng.choice(places, size=int(rng.integers(1, 4)))])
                for _ in range(n)]
    return _stream_and_views(sessions, place_index, object_index, R)


def _per_particle(batch, i, n_words, n_objects):
    """Particle ``i`` of a stacked batch in the per-particle layout the reference reads."""
    counts, moments = batch.counts[:, :, i].T.astype(float), batch.moments[:, :, i]
    R, objects = moments.shape[1], _WORDS + n_words
    return SimpleNamespace(
        concept_counts=counts[:, 0], word_totals=counts[:, 1], object_totals=counts[:, 2],
        word_counts=counts[:, _WORDS:objects], object_counts=counts[:, objects:objects + n_objects],
        pos_n=counts[:, 0], pos_sum=moments[:2].T,
        pos_outer=moments[2:].T.reshape(R, 2, 2))


def _ref_grids(batch, view, hp, v0, n_words, n_objects):
    """The reference grid of every particle of a batch, stacked to shape (R, P), under
    the prior scale ``v0``."""
    return np.stack([_ref_conditional(_per_particle(batch, i, n_words, n_objects), view, hp, v0)
                     for i in range(batch.counts.shape[2])], axis=1)


def _assert_grids_match_reference(batch, tables, indexed_views, hp, n_words, n_objects):
    """The kernel against the reference once the constant it leaves out, the region
    prior's normaliser log(N + R alpha), is subtracted: the grid that scores an arrival,
    for each (session index, view) pair.  Both read the prior scale the tables were built with."""
    R, P = batch.counts.shape[1:]
    normaliser = math.log(batch.counts[_CONCEPT, :, 0].sum() + R * hp.alpha)
    for t, view in indexed_views:
        grid = _grid(batch, tables, t) - normaliser
        reference = _ref_grids(batch, view, hp, tables.v0.reshape(2, 2), n_words, n_objects)
        assert grid.shape == reference.shape == (R, P)
        np.testing.assert_allclose(grid, reference, rtol=1e-12, atol=1e-12)


def _random_batch(case):
    """A random learner state holding every session but session 0, which arrives next."""
    rng = np.random.default_rng(case)
    P, R = int(rng.integers(1, 8)), int(rng.integers(1, 6))
    places = [f"w{i}" for i in range(int(rng.integers(1, 6)))]
    objects = [f"o{i}" for i in range(int(rng.integers(0, 6)))]
    hp = Hyperparameters(alpha=float(rng.uniform(0.2, 3.0)), beta=float(rng.uniform(0.05, 1.0)),
                         chi=float(rng.uniform(0.05, 1.0)))
    stream, views, v0 = _random_stream(rng, int(rng.integers(1, 25)), places, objects, R)
    # Sessions already in the batch are scored too, which can reach twice a learn's counts.
    tables = _Tables(hp, v0, R, P, *_twice(stream))
    batch = _Batch(tables, len(views))
    for t in range(len(views)):
        batch.assignments[t] = rng.integers(0, R, P)
        if t:
            batch.add(batch.assignments[t], tables, t)
    return batch, tables, views, hp, len(places), len(objects)


@pytest.mark.parametrize("case", range(12))
def test_batched_grid_matches_per_particle_reference(case):
    batch, tables, views, hp, n_words, n_objects = _random_batch(case)
    _assert_grids_match_reference(batch, tables, enumerate(views), hp, n_words, n_objects)


def _draw(grid, u, cells):
    """Sample an (R, P) log grid as the learner does."""
    _sample_grid(np.exp(grid - grid.max(axis=0)), u, cells)


@pytest.mark.parametrize("case", range(12))
def test_both_kernels_sample_the_same_cells(case):
    # The kernel and the per-particle reference draw the same cells from the same uniforms.
    batch, tables, views, hp, n_words, n_objects = _random_batch(case)
    P = batch.counts.shape[2]
    u = np.random.default_rng(100 + case).random((len(views), P))
    exact, batched = np.empty(P, dtype=int), np.empty(P, dtype=int)
    for t, (view, u_t) in enumerate(zip(views, u)):
        _draw(_ref_grids(batch, view, hp, tables.v0.reshape(2, 2), n_words, n_objects), u_t, exact)
        _draw(_grid(batch, tables, t), u_t, batched)
        np.testing.assert_array_equal(batched, exact)


def test_saturated_grid_reads_the_largest_table_index():
    # One region holds every session, each with the most tokens _random_stream draws
    # (3 words, 4 objects) of a one-word, one-object vocabulary, so scoring the last
    # session reads each table at the largest count a learn reaches.
    sessions = [Session(np.array([0.5 * i, -0.25 * i]), ["cup"] * 4, ["kitchen"] * 3) for i in range(20)]
    stream, views, v0 = _stream_and_views(sessions, {"kitchen": 0}, {"cup": 0})
    hp = Hyperparameters()
    tables = _Tables(hp, v0, 1, 3, *stream)
    T = len(views)
    batch = _Batch(tables, T)
    for t in range(T - 1):
        batch.add(np.zeros(3, dtype=int), tables, t)
    largest_count = tables.region_rows.shape[1] - 1
    assert batch.counts[_OBJ_TOTAL, 0, 0] + views[-1].obj_total == largest_count == 4 * T
    _assert_grids_match_reference(batch, tables, [(T - 1, views[-1])], hp, 1, 1)
    learn_fixed_lag(sessions, seed=0, num_regions=1)  # a model is checked when built


@pytest.mark.parametrize("objects", [[], ["cup"]], ids=["empty-object-vocabulary", "sessions-without-objects"])
def test_sweep_tables_stay_finite_without_objects(objects):
    # gammaln(0) is inf: with no objects, a fused mass row must never difference two of them.
    sessions = [Session(np.array([0.3 * i, 1.0 - 0.2 * i]), objects * (i % 2), ["kitchen", "sink"][:1 + i % 2])
                for i in range(8)]
    stream, views, v0 = _stream_and_views(sessions, {"kitchen": 0, "sink": 1},
                                          {o: i for i, o in enumerate(objects)}, R=3)
    hp = Hyperparameters()
    tables = _Tables(hp, v0, 3, 4, *_twice(stream))
    assert np.isfinite(tables.rows).all()
    batch = _Batch(tables, len(views))
    for t in range(1, len(views)):
        batch.assignments[t] = t % 3
        batch.add(batch.assignments[t], tables, t)
    _assert_grids_match_reference(batch, tables, enumerate(views), hp, 2, len(objects))
    learn_fixed_lag(sessions, seed=0, num_regions=3)  # a model is checked when built


def test_sweep_table_rows_are_the_log_gamma_differences():
    """Every row of every fused-table block, a running sum of logs, against the gammaln
    difference it stands for, at counts up to about 3,000, and the closed-form Student-t
    constant against its gammaln form, to 1e-10 absolute: at these counts the two forms
    differ by up to about 1e-11, the rounding of gammaln's differences."""
    rng = np.random.default_rng(20)
    places, objects = ["kitchen", "sink", "stove"], ["cup", "plate"]
    R = 3
    stream, views, v0 = _random_stream(rng, 1500, places, objects, R)
    hp = Hyperparameters(alpha=0.7, beta=0.3, chi=0.45)
    tables = _Tables(hp, v0, R, 30, *stream)
    n = np.arange(tables.region_rows.shape[1], dtype=float)
    assert len(n) > 2500

    def rows(term, values):
        return [term(c) for c in range(max(values) + 1)]

    word_mass, obj_mass = len(places) * hp.beta, len(objects) * hp.chi
    blocks = [
        [np.log(n + hp.alpha)],
        rows(lambda m: gammaln(n + word_mass) - gammaln(n + m + word_mass), [v.word_total for v in views]),
        rows(lambda m: gammaln(n + obj_mass) - gammaln(n + m + obj_mass), [v.obj_total for v in views]),
        rows(lambda c: gammaln(n + c + hp.beta) - gammaln(n + hp.beta), [c for v in views for c in v.word_cnt]),
        rows(lambda c: gammaln(n + c + hp.chi) - gammaln(n + hp.chi), [c for v in views for c in v.obj_cnt]),
    ]
    assert all(len(b) >= 4 for b in blocks[1:])  # every block reaches a count of 3
    expected = np.stack([row for b in blocks for row in b])
    np.testing.assert_allclose(tables.rows.reshape(-1, len(n)), expected, rtol=0, atol=1e-10)

    kappa_n = hp.kappa + n
    df = hp.nu0 + n - 1.0
    factor = (kappa_n + 1.0) / (kappa_n * df)
    const = gammaln((df + 2.0) / 2.0) - gammaln(df / 2.0) - np.log(df) - math.log(math.pi) - np.log(factor)
    np.testing.assert_allclose(tables.region_rows[1], const, rtol=0, atol=1e-10)


def _recount(batch, views, R, n_words, n_objects):
    """Counts and moment sums of every particle, summed afresh from its assignments and the
    sessions' vocabulary-indexed views."""
    P = batch.assignments.shape[1]
    counts = np.zeros((_WORDS + n_words + n_objects, R, P), dtype=int)
    moments = np.zeros((6, R, P))
    for i in range(P):
        for v, r in zip(views, batch.assignments[:, i]):
            row = counts[:, r, i]
            row[:_WORDS] += [1, v.word_total, v.obj_total]
            row[_WORDS + v.word_idx] += v.word_cnt
            row[_WORDS + n_words + v.obj_idx] += v.obj_cnt
            x0, x1 = v.x
            moments[:, r, i] += [x0, x1, x0 * x0, x0 * x1, x1 * x0, x1 * x1]
    return counts, moments


def _assert_integral_counts(batch):
    """The count block holds integers: every add and remove moves it by whole counts."""
    np.testing.assert_array_equal(batch.counts, np.round(batch.counts))


def _assert_recount(batch, views, R, n_words, n_objects):
    """The batch's counts and moment sums are a recount of its assignments."""
    counts, moments = _recount(batch, views, R, n_words, n_objects)
    np.testing.assert_array_equal(batch.counts, counts)
    np.testing.assert_allclose(batch.moments, moments, rtol=1e-12, atol=1e-12)


@pytest.mark.parametrize("case", range(8))
def test_batch_stays_a_recount_of_its_assignments_through_resampling(case):
    # Every add writes into the state buffer: a resample whose views did not share its new
    # buffer would score against one copy and write to another.
    rng = np.random.default_rng(300 + case)
    P, R = int(rng.integers(2, 8)), int(rng.integers(1, 6))
    places = [f"w{i}" for i in range(int(rng.integers(1, 5)))]
    objects = [f"o{i}" for i in range(int(rng.integers(0, 5)))]
    stream, views, v0 = _random_stream(rng, int(rng.integers(4, 20)), places, objects, R)
    tables = _Tables(Hyperparameters(), v0, R, P, *stream)
    batch = _Batch(tables, len(views))

    # Sessions arrive in random regions, with a resample after a third and after two thirds.
    thirds = [0, len(views) // 3, 2 * len(views) // 3, len(views)]
    for start, stop in zip(thirds, thirds[1:]):
        if start:
            batch = batch.take(rng.integers(0, P, P))
            _assert_integral_counts(batch)
        for t in range(start, stop):
            batch.assignments[t] = rng.integers(0, R, P)
            batch.add(batch.assignments[t], tables, t)
        _assert_integral_counts(batch)
    assert batch.state.flags.c_contiguous and batch.assignments.flags.c_contiguous
    for view in (batch.counts, batch.moments):
        assert np.shares_memory(view, batch.state)
    _assert_recount(batch, views, R, len(places), len(objects))


@pytest.mark.parametrize("case", range(8))
def test_a_gathered_batch_reads_and_writes_its_own_arrays(case):
    # A view left on the buffer a gather replaced would score a grid against stale counts
    # and write its updates where nothing reads them.
    batch, tables, views, hp, n_words, n_objects = _random_batch(case)
    P = batch.assignments.shape[1]
    taken = batch.take(np.random.default_rng(case).integers(0, P, P))
    for view in (taken.counts, taken.moments, taken.sums, taken.outers):
        assert np.shares_memory(view, taken.state) and not np.shares_memory(view, batch.state)
    assert not np.shares_memory(taken.assignments, batch.assignments)
    _assert_grids_match_reference(taken, tables, enumerate(views), hp, n_words, n_objects)
    # Adding session 0 writes one session per particle into the gathered buffer alone.
    before, sessions = batch.state.copy(), taken.counts[_CONCEPT].sum()
    taken.add(taken.assignments[0], tables, 0)
    np.testing.assert_array_equal(batch.state, before)
    assert taken.counts[_CONCEPT].sum() == sessions + P
    _assert_integral_counts(taken)
    _assert_grids_match_reference(taken, tables, enumerate(views), hp, n_words, n_objects)


def _block_starts(views):
    """The first row of each fused-table block, and the row past the last: the region prior,
    the two mass blocks and the two rising blocks."""
    tops = [0, max(v.word_total for v in views), max(v.obj_total for v in views),
            max((c for v in views for c in v.word_cnt), default=0),
            max((c for v in views for c in v.obj_cnt), default=0)]
    return np.cumsum([0] + [top + 1 for top in tops])


def _assert_segments_match_reference(tables, views, n_words, n_objects, R, P):
    """Each session's segment of the tables' flat arrays against the segment a per-session
    loop builds from its vocabulary-indexed view alone: its columns, values, fused-table rows,
    buffer indices and particle offsets, equal with equal dtypes, and its position.  The
    segments tile the flat arrays in stream order, each as wide as its own columns."""
    first_obj = _WORDS + n_words
    F = first_obj + n_objects
    n_len = max(len(views), sum(v.word_total for v in views), sum(v.obj_total for v in views)) + 1
    assert tables.region_rows.shape[1] == n_len
    starts = _block_starts(views)
    assert len(tables.rows) == starts[-1] * n_len
    r, particle = np.arange(R)[:, None], np.arange(P)[:, None]
    assert len(tables.bounds) == len(views) + 1 and tables.bounds[0] == 0
    assert tables.bounds[-1] == len(tables.values) == len(tables.cols) == len(tables.row_index)
    assert tables.cell_index.shape == (R, len(tables.values))
    for t, v in enumerate(views):
        cols = np.concatenate(([0, 1, 2], _WORDS + v.word_idx, first_obj + v.obj_idx))
        x0, x1 = v.x
        # Its moment sums, then one count per column.
        values = np.concatenate(([x0, x1, x0 * x0, x0 * x1, x1 * x0, x1 * x1, 1, v.word_total, v.obj_total],
                                 v.word_cnt, v.obj_cnt))
        rows = np.concatenate(([0, starts[1] + v.word_total, starts[2] + v.obj_total],
                               starts[3] + v.word_cnt, starts[4] + v.obj_cnt)) * n_len
        cells = np.concatenate(((F + np.arange(6)) * R + r, cols * R + r), axis=1) * P
        lo, hi = tables.bounds[t], tables.bounds[t + 1]
        for actual, expected in ((tables.cols[lo + 6:hi], cols), (tables.values[lo:hi], values),
                                 (tables.row_index[lo + 6:hi], rows), (tables.cell_index[:, lo:hi], cells),
                                 (tables.offsets, particle), (tables.x[t], v.x)):
            assert actual.dtype == expected.dtype
            np.testing.assert_array_equal(actual, expected)


@pytest.mark.parametrize("objects", [[], ["cup", "plate", "fork"]], ids=["empty-object-vocabulary", "objects"])
def test_segments_equal_the_vocabulary_indexed_reference(objects):
    # Sessions repeat words and objects, and some hold no object.
    rng = np.random.default_rng(40 + len(objects))
    places = ["kitchen", "sink", "stove", "oven"]
    stream, views, v0 = _random_stream(rng, 60, places, objects)
    assert any(v.obj_total == 0 for v in views) and any(len(v.word_idx) < v.word_total for v in views)
    assert not objects or any(len(v.obj_idx) < v.obj_total for v in views)
    tables = _Tables(Hyperparameters(), v0, 1, 30, *stream)
    _assert_segments_match_reference(tables, views, len(places), len(objects), 1, 30)


def test_one_pass_set_up_matches_a_per_session_reference():
    # Random streams whose sessions may hold no place word or no object, repeat words and
    # objects, and spread over more than 8 count columns (numpy's pairwise sum unrolls at 8
    # terms, so a padded or reordered segment would move a grid's bits), with an empty object
    # vocabulary, a one-word vocabulary and a one-session stream among them.
    rng = np.random.default_rng(61)
    seen = dict.fromkeys(["no word", "no object", "repeated word", "repeated object", "wide",
                          "no object vocabulary", "one word", "one session"], 0)
    for case in range(48):
        n_words = 1 if case % 4 == 1 else int(rng.integers(2, 9))
        n_objects = 0 if case % 4 == 2 else int(rng.integers(1, 12))
        T = 1 if case % 4 == 3 else int(rng.integers(2, 25))
        places, objects = [f"w{i}" for i in range(n_words)], [f"o{i}" for i in range(n_objects)]
        sessions = [Session(rng.normal(scale=3.0, size=2),
                            [str(o) for o in rng.choice(objects, size=int(rng.integers(0, 10)))] if objects else [],
                            [str(w) for w in rng.choice(places, size=int(rng.integers(0, 6)))])
                    for _ in range(T)]
        R, P = int(rng.integers(1, 6)), int(rng.integers(1, 5))
        stream, views, v0 = _stream_and_views(sessions, {w: i for i, w in enumerate(places)},
                                              {o: i for i, o in enumerate(objects)}, R)
        tables = _Tables(Hyperparameters(), v0, R, P, *stream)
        _assert_segments_match_reference(tables, views, n_words, n_objects, R, P)
        for v in views:
            seen["no word"] += v.word_total == 0
            seen["no object"] += v.obj_total == 0
            seen["repeated word"] += len(v.word_idx) < v.word_total
            seen["repeated object"] += len(v.obj_idx) < v.obj_total
            seen["wide"] += _WORDS + len(v.word_idx) + len(v.obj_idx) > 8
        seen["no object vocabulary"] += n_objects == 0
        seen["one word"] += n_words == 1
        seen["one session"] += T == 1
    assert min(seen.values()) > 0, seen


def _padded(tables, views, pads, rng, n_words, n_objects, R, P):
    """``tables`` with ``pads[t]`` zero-count columns appended to session t's segment, random
    word or object columns that each read row 0 of their rising block, zero at every count."""
    starts, n_len = _block_starts(views), tables.region_rows.shape[1]
    pieces = {"cols": [], "row_index": [], "values": [], "cell_index": []}
    for t, pad in enumerate(pads):
        lo, hi = tables.bounds[t], tables.bounds[t + 1]
        is_object = rng.random(pad) < 0.5 if n_objects else np.zeros(pad, dtype=bool)
        cols = np.where(is_object, _WORDS + n_words + rng.integers(0, max(n_objects, 1), pad),
                        _WORDS + rng.integers(0, n_words, pad))
        extra = {"cols": cols, "row_index": np.where(is_object, starts[4], starts[3]) * n_len,
                 "values": np.zeros(pad), "cell_index": (cols * R + np.arange(R)[:, None]) * P}
        for name, segment in pieces.items():
            segment.append(np.concatenate((getattr(tables, name)[..., lo:hi], extra[name]), axis=-1))
    padded = copy.copy(tables)
    for name, segments in pieces.items():
        setattr(padded, name, np.concatenate(segments, axis=-1))
    padded.bounds = [0, *np.cumsum(np.diff(tables.bounds) + pads).tolist()]
    return padded


def test_padding_a_segment_with_zero_counts_leaves_every_grid_bit():
    # The count term sums a segment's columns down the leading axis of a (k, R, P) gather,
    # in order, so zero columns appended to it add exact zeros: the grid keeps every bit.
    # A pairwise sum (numpy's along a contiguous axis, unrolled at 8 terms) would reassociate
    # it once the padded segment is 8 or more columns wide.
    rng = np.random.default_rng(71)
    wide = padded_wide = 0
    for case in range(12):
        n_words, n_objects = int(rng.integers(1, 9)), (0, int(rng.integers(1, 12)))[case % 3 > 0]
        places, objects = [f"w{i}" for i in range(n_words)], [f"o{i}" for i in range(n_objects)]
        sessions = [Session(rng.normal(scale=3.0, size=2),
                            [str(o) for o in rng.choice(objects, size=int(rng.integers(0, 10)))] if objects else [],
                            [str(w) for w in rng.choice(places, size=int(rng.integers(1, 6)))])
                    for _ in range(int(rng.integers(2, 20)))]
        R, P = int(rng.integers(1, 6)), int(rng.integers(1, 6))
        stream, views, v0 = _stream_and_views(sessions, {w: i for i, w in enumerate(places)},
                                              {o: i for i, o in enumerate(objects)}, R)
        tables = _Tables(Hyperparameters(), v0, R, P, *_twice(stream))
        T = len(views)
        pads = np.concatenate((rng.integers(0, 12, T), np.zeros(T, dtype=int)))
        padded = _padded(tables, views + views, pads, rng, n_words, n_objects, R, P)
        batch = _Batch(tables, T)
        for t in range(T):
            batch.assignments[t] = rng.integers(0, R, P)
            batch.add(batch.assignments[t], tables, t)
            for s in range(2 * T):  # the grids of every session of the doubled stream
                assert _grid(batch, padded, s).tobytes() == _grid(batch, tables, s).tobytes()
        widths = np.diff(tables.bounds)[:T] - 6
        wide += int((widths > 8).sum())
        padded_wide += int((widths + pads[:T] > 8).sum())
    assert wide > 0 and padded_wide > wide


def test_filter_reports_every_step_and_ends_on_a_recount():
    resampling_cases = 0
    for case in range(32):
        rng = np.random.default_rng(500 + case)
        P, R = int(rng.integers(1, 9)), int(rng.integers(1, 6))
        places = [f"w{i}" for i in range(int(rng.integers(1, 5)))]
        objects = [f"o{i}" for i in range(int(rng.integers(0, 5)))]
        stream, views, v0 = _random_stream(rng, int(rng.integers(1, 30)), places, objects, R)
        tables = _Tables(Hyperparameters(), v0, R, P, *stream)

        def run(T):
            """The filter over the first T sessions, from seed ``case``."""
            return _filter(_Batch(tables, T), tables, np.random.default_rng(case))

        batch, log_w, ess, resampled = run(len(views))
        assert len(ess) == len(resampled) == len(views)
        _assert_integral_counts(batch)
        # The ESS of normalised weights lies in [1, P], up to the rounding of 1 / sum(w^2).
        assert all(1.0 - 1e-12 <= e <= P * (1.0 + 1e-12) for e in ess)
        assert resampled == [e < P / 2.0 for e in ess]
        _assert_recount(batch, views, R, len(places), len(objects))
        if any(resampled):
            # Stopped at a step that resampled, the filter hands back zero log weights.
            T = resampled.index(True) + 1
            _, log_w, ess_T, resampled_T = run(T)
            assert (ess_T, resampled_T) == (ess[:T], resampled[:T])
            np.testing.assert_array_equal(log_w, np.zeros(P))
            resampling_cases += 1
    assert resampling_cases >= 4


def test_batched_sampling_picks_what_generator_choice_picks():
    # Grids at scales 0.1, 3 and 300 (the last underflows most cells) and integer grids
    # whose maxima tie, drawn with fresh uniforms and with the largest one Generator.random makes.
    rng = np.random.default_rng(3)
    for i in range(200):
        shape = (int(rng.integers(1, 31)), 20)
        grid = (rng.integers(-3, 1, size=shape).astype(float) if i % 4 == 3
                else rng.normal(scale=(0.1, 3.0, 300.0)[i % 4], size=shape))
        P = len(grid)
        probs = np.exp(grid - grid.max(axis=1, keepdims=True))
        probs /= probs.sum(axis=1, keepdims=True)
        cells = np.empty(P, dtype=int)
        _draw(grid.T, np.random.default_rng(i).random(P), cells)
        sequential = np.random.default_rng(i)
        for p in range(P):
            assert cells[p] == sequential.choice(20, p=probs[p])
        # At the top uniform the scaled total stays below the last cumulative sum.
        _draw(grid.T, np.full(P, np.nextafter(1.0, 0.0)), cells)
        assert np.all(cells < 20)
        assert np.all(probs[np.arange(P), cells] > 0)


@pytest.mark.parametrize("row", [
    [0.0, 0.0, 1.0, 0.0, 0.0],
    [0.0, 1.0, 0.0, 1.0, 0.0, 0.0],
    [0.0, 0.0, 0.0, 0.5, 0.25, 0.25, 1.0, 0.0, 0.0, 0.0],
    [1.0, 1.0, 1.0, 1.0, 0.0],
    [0.0, 0.0, 0.0, 1.0, 2.0 ** -52, 0.0],
    [0.0, 0.3, 1.0, 0.7, 0.0],
])
def test_extreme_uniforms_draw_the_first_and_last_cells_with_mass(row):
    # Rows with zero-mass heads and tails.  All but the fifth total a power of two, which the top
    # uniform scales by exactly 1 - 2**-53; the fifth's last mass is one ulp of its total.  The
    # top uniform must draw the last cell with mass and 0 the first: a draw into a massless
    # cell, or at or past the row's end, would be a cell the grid gave no weight.
    e = np.array([row, row[::-1]]).T
    mass = [np.flatnonzero(r) for r in e.T]
    cells = np.empty(e.shape[1], dtype=int)
    _sample_grid(e, np.full(e.shape[1], np.nextafter(1.0, 0.0)), cells)
    assert cells.tolist() == [m[-1] for m in mass]
    _sample_grid(e, np.zeros(e.shape[1]), cells)
    assert cells.tolist() == [m[0] for m in mass]


def _assert_documents_close(actual, expected, path="model"):
    if isinstance(expected, dict):
        assert sorted(actual) == sorted(expected), path
        for key in expected:
            _assert_documents_close(actual[key], expected[key], f"{path}.{key}")
    elif isinstance(expected, list) and any(isinstance(v, (list, dict, str)) for v in expected):
        assert len(actual) == len(expected), path
        for i, (a, e) in enumerate(zip(actual, expected)):
            _assert_documents_close(a, e, f"{path}[{i}]")
    elif isinstance(expected, (list, float)):
        np.testing.assert_allclose(actual, expected, rtol=1e-9, atol=0, err_msg=path)
    else:
        assert actual == expected, path


def test_paper_home_models_match_the_per_particle_learner():
    """Both floors at 5 visits per room, seed 7, against models stored from this
    learner on standardized positions with the prior scale from the data (a
    different libm may move the last digits)."""
    expected = json.loads((FIXTURES / "paper_home_models_visits5_seed7.json").read_text())
    env = load_environment("paper_home")
    for robot in default_robots(env):
        model = learn_floor_model(env, robot, 7, visits_per_room=5)
        _assert_documents_close(model_to_dict(model), expected[robot.floor], robot.floor)


# C2: best rooms right of the floor's objects (acceptance suite, test_c2_learning_recovery).
C2_BEST_ROOMS = {"1F": (11, 13), "2F": (9, 11)}


def _meets_c2(env, robot, seed, visits_per_room=30):
    kb = learn_floor_knowledge(env, robot, seed, visits_per_room)
    right, total = best_room_recovery(env, robot.floor, kb)
    need, objects = C2_BEST_ROOMS[robot.floor]
    return right >= need and total == objects


@pytest.mark.parametrize("cli_seed", [8, 12, 21, 58])
def test_suite_first_floor_learns_meet_c2(cli_seed):
    # With the prior mean at the coordinate origin, on the entrance, these 1F learns of
    # `homeplan suite --seed S` split the entrance across two regions and missed C2.
    env = load_environment("paper_home")
    assert _meets_c2(env, default_robots(env)[0], _suite_seeds(cli_seed)["learn_base"])


@pytest.mark.parametrize("cli_seed, floor", [(12, "1F"), (13, "2F"), (14, "1F")])
def test_suite_five_visit_learns_named_by_their_words_meet_c2(cli_seed, floor):
    # At 5 visits a region's mean can lie nearer another room's centre than its own, so
    # these learns meet C2 only when regions are named by the words they heard.
    env = load_environment("paper_home")
    i, robot = next((i, r) for i, r in enumerate(default_robots(env)) if r.floor == floor)
    assert _meets_c2(env, robot, _suite_seeds(cli_seed)["learn_base"] + i, visits_per_room=5)


@pytest.mark.parametrize("shift", [(50.0, 50.0), (-1e4, 3e3)])
def test_a_shifted_home_meets_c2(shift):
    # Where the coordinate origin lies must not matter.  The learns are not bit-identical
    # across shifts (rounding can send the filter down another path), so C2 is asserted.
    doc = environment_to_dict(load_environment("paper_home"))
    for room in doc["rooms"]:
        room["center"] = [c + d for c, d in zip(room["center"], shift)]
    env = environment_from_dict(doc)
    for i, robot in enumerate(default_robots(env)):
        assert _meets_c2(env, robot, ACCEPTANCE_SEED + i), robot.floor


@pytest.mark.parametrize("scale", [1e-150, 1e-3, 1e3, 1e100])
def test_a_scaled_home_meets_c2(scale):
    # Nor must the unit of length: the learner standardizes positions by their own scale, so
    # a home in kilometres, in millimetres or near either end of the float range learns alike.
    doc = environment_to_dict(load_environment("paper_home"))
    for room in doc["rooms"]:
        room["center"] = [c * scale for c in room["center"]]
        room["scatter"] = [[v * scale ** 2 for v in row] for row in room["scatter"]]
    env = environment_from_dict(doc)
    for i, robot in enumerate(default_robots(env)):
        assert _meets_c2(env, robot, ACCEPTANCE_SEED + i), robot.floor
