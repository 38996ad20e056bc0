import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from homeplan.knowledge import (
    KnowledgeBase,
    extract_knowledge,
    format_probability,
    knowledge_from_dict,
    knowledge_from_environment,
    load_knowledge,
    match_room_names,
    parse_place_vocab,
    parse_presence_table,
    render_place_vocab,
    render_presence_table,
    save_knowledge,
)
from homeplan.errors import SchemaError
from homeplan.spatial import object_location_posterior, word_posterior
from homeplan.world import load_environment

from conftest import random_model, reference_presence_table


@pytest.fixture
def model():
    return random_model(np.random.default_rng(10), num_concepts=3, num_regions=3,
                        n_words=6, n_objects=4)


def test_extract_rows_equal_posteriors_exactly(model):
    kb = extract_knowledge(model, ["a", "b", "c"], robot_id="R")
    for obj in model.vocab_objects:
        np.testing.assert_array_equal(kb.row(obj), object_location_posterior(model, obj).probs)


def test_extract_rows_resum_to_one(model):
    kb = extract_knowledge(model, ["a", "b", "c"])
    for obj, row in kb.presence_table.items():
        assert abs(sum(row) - 1.0) <= 1e-6


def test_extract_vocab_threshold_and_order(model):
    kb = extract_knowledge(model, ["a", "b", "c"], vocab_threshold=0.05)
    for region, words in enumerate(kb.place_vocab):
        probs = word_posterior(model, region).probs
        by_word = {w: probs[i] for i, w in enumerate(model.vocab_places)}
        assert all(by_word[w] >= 0.05 for w in words)
        assert words == sorted(words, key=lambda w: -by_word[w])
        # nothing above threshold was dropped
        assert len(words) == int((probs >= 0.05).sum())


def test_extract_near_one_threshold_on_delta_words():
    model = random_model(np.random.default_rng(11), 1, 2, n_words=3)
    word = np.zeros(3)
    word[1] = 1.0
    model.concepts[0].word_dist = word
    kb = extract_knowledge(model, ["a", "b"], vocab_threshold=1.0 - 1e-9)
    assert kb.place_vocab == [["word1"], ["word1"]]


def test_extract_validates_room_names(model):
    with pytest.raises(ValueError):
        extract_knowledge(model, ["only_one"])


def test_render_place_vocab_body_lines_exact():
    kb = KnowledgeBase(
        robot_id="Robot1",
        room_names=["p1", "p2", "p3"],
        place_vocab=[
            ["living_room", "sofa", "desk", "chair", "tv"],
            ["sink", "refrigerator", "desk", "chair", "kitchen"],
            ["toy", "shelf", "toy_room", "box", "bed"],
        ],
        presence_table={},
    )
    lines = render_place_vocab(kb).splitlines()
    assert lines[0] == "There are three location areas in a home environment."
    assert lines[1] == "Your initial position is outside of the three rooms."
    assert lines[3] == "place1: [living_room, sofa, desk, chair, tv]"
    assert lines[4] == "place2: [sink, refrigerator, desk, chair, kitchen]"
    assert lines[5] == "place3: [toy, shelf, toy_room, box, bed]"


def test_render_place_vocab_empty_list():
    kb = KnowledgeBase("R", ["r1"], [[]], {})
    assert render_place_vocab(kb).splitlines()[-1] == "place1: []"


def test_place_vocab_round_trip(model):
    kb = extract_knowledge(model, ["a", "b", "c"], vocab_threshold=0.01)
    assert parse_place_vocab(render_place_vocab(kb)) == kb.place_vocab


def test_render_presence_table_banana_row_format(kb_robot2):
    text = render_presence_table([kb_robot2])
    assert "banana = [0.01, 0.186, 0.13, 0.007, 0.668]" in text
    lines = text.splitlines()
    assert lines[0] == "Robot2"
    assert lines[1] == '"List of probabilities that an object exists":'
    assert lines[2] == "[front_of_stairs, corridor, bathroom, child_room, parent_room]"


def test_render_single_robot_has_no_divider(kb_robot2):
    assert "----" not in render_presence_table([kb_robot2])


def test_render_two_robots_separated_by_divider(kb_robot1, kb_robot2):
    text = render_presence_table([kb_robot1, kb_robot2])
    assert "\n----------------\n" in text
    first, second = text.split("\n----------------\n")
    assert first.startswith("Robot1")
    assert second.startswith("Robot2")


def test_presence_round_trip_at_three_decimals(kb_robot1, kb_robot2):
    parsed = parse_presence_table(render_presence_table([kb_robot1, kb_robot2]))
    assert [kb.robot_id for kb in parsed] == ["Robot1", "Robot2"]
    for original, back in zip([kb_robot1, kb_robot2], parsed):
        assert back.room_names == original.room_names
        for obj in original.presence_table:
            orig = original.row(obj) / original.row(obj).sum()
            np.testing.assert_allclose(back.row(obj), orig, atol=5e-4)


@given(st.integers(0, 100_000))
@settings(max_examples=50, deadline=None)
def test_presence_round_trip_random_tables(seed):
    rng = np.random.default_rng(seed)
    n_rooms = int(rng.integers(1, 6))
    rooms = [f"room{i}" for i in range(n_rooms)]
    table = {f"obj{i}": rng.dirichlet(np.ones(n_rooms)).tolist()
             for i in range(int(rng.integers(1, 5)))}
    kb = KnowledgeBase("RobotX", rooms, [[] for _ in rooms], table)
    parsed = parse_presence_table(render_presence_table([kb]))[0]
    assert parsed.room_names == rooms
    for obj in table:
        np.testing.assert_allclose(parsed.row(obj), kb.row(obj), atol=5e-4)


def test_presence_rows_render_apart_by_sign_and_after_mutation():
    kb = KnowledgeBase("R", ["a", "b", "c"], [[], [], []], {"cup": [0.0, 1.0, 5e-5]})
    assert render_presence_table([kb]).endswith("cup = [0.0, 1.0, 0.0001]")
    kb.presence_table["cup"][0] = -0.0  # equal to 0.0, rendered apart
    assert render_presence_table([kb]).endswith("cup = [-0.0, 1.0, 0.0001]")
    kb.presence_table["cup"] = [4.9999e-5, 0.99994, 1]
    assert render_presence_table([kb]).endswith("cup = [0.0, 0.9999, 1.0]")
    assert render_presence_table([kb]) == reference_presence_table([kb])


def test_format_probability_examples():
    assert format_probability(0.010) == "0.01"
    assert format_probability(0.186) == "0.186"
    assert format_probability(0.130) == "0.13"
    assert format_probability(0.0) == "0.0"
    assert format_probability(1.0) == "1.0"
    assert format_probability(0.66666) == "0.6667"


def test_region_order_preserved_in_rendering(kb_robot1):
    text = render_presence_table([kb_robot1])
    bracket_line = text.splitlines()[2]
    assert bracket_line == "[" + ", ".join(kb_robot1.room_names) + "]"


def test_knowledge_json_round_trip(tmp_path, kb_robot1):
    path = tmp_path / "kb.json"
    save_knowledge(kb_robot1, path)
    loaded = load_knowledge(path)
    assert loaded.robot_id == kb_robot1.robot_id
    assert loaded.room_names == kb_robot1.room_names
    assert loaded.presence_table == kb_robot1.presence_table


def test_match_room_names_is_a_bijection():
    env = load_environment("paper_home")
    model = random_model(np.random.default_rng(12), 3, 5)
    rooms = env.rooms_on("1F")
    for i, room in enumerate(rooms):
        model.regions[i].mean = room.center_array + 0.1
    names = match_room_names(model, rooms)
    assert sorted(names) == sorted(r.name for r in rooms)
    assert names == [r.name for r in rooms]


def test_match_room_names_needs_enough_rooms():
    env = load_environment("robocup_arena")
    model = random_model(np.random.default_rng(13), 2, 5)
    with pytest.raises(ValueError):
        match_room_names(model, env.rooms_on("zone1"))  # 2 rooms < 5 regions


def test_parse_presence_table_rejects_garbage():
    from homeplan.errors import SchemaError
    with pytest.raises(SchemaError):
        parse_presence_table("Robot1\nno title here\n[a, b]\nrow = [0.5, 0.5]")
    with pytest.raises(SchemaError):
        parse_presence_table("too\nshort")


def test_knowledge_from_environment_one_hot():
    env = load_environment("paper_home")
    kb = knowledge_from_environment(env, "2F", "Robot2")
    assert kb.best_room("banana") == ("parent_room", 1.0)
    assert set(kb.presence_table) == set(env.objects_on("2F"))


@pytest.mark.parametrize("row", [
    [float("nan"), 1.0],
    [float("inf"), 0.0],
    [-0.1, 1.1],
    ["0.5", 0.5],
    [None, 1.0],
    [True, 0.0],
    [0.5],
    [0.2, 0.3, 0.5],
    "0.5, 0.5",
])
def test_knowledge_loader_rejects_bad_presence_rows(row):
    data = {"robot_id": "R", "room_names": ["a", "b"], "place_vocab": [[], []],
            "presence_table": {"cup": [1.0, 0.0], "plate": row}}
    with pytest.raises(SchemaError, match="plate"):
        knowledge_from_dict(data)


def test_knowledge_loader_accepts_integer_rows():
    data = {"robot_id": "R", "room_names": ["a", "b"], "place_vocab": [[], []],
            "presence_table": {"cup": [1, 0]}}
    assert knowledge_from_dict(data).best_room("cup") == ("a", 1.0)


@pytest.mark.parametrize("key, value", [
    ("room_names", None), ("place_vocab", None), ("robot_id", None), ("room_names", [1, 2]),
    ("place_vocab", ["a", "b"]), ("presence_table", None), ("presence_table", {"cup": [10 ** 400, 0]}),
])
def test_knowledge_loader_rejects_untyped_containers(key, value):
    data = {"robot_id": "R", "room_names": ["a", "b"], "place_vocab": [[], []],
            "presence_table": {"cup": [1.0, 0.0]}}
    data[key] = value
    with pytest.raises(SchemaError):
        knowledge_from_dict(data)
