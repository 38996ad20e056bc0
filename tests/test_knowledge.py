import math
from dataclasses import FrozenInstanceError, replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.optimize import linear_sum_assignment

from homeplan.knowledge import (
    PLACE_VOCAB_THRESHOLD,
    KnowledgeBase,
    _min_cost_assignment,
    extract_knowledge,
    format_probability,
    knowledge_from_dict,
    knowledge_from_environment,
    load_knowledge,
    match_room_names,
    render_place_vocab,
    render_presence_table,
    save_knowledge,
)
from homeplan.errors import ConfigurationError, SchemaError
from homeplan.spatial import load_model, object_location_posterior, save_model, word_posterior
from homeplan.world import load_environment

from conftest import parse_place_vocab, parse_presence_table, random_model, reference_presence_table


@pytest.fixture
def model():
    return random_model(np.random.default_rng(10), num_regions=3, n_words=6, n_objects=4)


def test_extract_rows_equal_posteriors_exactly(model):
    kb = extract_knowledge(model, model.vocab_places[:3], robot_id="R")
    for obj in model.vocab_objects:
        np.testing.assert_array_equal(np.asarray(kb.presence_table[obj], dtype=float),
                                      object_location_posterior(model, obj))


def test_extract_rows_resum_to_one(model):
    kb = extract_knowledge(model, model.vocab_places[:3])
    for obj, row in kb.presence_table.items():
        assert abs(sum(row) - 1.0) <= 1e-6


def test_extract_vocab_threshold_and_order(model):
    assert PLACE_VOCAB_THRESHOLD == 0.05
    kb = extract_knowledge(model, model.vocab_places[:3])
    for region, words in enumerate(kb.place_vocab):
        probs = word_posterior(model, region)
        by_word = {w: probs[i] for i, w in enumerate(model.vocab_places)}
        assert all(by_word[w] >= 0.05 for w in words)
        assert list(words) == sorted(words, key=lambda w: -by_word[w])
        # nothing above threshold was dropped
        assert len(words) == int((probs >= 0.05).sum())


def test_extract_keeps_only_the_word_of_a_delta_distribution():
    word = np.zeros((2, 3))
    word[:, 1] = 1.0
    model = replace(random_model(np.random.default_rng(11), 2, n_words=3), word_dist=word)
    kb = extract_knowledge(model, model.vocab_places[:2])
    assert kb.place_vocab == (("word1",), ("word1",))


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
    kb = extract_knowledge(model, model.vocab_places[:3])
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


def test_render_presence_table_of_no_knowledge_base_is_a_configuration_error():
    with pytest.raises(ConfigurationError, match="need at least one knowledge base"):
        render_presence_table([])


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
            row = np.asarray(original.presence_table[obj], dtype=float)
            np.testing.assert_allclose(np.asarray(back.presence_table[obj], dtype=float), row / row.sum(),
                                       atol=5e-4)


@given(st.integers(0, 100_000))
@settings(max_examples=50)
def test_presence_round_trip_random_tables(seed):
    rng = np.random.default_rng(seed)
    n_rooms = int(rng.integers(1, 6))
    rooms = [f"room{i}" for i in range(n_rooms)]
    table = {f"obj{i}": rng.dirichlet(np.ones(n_rooms)).tolist()
             for i in range(int(rng.integers(1, 5)))}
    kb = KnowledgeBase("RobotX", rooms, [[] for _ in rooms], table)
    parsed = parse_presence_table(render_presence_table([kb]))[0]
    assert parsed.room_names == tuple(rooms)
    for obj in table:
        np.testing.assert_allclose(np.asarray(parsed.presence_table[obj], dtype=float),
                                   np.asarray(kb.presence_table[obj], dtype=float), atol=5e-4)


def test_presence_rows_render_apart_by_sign_and_after_a_rebuild():
    kb = KnowledgeBase("R", ["a", "b", "c"], [[], [], []], {"cup": [0.0, 1.0, 5e-5]})
    assert render_presence_table([kb]).endswith("cup = [0.0, 1.0, 0.0001]")
    signed = replace(kb, presence_table={"cup": [-0.0, 1.0, 5e-5]})  # equal to kb, rendered apart
    assert signed == kb
    assert render_presence_table([signed]).endswith("cup = [-0.0, 1.0, 0.0001]")
    assert render_presence_table([kb]).endswith("cup = [0.0, 1.0, 0.0001]")
    kb = replace(kb, presence_table={"cup": [4.9999e-5, 0.99994, 1]})
    assert kb.presence_table["cup"] == (4.9999e-5, 0.99994, 1)  # values as given: the int stays an int
    assert render_presence_table([kb]).endswith("cup = [0.0, 0.9999, 1.0]")
    assert render_presence_table([kb]) == reference_presence_table([kb])


def test_a_knowledge_base_cannot_change_in_place():
    kb = KnowledgeBase("R", ["a", "b"], [["sink"], []], {"cup": [1.0, 0.0]})
    render_presence_table([kb])
    with pytest.raises(FrozenInstanceError):
        kb.robot_id = "S"
    with pytest.raises(TypeError):
        kb.presence_table["plate"] = [0.5, 0.5]
    with pytest.raises(TypeError):
        kb.presence_table["cup"][0] = 0.0
    with pytest.raises(AttributeError):
        kb.room_names.append("c")
    with pytest.raises(AttributeError):
        kb.place_vocab[0].append("oven")
    assert render_presence_table([kb]) == reference_presence_table([kb])


@pytest.mark.parametrize("row", [[float("nan"), -1.0], [float("nan"), 1.0], [-0.1, 1.1],
                                 [float("inf"), 0.0], [1e308, 1e308], (0.5, "0.5"), np.array([0.5, 0.5])])
def test_a_knowledge_base_built_directly_rejects_bad_presence_rows(row):
    with pytest.raises(SchemaError, match="cup"):
        KnowledgeBase("R", ["a", "b"], [[], []], {"cup": row})


@pytest.mark.parametrize("robot_id, rooms", [("R", ["kitchen", "kitchen"]), ("", ["kitchen", "bedroom"]),
                                             (None, ["kitchen", "bedroom"]), ("R", "ab")])
def test_a_knowledge_base_rejects_repeated_rooms_and_an_empty_robot_id(robot_id, rooms):
    with pytest.raises(SchemaError):
        KnowledgeBase(robot_id, rooms, [[], []], {"cup": [0.5, 0.5]})
    data = {"robot_id": robot_id, "room_names": rooms, "place_vocab": [[], []],
            "presence_table": {"cup": [0.5, 0.5]}}
    with pytest.raises(SchemaError):
        knowledge_from_dict(data)


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
    assert loaded == kb_robot1
    save_knowledge(loaded, tmp_path / "again.json")
    assert (tmp_path / "again.json").read_bytes() == path.read_bytes()


FIRST_FLOOR = [r.name for r in load_environment("paper_home").rooms_on("1F")]


def heard_model(seed, word_dist):
    """A five-region model whose region k hears ``word_dist[k]`` over the 1F room names."""
    model = random_model(np.random.default_rng(seed), 5, n_words=5)
    return replace(model, vocab_places=FIRST_FLOOR, word_dist=word_dist)


def test_match_room_names_is_a_bijection():
    word_dist = 0.05 + 0.75 * np.eye(5)
    word_dist[1] = [0.4, 0.35, 0.1, 0.1, 0.05]  # region 1 heard room 0's name most, but region 0 more so
    model = heard_model(12, word_dist)
    assert match_room_names(model, FIRST_FLOOR) == FIRST_FLOOR
    assert match_room_names(model, FIRST_FLOOR[::-1]) == FIRST_FLOOR
    assert match_room_names(model, ["garage", *FIRST_FLOOR]) == FIRST_FLOOR


def test_match_room_names_reads_no_geometry():
    model = heard_model(14, 0.05 + 0.75 * np.eye(5))
    means = model.means.copy()
    means[2] = [1e200, 0.0]  # its squared distance to any room overflows
    model = replace(model, means=means)
    assert match_room_names(model, FIRST_FLOOR) == FIRST_FLOOR


def test_an_unheard_name_takes_the_leftover_region():
    model = heard_model(15, 0.05 + 0.75 * np.eye(5))
    model = replace(model, vocab_places=[*FIRST_FLOOR[:3], "sofa", FIRST_FLOOR[4]])  # region 3 never heard "office_room"
    for _ in range(2):
        assert match_room_names(model, FIRST_FLOOR) == FIRST_FLOOR
    # Two unheard names tie in both leftover regions: the lower index wins.
    model = replace(model, vocab_places=[*FIRST_FLOOR[:3], "sofa", "sink"])
    assert match_room_names(model, FIRST_FLOOR) == FIRST_FLOOR
    assert match_room_names(model, FIRST_FLOOR[::-1])[3:] == ["kitchen", "office_room"]


def test_a_model_document_with_exact_zero_words_is_named(tmp_path):
    path = tmp_path / "model.json"
    save_model(heard_model(16, np.eye(5)), path)  # each region heard one name and never the other four
    kb = extract_knowledge(load_model(path), FIRST_FLOOR)
    assert kb.room_names == tuple(FIRST_FLOOR)
    assert kb.place_vocab == tuple((name,) for name in FIRST_FLOOR)


@st.composite
def integer_costs(draw):
    """An (n, m) cost matrix, n <= m <= 10, of small integers, so that many optima tie."""
    n = draw(st.integers(1, 10))
    m = draw(st.integers(n, 10))
    return np.array(draw(st.lists(st.lists(st.integers(0, 12), min_size=m, max_size=m),
                                  min_size=n, max_size=n)), dtype=float)


@given(integer_costs())
@settings(max_examples=300)
def test_min_cost_assignment_is_scipys_optimum(cost):
    """A bijection onto distinct columns with scipy's optimal total; where the optimum is unique,
    scipy's assignment.  The optimum is unique when forbidding any one of its pairs raises the total."""
    n = len(cost)
    columns = _min_cost_assignment(cost)
    assert len(set(columns.tolist())) == n
    rows, oracle = linear_sum_assignment(cost)
    best = cost[rows, oracle].sum()
    assert cost[np.arange(n), columns].sum() == best
    unique = True
    for i, j in zip(rows, oracle):
        forbidden = cost.copy()
        forbidden[i, j] = 1e6
        r, c = linear_sum_assignment(forbidden)
        unique &= forbidden[r, c].sum() > best
    if unique:
        assert columns.tolist() == oracle.tolist()


def test_min_cost_assignment_breaks_ties_to_the_lowest_column():
    assert _min_cost_assignment(np.zeros((2, 3))).tolist() == [0, 1]
    assert _min_cost_assignment(np.array([[1.0, 0.0, 0.0]])).tolist() == [1]


def test_match_room_names_needs_enough_rooms():
    env = load_environment("robocup_arena")
    model = random_model(np.random.default_rng(13), 5)
    with pytest.raises(ValueError):
        match_room_names(model, [r.name for r in env.rooms_on("zone1")])  # 2 rooms < 5 regions


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


def test_knowledge_from_environment_of_a_floor_without_rooms_is_a_configuration_error():
    with pytest.raises(ConfigurationError, match="floor '3F' has no rooms"):
        knowledge_from_environment(load_environment("paper_home"), "3F", "Robot3")


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


def test_best_room_is_normalized_and_none_without_mass():
    kb = KnowledgeBase("R", ["a", "b"], [[], []], {"cup": [1.0, 3.0], "plate": [0.0, 0.0]})
    assert kb.best_room("cup") == ("b", 0.75)
    assert kb.best_room("plate") is None
    assert kb.best_room("fork") is None


_NEAR_TIE = [1.0, 1.0, 331.0, 999.9999999999999, 1000.0]  # the top two round together once normalized


def _one_row_base(row):
    rooms = [f"room{i}" for i in range(len(row))]
    return KnowledgeBase("R", rooms, [[] for _ in rooms], {"x": row})


@given(st.lists(st.floats(0.0, 1e300), min_size=1, max_size=9).filter(any))
@example(_NEAR_TIE)
@settings(max_examples=200)
def test_a_base_names_the_first_room_that_holds_its_rows_largest_value(row):
    kb = _one_row_base(row)
    top = kb.room_names[row.index(max(row))]
    assert kb.best_room("x")[0] == top
    assert kb.search_order("x")[0] == top


@st.composite
def presence_rows(draw):
    """Rows with ties, signed zeros, subnormals and adjacent floats; one in ten is all zero."""
    values = st.one_of(st.sampled_from([0.0, -0.0, 5e-324, 1e-310, 0.5, 1.0, 1000.0]),
                       st.floats(0.0, 1e300), st.integers(0, 3))
    row = draw(st.lists(values, min_size=1, max_size=9))
    if draw(st.booleans()):  # a near-tie: one entry becomes another's neighbouring float
        i, j = draw(st.integers(0, len(row) - 1)), draw(st.integers(0, len(row) - 1))
        row[j] = math.nextafter(float(row[i]), draw(st.sampled_from([0.0, math.inf])))
    if draw(st.integers(0, 9)) == 0:
        row = [draw(st.sampled_from([0.0, -0.0])) for _ in row]
    return row


def reference_ranking(rooms, values):
    """A stable descending argsort of the raw row; the top room with ``row[top] / sum``, None without mass."""
    row = np.asarray(values, dtype=float)
    order = np.argsort(-row, kind="stable")
    total = row.sum()
    best = (rooms[order[0]], float(row[order[0]] / total)) if total > 0 else None
    return tuple(rooms[i] for i in order), best


@given(presence_rows())
@example(_NEAR_TIE)
@example([0.0, -0.0, 5e-324, 5e-324])
@settings(max_examples=300)
def test_a_base_ranks_each_row_as_stored_and_a_rebuilt_base_ranks_its_own(row):
    kb = _one_row_base(row)
    assert (kb.search_order("x"), kb.best_room("x")) == reference_ranking(kb.room_names, row)
    rebuilt = replace(kb, presence_table={"x": row[::-1], "y": row})
    assert (rebuilt.search_order("x"), rebuilt.best_room("x")) == reference_ranking(kb.room_names, row[::-1])
    assert (rebuilt.search_order("y"), rebuilt.best_room("y")) == (kb.search_order("x"), kb.best_room("x"))
    assert rebuilt.best_room("z") is None


def test_a_base_needs_a_room():
    with pytest.raises(SchemaError, match="at least one room"):
        KnowledgeBase("R1", [], [], {"cup": []})
    with pytest.raises(SchemaError, match="at least one room"):
        knowledge_from_dict({"robot_id": "R1", "room_names": [], "place_vocab": [], "presence_table": {}})


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
