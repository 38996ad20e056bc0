import json
import operator
import re
from dataclasses import FrozenInstanceError, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from homeplan.errors import (
    ConfigurationError,
    FloorAccessError,
    PlanningError,
    SchemaError,
    UnknownLabelError,
    UnknownRoomError,
)
from homeplan.executor import ExecutionPolicy
from homeplan.spatial import Hyperparameters
from homeplan.world import (
    _BLOCK,
    BUILTIN_ENVIRONMENTS,
    GATHER,
    Environment,
    RobotState,
    Room,
    World,
    environment_from_dict,
    generate_floor_sessions,
    load_environment,
    observe_session,
    paper_home,
)

from conftest import EagerSeedWorld, environment_to_dict


def sure_robot(robot_id="Robot1", floor="1F", room="kitchen", **overrides):
    probs = dict(p_navigate=1.0, p_detect_present=1.0, p_pick=1.0, p_place=1.0)
    probs.update(overrides)
    return RobotState(robot_id=robot_id, floor=floor, current_room=room, **probs)


# Enough steps of one skill to run a robot's stream through more than two blocks.
STREAM_STEPS = 2 * _BLOCK + 7


def scalar_draws(seed, n):
    """The first ``n`` uniforms of the first robot's child of ``SeedSequence(seed)``, one scalar call each."""
    rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(0,)))
    return [rng.random() for _ in range(n)]


@pytest.fixture
def home():
    return load_environment("paper_home")


def test_builtin_paper_home_counts(home):
    assert len(home.rooms) == 10
    assert len(home.placements) == 24
    assert len(home.floors) == 2
    assert len(home.objects_on("1F")) == 13
    assert len(home.objects_on("2F")) == 11


def test_builtin_robocup_arena_loads():
    env = load_environment("robocup_arena")
    assert {"cup", "water_bottle"} <= set(env.placements)
    assert env.placements["cup"] == "kitchen"


def test_environment_round_trip(tmp_path, home):
    path = tmp_path / "env.json"
    path.write_text(json.dumps(environment_to_dict(home)))
    loaded = load_environment(path)
    assert environment_to_dict(loaded) == environment_to_dict(home)


def test_empty_rooms_is_schema_error():
    with pytest.raises(SchemaError):
        environment_from_dict({
            "floors": ["1F"], "rooms": [], "placements": {},
            "categories": {}, "place_words": {},
        })


def test_schema_error_lists_offending_keys():
    with pytest.raises(SchemaError, match="floors"):
        environment_from_dict({"rooms": [], "placements": {}, "categories": {}, "place_words": {}})
    with pytest.raises(SchemaError, match="placements\\[ghost\\]"):
        environment_from_dict({
            "floors": ["1F"],
            "rooms": [{"name": "a", "floor": "1F", "center": [0, 0]}],
            "placements": {"ghost": "nowhere"},
            "categories": {},
            "place_words": {},
        })


def _one_room_document(**room):
    return {"floors": ["1F"], "rooms": [{"name": "a", "floor": "1F", "center": [0, 0], **room}],
            "placements": {}, "categories": {}, "place_words": {}}


def test_nan_room_center_is_schema_error():
    with pytest.raises(SchemaError, match="center"):
        environment_from_dict(_one_room_document(center=[float("nan"), 0.0]))


def test_one_element_room_center_is_schema_error():
    with pytest.raises(SchemaError, match="center"):
        environment_from_dict(_one_room_document(center=[1.0]))


def test_negative_definite_room_scatter_is_schema_error():
    with pytest.raises(SchemaError, match="scatter"):
        environment_from_dict(_one_room_document(scatter=[[-1.0, 0.0], [0.0, -1.0]]))


@pytest.mark.parametrize("room", [
    {"center": 3.0},
    {"center": ["x", "y"]},
    {"center": [True, 0.0]},
    {"center": [0.0, 1.0, 2.0]},
    {"center": [float("inf"), 0.0]},
    {"scatter": [[1.0, 0.5], [0.0, 1.0]]},
    {"scatter": [[1.0, 2.0], [2.0, 1.0]]},
    {"scatter": [[1.0, 0.0], [0.0, float("nan")]]},
    {"scatter": [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]]},
    {"scatter": [1.0, 1.0]},
])
def test_bad_room_footprint_is_schema_error(room):
    with pytest.raises(SchemaError):
        environment_from_dict(_one_room_document(**room))


@pytest.mark.parametrize("key, value", [
    ("floors", None), ("rooms", None), ("categories", None), ("placements", "x"),
    ("place_words", ["a"]), ("floors", [1]), ("place_words", {"kitchen": "pan"}),
])
def test_untyped_environment_containers_are_schema_errors(home, key, value):
    data = environment_to_dict(home)
    data[key] = value
    with pytest.raises(SchemaError, match=key):
        environment_from_dict(data)


@pytest.mark.parametrize("key, value", [("name", None), ("floor", ["1F"])])
def test_untyped_room_names_are_schema_errors(key, value):
    # The file's index names the room, whose name may be what is wrong.
    with pytest.raises(SchemaError, match=rf"^rooms\[0\]: room .*{key} must be a str"):
        environment_from_dict(_one_room_document(**{key: value}))


def test_built_environment_checks_room_footprints():
    with pytest.raises(SchemaError, match="room 'a': center"):
        Environment(["1F"], [Room("a", "1F", (float("nan"), 0.0))], {}, {}, {})
    # Integer coordinates, as JSON often writes them, and singular scatters are fine.
    Environment(["1F"], [Room("a", "1F", (0, 1), ((1, 0), (0, 2))),
                         Room("b", "1F", (0.0, 1.0), ((1.0, 1.0), (1.0, 1.0)))], {}, {}, {})


@pytest.mark.parametrize("fields, where", [
    ({"placements": {"x": ["a"]}}, "placements"),
    ({"placements": "x"}, "placements"),
    ({"categories": {"x": 1}}, "categories"),
    ({"place_words": []}, "place_words"),
    # A room checks its own fields, so these raise as the room is built, before the environment is.
    pytest.param(lambda: {"rooms": [Room(3, "1F", (0.0, 0.0))]}, "room name must be a str",
                 id="fields4-rooms[0].name"),
    pytest.param(lambda: {"rooms": [Room("a", ["1F"], (0.0, 0.0))]}, "room 'a': floor must be a str",
                 id="fields5-rooms[0].floor"),
    pytest.param(lambda: {"rooms": [Room("a", "1F", 3)]}, "room 'a': center must be two finite numbers",
                 id="fields6-rooms[0].center"),
    pytest.param(lambda: {"rooms": [Room("a", "1F", (0.0, 0.0), 5)]}, "room 'a': scatter must be",
                 id="fields7-rooms[0].scatter"),
    pytest.param(lambda: {"rooms": [Room("a", "1F", (0.0, 0.0), (1.0, 1.0))]}, "room 'a': scatter must be",
                 id="fields8-rooms[0].scatter"),
])
def test_a_built_environment_rejects_untyped_tables(fields, where):
    valid = {"floors": ["1F"], "rooms": [Room("a", "1F", (0.0, 0.0))], "placements": {}, "categories": {},
             "place_words": {}}
    with pytest.raises(SchemaError, match=re.escape(where)):
        Environment(**{**valid, **(fields() if callable(fields) else fields)})


def test_a_room_keeps_no_reference_to_the_callers_lists():
    center, scatter = [1.0, 2.0], [[1.0, 0.0], [0.0, 1.0]]
    room = Room("a", "1F", center, scatter)
    env = Environment(["1F"], [room], {}, {}, {"a": ["a"]})
    assert (room.center, room.scatter) == ((1.0, 2.0), ((1.0, 0.0), (0.0, 1.0)))
    center[0], scatter[0][0], scatter[1] = float("nan"), -1.0, [5.0]
    assert env.room("a") is room and (room.center, room.scatter) == ((1.0, 2.0), ((1.0, 0.0), (0.0, 1.0)))
    robot = sure_robot(room="a")
    session = observe_session(env, robot, "a", np.random.default_rng(0))
    assert np.isfinite(session.position).all()


def test_unknown_builtin_or_path():
    with pytest.raises(SchemaError):
        load_environment("no_such_environment")


def test_detection_succeeds_deterministically(home):
    world = World(home, [sure_robot()], seed=0)
    assert world.step_skill("Robot1", "object_detection", "apple").succeeded


def test_cross_floor_navigation_always_fails(home):
    world = World(home, [sure_robot()], seed=0)
    outcome = world.step_skill("Robot1", "navigation", "parent_room")
    assert outcome.status == "failed"
    assert outcome.detail == "floor_barrier"
    assert world.robots["Robot1"].current_room == "kitchen"


def test_unknown_room_and_object_are_typed_errors(home):
    world = World(home, [sure_robot()], seed=0)
    with pytest.raises(UnknownRoomError):
        world.step_skill("Robot1", "navigation", "garage")
    with pytest.raises(UnknownLabelError):
        world.step_skill("Robot1", "object_detection", "unicorn")


def test_unknown_skill_is_planning_error(home):
    world = World(home, [sure_robot(p_navigate=0.5)], seed=0)
    with pytest.raises(PlanningError, match="unknown skill 'teleport'"):
        world.step_skill("Robot1", "teleport", "kitchen")
    assert world.robots["Robot1"].current_room == "kitchen"
    assert world._streams == {}
    # The robot's next draw is still its first.
    details = [world.step_skill("Robot1", "navigation", "dining").detail for _ in range(3)]
    assert details == [None if u < 0.5 else "navigation_failed" for u in scalar_draws(0, 3)]


@pytest.mark.parametrize("value", [-0.1, 1.5, float("nan"), float("inf"), "0.5", None, True])
def test_a_bad_skill_probability_is_a_configuration_error(value):
    # A bool is refused, as by every other number check: True is not the probability 1.
    with pytest.raises(ConfigurationError, match=r"^p_pick must be a number in \[0, 1\], got "):
        sure_robot(p_pick=value)


def test_a_world_rejects_a_skill_probability_set_after_construction(home):
    # RobotState is mutable: the world re-checks every robot it copies, and nothing else catches this.
    robot = sure_robot()
    robot.p_pick = 5.0
    with pytest.raises(ConfigurationError, match=r"^p_pick must be a number in \[0, 1\], got 5.0$"):
        World(home, [robot])


def test_duplicate_robot_ids_are_schema_error(home):
    with pytest.raises(SchemaError, match="duplicate robot ids"):
        World(home, [sure_robot(), sure_robot(floor="2F", room="child_room")])


def test_pick_requires_detection_and_empty_gripper(home):
    world = World(home, [sure_robot()], seed=0)
    assert world.step_skill("Robot1", "pick", "apple").detail == "not_detected"
    world.step_skill("Robot1", "object_detection", "apple")
    assert world.step_skill("Robot1", "pick", "apple").succeeded
    world.step_skill("Robot1", "object_detection", "orange")
    assert world.step_skill("Robot1", "pick", "orange").detail == "gripper_occupied"


def test_place_requires_held_object(home):
    world = World(home, [sure_robot()], seed=0)
    assert world.step_skill("Robot1", "place", GATHER).detail == "no_object_held"


def test_place_happens_only_where_the_robot_is(home):
    world = World(home, [sure_robot()], seed=0)
    world.step_skill("Robot1", "object_detection", "apple")
    assert world.step_skill("Robot1", "pick", "apple").succeeded
    for elsewhere in ("front_of_stairs", "dining", GATHER):  # another floor, another room, the drop-off
        outcome = world.step_skill("Robot1", "place", elsewhere)
        assert (outcome.status, outcome.detail) == ("failed", "not_at_location")
        assert world.robots["Robot1"].held_object == "apple"
        assert world.object_rooms["apple"] is None
    assert world.step_skill("Robot1", "place", "kitchen").succeeded
    assert world.object_rooms["apple"] == "kitchen"
    world.check_conservation()


def test_canonical_fetch_sequence_succeeds(home):
    world = World(home, [sure_robot(room="entrance")], seed=0)
    for skill, arg in [("navigation", "kitchen"), ("object_detection", "apple"),
                       ("pick", "apple"), ("navigation", GATHER), ("place", GATHER)]:
        assert world.step_skill("Robot1", skill, arg).succeeded
    assert world.object_rooms["apple"] == GATHER
    world.check_conservation()


def test_pick_success_rate_matches_probability(home):
    world = World(home, [sure_robot(p_pick=0.5)], seed=1234)
    world.step_skill("Robot1", "object_detection", "apple")
    successes = 0
    trials = 10_000
    for _ in range(trials):
        if world.step_skill("Robot1", "pick", "apple").succeeded:
            successes += 1
            assert world.step_skill("Robot1", "place", "kitchen").succeeded
    assert 0.48 <= successes / trials <= 0.52


def test_identical_seeds_give_identical_outcomes(home):
    def roll(seed):
        world = World(home, [sure_robot(p_pick=0.5, p_navigate=0.7)], seed=seed)
        outcomes = []
        for _ in range(50):
            outcomes.append(world.step_skill("Robot1", "navigation", "dining").status)
        return outcomes

    assert roll(9) == roll(9)
    assert roll(9) != roll(10)  # overwhelmingly likely for 50 Bernoulli draws


@given(st.lists(st.tuples(st.sampled_from(["navigation", "object_detection", "pick", "place"]),
                          st.integers(0, 6)),
                max_size=40),
       st.integers(0, 1000))
@settings(max_examples=60)
def test_conservation_and_floor_barrier_under_random_skills(script, seed):
    env = load_environment("paper_home")
    rooms = [r.name for r in env.rooms] + [GATHER]
    objects = sorted(env.placements)
    world = World(env, [
        sure_robot("Robot1", "1F", "kitchen", p_pick=0.7, p_place=0.8),
        sure_robot("Robot2", "2F", "parent_room", p_pick=0.7, p_place=0.8),
    ], seed=seed)
    for i, (skill, arg_idx) in enumerate(script):
        robot_id = "Robot1" if i % 2 == 0 else "Robot2"
        if skill == "navigation" or skill == "place":
            arg = rooms[arg_idx % len(rooms)]
        else:
            arg = objects[arg_idx % len(objects)]
        world.step_skill(robot_id, skill, arg)
        world.check_conservation()
        for robot in world.robots.values():
            if robot.current_room != GATHER:
                assert env.floor_of_room(robot.current_room) == robot.floor


# Robot ids out of name order, on both floors, so that a generator found by
# name rather than by list position draws another robot's stream.
_LAZY_ROBOTS = (("Rc", "2F", "bathroom"), ("Ra", "1F", "kitchen"),
                ("Rd", "1F", "dining"), ("Rb", "2F", "corridor"))
_STEP = st.tuples(st.integers(0, len(_LAZY_ROBOTS) - 1),
                  st.sampled_from(["navigation", "object_detection", "pick", "place"]),
                  st.integers(0, 40))


@given(st.integers(1, len(_LAZY_ROBOTS)), st.integers(0, 2**32),
       st.lists(st.one_of(_STEP, st.integers(0, 2**32)), max_size=60))
@settings(max_examples=80)
def test_lazy_generators_draw_the_eagerly_spawned_streams(n_robots, seed, script):
    """Steps of any subset of robots, in any order, with reseeds (the integers) between them."""
    env = load_environment("paper_home")
    locations = [r.name for r in env.rooms] + [GATHER]
    objects = sorted(env.placements)
    robots = [sure_robot(rid, floor, room, p_navigate=0.7, p_detect_present=0.6, p_pick=0.6, p_place=0.7)
              for rid, floor, room in _LAZY_ROBOTS[:n_robots]]
    lazy, eager = World(env, robots, seed=seed), EagerSeedWorld(env, robots, seed=seed)
    for action in script:
        if isinstance(action, int):
            lazy.reseed(action)
            eager.reseed(action)
            continue
        index, skill, arg = action
        rid = robots[index % n_robots].robot_id
        pool = locations if skill in ("navigation", "place") else objects
        arg = pool[arg % len(pool)]
        assert lazy.step_skill(rid, skill, arg) == eager.step_skill(rid, skill, arg)
    assert lazy.robots == eager.robots
    assert lazy.object_rooms == eager.object_rooms


def _linear_room(env, name):
    for r in env.rooms:
        if r.name == name:
            return r
    return None


@pytest.mark.parametrize("env_name", sorted(BUILTIN_ENVIRONMENTS))
def test_room_lookups_match_a_linear_scan(env_name):
    env = load_environment(env_name)
    names = [r.name for r in env.rooms] + [GATHER, "garage", "", "Kitchen", "kitchen "]
    for name in names:
        expected = _linear_room(env, name)
        assert env.has_room(name) == (expected is not None)
        if expected is None:
            with pytest.raises(UnknownRoomError):
                env.room(name)
            with pytest.raises(UnknownRoomError):
                env.floor_of_room(name)
        else:
            assert env.room(name) is expected
            assert env.floor_of_room(name) == expected.floor


@pytest.mark.parametrize("change, error", [
    pytest.param(lambda env: env.rooms.append(Room("kitchen", "1F", (0.0, 0.0))), AttributeError, id="append-room"),
    pytest.param(lambda env: env.floors.append("3F"), AttributeError, id="append-floor"),
    pytest.param(lambda env: operator.setitem(env.placements, "apple", "bathroom"), TypeError, id="move-object"),
    pytest.param(lambda env: env.categories.clear(), AttributeError, id="clear-categories"),
    pytest.param(lambda env: env.place_words["kitchen"].append("oven"), AttributeError, id="add-place-word"),
    pytest.param(lambda env: setattr(env, "rooms", []), FrozenInstanceError, id="assign-rooms"),
    pytest.param(lambda env: replace(env, rooms=[*env.rooms, Room("kitchen", "1F", (0.0, 0.0))]), SchemaError,
                 id="replace-with-duplicate-room"),
])
def test_a_built_environment_cannot_change(home, change, error):
    before = environment_to_dict(home)
    with pytest.raises(error):
        change(home)
    assert environment_to_dict(home) == before
    assert [r.name for r in home.rooms_on("1F")] == ["entrance", "dining", "living_room", "office_room", "kitchen"]


def test_an_environment_copies_the_tables_it_is_given(home):
    tables = environment_to_dict(home)
    env = Environment(floors=tables["floors"], rooms=list(home.rooms), placements=tables["placements"],
                      categories=tables["categories"], place_words=tables["place_words"])
    tables["placements"]["apple"] = "bathroom"
    tables["place_words"]["kitchen"].append("oven")
    tables["floors"].append("3F")
    assert env == home
    assert env.floor_of_object("apple") == "1F" and "oven" not in env.place_words["kitchen"]


def test_replaced_environment_looks_up_its_new_rooms(home):
    renamed = {r.name: f"new_{r.name}" for r in home.rooms_on("2F")}
    home = replace(home, rooms=[replace(r, name=renamed.get(r.name, r.name)) for r in home.rooms],
                   placements={o: renamed.get(room, room) for o, room in home.placements.items()}, place_words={})
    assert home.has_room("new_bathroom") and not home.has_room("bathroom")
    assert home.floor_of_room("new_bathroom") == "2F"
    assert home.floor_of_object("banana") == "2F"


def test_observe_session_deterministic_limit(home):
    env_dict = environment_to_dict(home)
    for room in env_dict["rooms"]:
        room["scatter"] = [[0.0, 0.0], [0.0, 0.0]]
    env = environment_from_dict(env_dict)
    robot = sure_robot()
    session = observe_session(env, robot, "kitchen", np.random.default_rng(0))
    np.testing.assert_allclose(session.position, env.room("kitchen").center)
    expected = sorted(o for o, r in env.placements.items() if r == "kitchen")
    assert session.object_labels == tuple(expected)
    assert 1 <= len(session.place_words) <= 3
    assert set(session.place_words) <= set(env.place_words["kitchen"])


def _homes_with_edge_scatters():
    """Both builtin homes, and paper_home with random centres on an all-zero, two rank-1 and two
    random full-rank scatters; none places objects or names rooms, so a session draws only its
    position."""
    rng = np.random.default_rng(11)
    edges = [[[0.0, 0.0], [0.0, 0.0]], [[1.0, 2.0], [2.0, 4.0]], [[0.25, -0.5], [-0.5, 1.0]]]
    for _ in range(2):
        a = rng.normal(size=(2, 2))
        edges.append((a @ a.T).tolist())
    docs = [environment_to_dict(load_environment(name)) for name in sorted(BUILTIN_ENVIRONMENTS)]
    docs.append(environment_to_dict(load_environment("paper_home")))
    for room, scatter in zip(docs[-1]["rooms"], edges):
        room["center"], room["scatter"] = rng.normal(scale=5.0, size=2).tolist(), scatter
    for doc in docs:
        doc["placements"], doc["place_words"] = {}, {}
        yield environment_from_dict(doc)


def test_observe_session_draws_what_multivariate_normal_draws():
    # multivariate_normal is the oracle: the same positions, bit for bit, and the same
    # generator state after each draw, so the label and word draws that follow are unchanged.
    for env in _homes_with_edge_scatters():
        for room in env.rooms:
            rng, oracle = np.random.default_rng(5), np.random.default_rng(5)
            robot = sure_robot(floor=room.floor, room=room.name)
            for _ in range(20):
                position = observe_session(env, robot, room.name, rng).position
                expected = oracle.multivariate_normal(room.center, room.scatter, check_valid="ignore")
                assert position.shape == expected.shape and position.dtype == expected.dtype
                np.testing.assert_array_equal(position, expected, err_msg=room.name)
            assert rng.random() == oracle.random()


def test_observe_session_cross_floor_is_error(home):
    with pytest.raises(FloorAccessError):
        observe_session(home, sure_robot(), "parent_room", np.random.default_rng(0))


def test_protocol_session_count(home):
    robot = sure_robot(room="entrance")
    sessions = generate_floor_sessions(home, robot, np.random.default_rng(0), visits_per_room=30)
    assert len(sessions) == 150
    assert sessions[0].room_hint == "entrance"
    assert sessions[-1].room_hint == "kitchen"


@pytest.mark.parametrize("visits", [0, -3])
def test_protocol_rejects_a_visit_count_below_one(home, visits):
    with pytest.raises(ConfigurationError, match=f"visits_per_room must be an integer >= 1, got {visits}"):
        generate_floor_sessions(home, sure_robot(), np.random.default_rng(0), visits_per_room=visits)


@pytest.mark.parametrize("count", [True, 2.0], ids=["bool", "float"])
@pytest.mark.parametrize("build, error", [
    (lambda n: generate_floor_sessions(paper_home(), sure_robot(), np.random.default_rng(0), visits_per_room=n),
     ConfigurationError),
    (lambda n: ExecutionPolicy(max_retries_per_skill=n), ConfigurationError),
    (lambda n: Hyperparameters(lag_window=n), SchemaError),
], ids=["visits_per_room", "max_retries_per_skill", "lag_window"])
def test_a_count_is_an_int_not_a_bool(build, error, count):
    # A bool or a float count is refused where it is given, not used as 1 or failed on later.
    with pytest.raises(error, match="must be an integer"):
        build(count)


def test_sampled_positions_center_on_room_mean(home):
    robot = sure_robot()
    rng = np.random.default_rng(3)
    n = 10_000
    positions = np.array([observe_session(home, robot, "kitchen", rng).position for _ in range(n)])
    center = home.room("kitchen").center
    sigma = np.sqrt(home.room("kitchen").scatter[0][0])
    assert np.all(np.abs(positions.mean(axis=0) - center) < 3 * sigma / np.sqrt(n))


def test_reserved_gather_name_rejected():
    with pytest.raises(SchemaError, match="reserved"):
        Environment(
            floors=["1F"],
            rooms=[Room(GATHER, "1F", (0.0, 0.0))],
            placements={}, categories={}, place_words={},
        )


def test_a_pick_fails_once_another_robot_has_taken_the_object(home):
    world = World(home, [sure_robot("Robot1"), sure_robot("Robot3")], seed=0)
    for rid in ("Robot1", "Robot3"):
        assert world.step_skill(rid, "object_detection", "apple").detail == "detected"
    assert world.step_skill("Robot3", "pick", "apple").succeeded
    assert world.step_skill("Robot1", "pick", "apple").detail == "object_not_present"
    world.check_conservation()


@pytest.mark.parametrize("seed", [0, 7, 123])
def test_a_detection_draws_once_whether_or_not_the_object_is_there(home, seed):
    world = World(home, [sure_robot(p_detect_present=0.5)], seed=seed)
    # Banana is on the other floor, apple in Robot1's kitchen.
    details = [world.step_skill("Robot1", "object_detection", "banana" if i % 2 == 0 else "apple").detail
               for i in range(STREAM_STEPS)]
    assert details == ["detected" if i % 2 and u < 0.5 else "not_found"
                       for i, u in enumerate(scalar_draws(seed, STREAM_STEPS))]


@pytest.mark.parametrize("seed", [0, 7, 123])
def test_navigations_take_the_scalar_draws_across_blocks(home, seed):
    world = World(home, [sure_robot(p_navigate=0.5)], seed=seed)
    details = [world.step_skill("Robot1", "navigation", "dining").detail for _ in range(STREAM_STEPS)]
    assert details == [None if u < 0.5 else "navigation_failed" for u in scalar_draws(seed, STREAM_STEPS)]


@pytest.mark.parametrize("seed", [0, 7, 123])
def test_picks_take_the_scalar_draws_and_failed_preconditions_draw_none(home, seed):
    world = World(home, [sure_robot(p_pick=0.5)], seed=seed)
    draws = iter(scalar_draws(seed, 3 * STREAM_STEPS + 1))
    for _ in range(STREAM_STEPS):
        assert world.step_skill("Robot1", "pick", "orange").detail == "not_detected"
        assert world.step_skill("Robot1", "object_detection", "apple").detail == "detected"
        next(draws)
        if next(draws) < 0.5:
            assert world.step_skill("Robot1", "pick", "apple").succeeded
            assert world.step_skill("Robot1", "pick", "apple").detail == "gripper_occupied"
            assert world.step_skill("Robot1", "place", "kitchen").succeeded
            next(draws)
        else:
            assert world.step_skill("Robot1", "pick", "apple").detail == "grasp_failed"
    assert next(world._streams["Robot1"]) == next(draws)


@pytest.mark.parametrize("seed", [0, 7, 123])
def test_places_take_the_scalar_draws_and_failed_preconditions_draw_none(home, seed):
    world = World(home, [sure_robot(p_place=0.5)], seed=seed)
    draws = iter(scalar_draws(seed, 3 * STREAM_STEPS + 1))
    places = 0
    while places < STREAM_STEPS:
        assert world.step_skill("Robot1", "place", "kitchen").detail == "no_object_held"
        for skill in ("object_detection", "pick"):
            assert world.step_skill("Robot1", skill, "apple").succeeded
            next(draws)
        assert world.step_skill("Robot1", "place", "dining").detail == "not_at_location"
        while next(draws) >= 0.5:
            assert world.step_skill("Robot1", "place", "kitchen").detail == "place_failed"
            places += 1
        assert world.step_skill("Robot1", "place", "kitchen").succeeded
        places += 1
    assert next(world._streams["Robot1"]) == next(draws)


@pytest.mark.parametrize("new_seed", [3, 11])
def test_a_reseed_in_the_middle_of_a_block_restarts_the_stream(home, new_seed):
    world = World(home, [sure_robot(p_navigate=0.5)], seed=3)
    for _ in range(_BLOCK // 2 + 3):
        world.step_skill("Robot1", "navigation", "dining")
    world.reseed(new_seed)
    details = [world.step_skill("Robot1", "navigation", "dining").detail for _ in range(STREAM_STEPS)]
    assert details == [None if u < 0.5 else "navigation_failed" for u in scalar_draws(new_seed, STREAM_STEPS)]


def test_a_robot_starts_with_an_empty_gripper():
    # Nothing builds a robot that already holds an object: one that held the placed apple, or
    # an unknown object, would break conservation before the first skill.
    assert RobotState("R", "1F", "kitchen").held_object is None
    with pytest.raises(TypeError, match="held_object"):
        RobotState("R", "1F", "kitchen", held_object="apple")


def test_worlds_do_not_share_the_callers_robots(home):
    from homeplan.experiment import default_robots

    robots = [replace(r, p_detect_present=1.0, p_pick=1.0) for r in default_robots(home)]
    first = World(home, robots, seed=0)
    for skill, arg in (("navigation", "kitchen"), ("object_detection", "apple"), ("pick", "apple")):
        assert first.step_skill("Robot1", skill, arg).succeeded
    assert first.robots["Robot1"].held_object == "apple"

    second = World(home, robots, seed=0)
    second.check_conservation()
    assert second.robots["Robot1"].current_room == "entrance"
    assert second.robots["Robot1"].held_object is None
    assert [(r.current_room, r.held_object) for r in robots] == [("entrance", None),
                                                                  ("front_of_stairs", None)]
