import hashlib
import json
from dataclasses import FrozenInstanceError, replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from homeplan.errors import ConfigurationError, FloorAccessError, PlanningError, UnknownLabelError, UnknownRoomError
from homeplan.experiment import default_robots
from homeplan.executor import (
    SUBTASK_FAILED,
    SUBTASK_SUCCEEDED,
    ExecutionPolicy,
    ExecutionTrace,
    TraceStep,
    run_assignments,
    traces_to_jsonl,
)
from homeplan.knowledge import KnowledgeBase, knowledge_from_environment
from homeplan.planner import Assignment, Subtask
from homeplan.world import GATHER, RobotState, SkillOutcome, World, load_environment

from conftest import reference_run_assignments, scripted_run, skill_sequence


def sure_robot(robot_id, floor, room, **overrides):
    probs = dict(p_navigate=1.0, p_detect_present=1.0, p_pick=1.0, p_place=1.0)
    probs.update(overrides)
    return RobotState(robot_id=robot_id, floor=floor, current_room=room, **probs)


def arena_world(seed=0, **overrides):
    env = load_environment("robocup_arena")
    robot = sure_robot("Robot2", "zone2", "corridor", **overrides)
    return env, World(env, [robot], seed=seed)


def test_happy_path_is_five_steps():
    env, world = arena_world()
    kb = knowledge_from_environment(env, "zone2", "Robot2")
    assignment = Assignment(Subtask("bring", "cup"), "Robot2")
    [trace] = run_assignments(world, [assignment], [kb])
    assert trace.result == SUBTASK_SUCCEEDED
    assert skill_sequence(trace) == [
        ("navigation", "kitchen"),
        ("object_detection", "cup"),
        ("pick", "cup"),
        ("navigation", GATHER),
        ("place", GATHER),
    ]
    assert trace.rooms_visited == ["kitchen", GATHER]


def test_scripted_pick_fails_once_then_succeeds():
    ok = SkillOutcome("succeeded")
    fail = SkillOutcome("failed", "grasp_failed")
    trace = scripted_run("cup", ["living_room"], [ok, ok, fail, ok, ok, ok],
                         destination="kitchen")
    skills = [s for s, _ in skill_sequence(trace)]
    assert skills == ["navigation", "object_detection", "pick", "pick", "navigation", "place"]
    assert skills.count("pick") == 2
    assert trace.result == SUBTASK_SUCCEEDED


@pytest.mark.parametrize("rooms, retries", [(["r1", "r2"], 2), (["r1", "r2", "r3", "r4"], 1)],
                         ids=["2_rooms", "4_rooms"])
def test_absent_object_visits_every_room_once(rooms, retries):
    outcomes = []
    for _ in rooms:
        outcomes.append(SkillOutcome("succeeded"))  # navigation
        outcomes.extend([SkillOutcome("failed", "not_found")] * (retries + 1))
    # Only the knowledge base's rooms are searched: a further step would find no scripted outcome.
    trace = scripted_run("ghost", rooms, outcomes, retries=retries)
    assert trace.result == SUBTASK_FAILED
    assert trace.rooms_visited == rooms
    assert len(trace.steps) == len(outcomes)
    nav_args = [a for s, a in skill_sequence(trace) if s == "navigation"]
    assert nav_args == rooms


def test_navigation_exhaustion_advances_to_next_room():
    fail = SkillOutcome("failed", "navigation_failed")
    ok = SkillOutcome("succeeded")
    # Room r1 unreachable after all retries; r2 works end to end.
    outcomes = [fail, fail, ok, ok, ok, ok, ok]
    trace = scripted_run("cup", ["r1", "r2"], outcomes, retries=1)
    assert trace.result == SUBTASK_SUCCEEDED
    assert trace.rooms_visited == ["r2", GATHER]
    nav_args = [a for s, a in skill_sequence(trace) if s == "navigation"]
    assert nav_args == ["r1", "r1", "r2", GATHER]


def test_result_and_rooms_are_read_off_the_steps():
    ok, fail = SkillOutcome("succeeded"), SkillOutcome("failed", "x")
    trace = ExecutionTrace("T", "cup", [TraceStep("navigation", "r1", fail), TraceStep("navigation", "r2", ok)])
    # Cut short after a successful navigation: only a successful final place is a success.
    assert trace.result == SUBTASK_FAILED
    assert trace.rooms_visited == ["r2"]
    trace.steps += [TraceStep("object_detection", "cup", ok), TraceStep("pick", "cup", ok),
                    TraceStep("navigation", GATHER, ok), TraceStep("place", GATHER, fail)]
    assert trace.result == SUBTASK_FAILED
    trace.steps.append(TraceStep("place", GATHER, ok))
    assert trace.result == SUBTASK_SUCCEEDED
    assert trace.rooms_visited == ["r2", GATHER]


def test_search_order_is_descending_presence(kb_robot2):
    order = kb_robot2.search_order("banana")
    assert order[0] == "parent_room"
    assert order[1] == "corridor"
    assert set(order) == set(kb_robot2.room_names)


# Only valid rows: a knowledge base rejects negative, non-finite and overflowing ones when built.
_PRESENCE = st.one_of(st.sampled_from([0.0, -0.0, 0.25, 0.5, 1.0, 5e-324]),
                     st.floats(min_value=0.0, max_value=1e300), st.integers(0, 3))


@given(st.lists(_PRESENCE, min_size=1, max_size=9))
@example([0.0, -0.0, 0.5, -0.0, 0.5, 0.0, 1])
@settings(max_examples=300)
def test_search_order_is_a_stable_descending_argsort(row):
    rooms = [f"room{i}" for i in range(len(row))]
    kb = KnowledgeBase(robot_id="T", room_names=rooms, place_vocab=[[] for _ in rooms],
                       presence_table={"x": row})
    expected = np.argsort(-np.asarray(row, dtype=float), kind="stable")
    assert kb.search_order("x") == tuple(rooms[i] for i in expected)


def test_unknown_destination_raises_before_any_skill():
    env, world = arena_world()
    kb = knowledge_from_environment(env, "zone2", "Robot2")
    assignment = Assignment(Subtask("bring", "cup", destination="mars"), "Robot2")
    before = dict(world.object_rooms)
    with pytest.raises(PlanningError, match="^assignment 0: unknown destination 'mars'$") as excinfo:
        run_assignments(world, [assignment], [kb])
    assert isinstance(excinfo.value.__cause__, UnknownRoomError)
    assert world.object_rooms == before


def test_object_missing_from_kb_without_room_order():
    env, world = arena_world()
    kb = knowledge_from_environment(env, "zone2", "Robot2")
    assignment = Assignment(Subtask("bring", "bag"), "Robot2")  # bag is zone1 knowledge
    with pytest.raises(PlanningError, match="^assignment 0: object 'bag' is not in the knowledge base$") as excinfo:
        run_assignments(world, [assignment], [kb])
    assert type(excinfo.value.__cause__) is PlanningError
    # A knowledge base that lists it unblocks it; every room is searched and detection fails honestly.
    kb = replace(kb, presence_table={**kb.presence_table, "bag": [1.0] * len(kb.room_names)})
    [trace] = run_assignments(world, [assignment], [kb])
    assert trace.result == SUBTASK_FAILED
    assert trace.rooms_visited == list(kb.room_names)


def test_mismatched_robot_id_rejected():
    # An assignment for a robot the world does not have is a setup error.
    env, world = arena_world()
    kb = knowledge_from_environment(env, "zone2", "Robot2")
    with pytest.raises(PlanningError, match="^assignment 0: unknown robot 'Robot1'$") as excinfo:
        run_assignments(world, [Assignment(Subtask("bring", "cup"), "Robot1")], [kb])
    assert type(excinfo.value.__cause__) is PlanningError


@given(st.lists(st.booleans(), min_size=0, max_size=60),
       st.integers(0, 2), st.integers(1, 4))
@settings(max_examples=80)
def test_bounded_liveness_and_legality(outcome_bits, retries, n_rooms):
    rooms = ["r1", "r2", "r3", "r4"][:n_rooms]
    outcomes = [SkillOutcome("succeeded") if b else SkillOutcome("failed", "x")
                for b in outcome_bits]
    outcomes += [SkillOutcome("failed", "x")] * 400  # pad so the machine always terminates
    trace = scripted_run("obj", rooms, outcomes, retries=retries)

    assert len(trace.steps) <= (retries + 1) * 5 * n_rooms

    # Legality: within one room visit, pick only after a successful detect;
    # place only after a successful pick.
    detected = False
    picked = False
    for step in trace.steps:
        if step.skill == "navigation" and not picked:
            detected = False
        if step.skill == "pick":
            assert detected
        if step.skill == "place":
            assert picked
        if step.outcome.succeeded:
            if step.skill == "object_detection":
                detected = True
            elif step.skill == "pick":
                picked = True

    if trace.result == SUBTASK_SUCCEEDED:
        assert trace.steps[-1].skill == "place"
        assert trace.steps[-1].outcome.succeeded


def test_replaying_outcomes_reproduces_skill_sequence():
    env, world = arena_world(seed=11, p_pick=0.4, p_detect_present=0.7)
    kb = knowledge_from_environment(env, "zone2", "Robot2")
    assignment = Assignment(Subtask("bring", "water_bottle"), "Robot2")
    [trace] = run_assignments(world, [assignment], [kb])

    recorded = [step.outcome for step in trace.steps]
    replay = scripted_run("water_bottle", kb.search_order("water_bottle"), recorded)
    assert skill_sequence(replay) == skill_sequence(trace)
    assert replay.result == trace.result


def test_run_assignments_empty():
    env, world = arena_world()
    assert run_assignments(world, [], []) == []


def test_back_to_back_subtasks_on_one_robot():
    env, world = arena_world()
    kb = knowledge_from_environment(env, "zone2", "Robot2")
    assignments = [
        Assignment(Subtask("bring", "cup"), "Robot2"),
        Assignment(Subtask("bring", "water_bottle"), "Robot2"),
    ]
    traces = run_assignments(world, assignments, [kb])
    assert [t.result for t in traces] == [SUBTASK_SUCCEEDED] * 2
    combined = skill_sequence(traces[0]) + skill_sequence(traces[1])
    assert combined == [
        ("navigation", "kitchen"), ("object_detection", "cup"), ("pick", "cup"),
        ("navigation", GATHER), ("place", GATHER),
        ("navigation", "kitchen"), ("object_detection", "water_bottle"),
        ("pick", "water_bottle"), ("navigation", GATHER), ("place", GATHER),
    ]


def test_interleaving_matches_sequential_for_disjoint_robots():
    env = load_environment("paper_home")

    def fresh_world():
        return World(env, [
            sure_robot("Robot1", "1F", "entrance", p_pick=0.6, p_detect_present=0.8),
            sure_robot("Robot2", "2F", "front_of_stairs", p_pick=0.6, p_detect_present=0.8),
        ], seed=21)

    kbs = [knowledge_from_environment(env, "1F", "Robot1"),
           knowledge_from_environment(env, "2F", "Robot2")]
    assignments = [
        Assignment(Subtask("bring", "apple"), "Robot1"),
        Assignment(Subtask("bring", "banana"), "Robot2"),
    ]

    interleaved = run_assignments(fresh_world(), assignments, kbs)

    world = fresh_world()
    sequential = [
        *run_assignments(world, [assignments[0]], [kbs[0]]),
        *run_assignments(world, [assignments[1]], [kbs[1]]),
    ]
    for a, b in zip(interleaved, sequential):
        assert skill_sequence(a) == skill_sequence(b)
        assert [s.outcome for s in a.steps] == [s.outcome for s in b.steps]
        assert a.result == b.result


def test_a_setup_error_runs_no_assignment_of_the_batch():
    env, world = arena_world()
    kb = knowledge_from_environment(env, "zone2", "Robot2")
    assignments = [
        Assignment(Subtask("bring", "water_bottle"), "Robot2"),
        Assignment(Subtask("bring", "cup", destination="mars"), "Robot2"),
    ]
    objects, robot = dict(world.object_rooms), vars(world.robots["Robot2"]).copy()
    with pytest.raises(PlanningError, match="^assignment 1: unknown destination 'mars'$"):
        run_assignments(world, assignments, [kb])
    # The valid first assignment did not run: no object moved, no robot stepped, no stream was started.
    assert world.object_rooms == objects
    assert vars(world.robots["Robot2"]) == robot
    assert world._streams == {}


def test_traces_to_jsonl_shape():
    env, world = arena_world()
    kb = knowledge_from_environment(env, "zone2", "Robot2")
    assignments = [
        Assignment(Subtask("bring", "cup"), "Robot2"),
        Assignment(Subtask("bring", "water_bottle"), "Robot2"),
    ]
    traces = run_assignments(world, assignments, [kb])
    lines = traces_to_jsonl(traces).splitlines()
    records = [json.loads(line) for line in lines]
    assert len(records) == 10
    assert [r["index"] for r in records] == list(range(1, 11))
    assert records[0] == {"robot_id": "Robot2", "index": 1, "skill": "navigation",
                          "argument": "kitchen", "status": "succeeded", "detail": None}


HOME = load_environment("paper_home")
HOME_ROOMS = [r.name for r in HOME.rooms]
# Robot1 and Robot3 share the first floor, so their turns contend for its objects.
FLEET = {"Robot1": ("1F", "entrance"), "Robot2": ("2F", "front_of_stairs"), "Robot3": ("1F", "kitchen")}
probability = st.floats(0.3, 1.0)


@st.composite
def batches(draw):
    """Robots with random skill odds, a policy, assignments of which some cannot be set up, a KB style."""
    robots = [RobotState(robot_id=rid, floor=floor, current_room=room,
                         p_navigate=draw(probability), p_detect_present=draw(probability),
                         p_pick=draw(probability), p_place=draw(probability))
              for rid, (floor, room) in FLEET.items()]
    policy = ExecutionPolicy(max_retries_per_skill=draw(st.integers(0, 3)))
    assignments = []
    for _ in range(draw(st.integers(1, 6))):
        obj = draw(st.sampled_from(sorted(HOME.placements)))
        # Mostly a robot on the object's floor; sometimes one off it or one the world lacks.
        on_floor = [rid for rid, (floor, _) in FLEET.items() if floor == HOME.floor_of_object(obj)]
        robot_id = draw(st.sampled_from(on_floor * 10 + ["Robot2", "Robot9"]))
        destination = draw(st.sampled_from([None] * 8 + [GATHER, "kitchen", "child_room", "mars"]))
        assignments.append(Assignment(Subtask("bring", obj, destination), robot_id))
    style = draw(st.sampled_from(["truth"] * 3 + ["flat"] * 3 + ["reversed", "attic"]))
    return robots, policy, assignments, style


def _batch_kbs(style):
    """Each robot's floor knowledge, with true rows or with flat rows, which search in the KB's
    room order: its own rooms, every home room in reverse order (across floors), or its rooms
    and an ``attic`` the home lacks."""
    kbs = [knowledge_from_environment(HOME, floor, rid) for rid, (floor, _) in FLEET.items()]
    if style == "truth":
        return kbs
    flat = []
    for kb in kbs:
        rooms = {"flat": kb.room_names, "reversed": HOME_ROOMS[::-1], "attic": [*kb.room_names, "attic"]}[style]
        flat.append(KnowledgeBase(kb.robot_id, rooms, [[] for _ in rooms],
                                  {obj: [1.0] * len(rooms) for obj in kb.presence_table}))
    return flat


def _outcome_of(run, world, assignments, kbs, policy, seed):
    try:
        traces, error = run(world, assignments, kbs, policy=policy, seed=seed), None
    except PlanningError as exc:
        traces, error = [], str(exc)
    records = [(t.robot_id, t.target_object, t.steps, t.result, t.rooms_visited) for t in traces]
    robots = {rid: vars(r) for rid, r in world.robots.items()}
    return records, error, dict(world.object_rooms), robots


@given(batches(), st.integers(0, 2**31 - 1), st.sampled_from([None, 5, 123]))
@settings(max_examples=150)
def test_run_assignments_matches_the_reference_scheduler(batch, world_seed, seed):
    robots, policy, assignments, style = batch
    kbs = _batch_kbs(style)
    ours = _outcome_of(run_assignments, World(HOME, robots, seed=world_seed),
                       assignments, kbs, policy, seed)
    reference = _outcome_of(reference_run_assignments, World(HOME, robots, seed=world_seed),
                            assignments, kbs, policy, seed)
    assert ours == reference


def _home_world():
    robots = [sure_robot(rid, floor, room) for rid, (floor, room) in FLEET.items()]
    return World(HOME, robots, seed=0)


def _assert_fails_at_setup(world, assignments, kbs, message, cause=FloorAccessError):
    objects = dict(world.object_rooms)
    robots = {rid: vars(r).copy() for rid, r in world.robots.items()}
    with pytest.raises(PlanningError, match=f"^{message}$") as excinfo:
        run_assignments(world, assignments, kbs)
    assert isinstance(excinfo.value.__cause__, cause)
    # No skill ran: no object moved, no robot stepped, no stream was started.
    assert world.object_rooms == objects
    assert {rid: vars(r) for rid, r in world.robots.items()} == robots
    assert world._streams == {}


def test_a_destination_on_another_floor_fails_at_setup():
    kb = knowledge_from_environment(HOME, "1F", "Robot1")
    _assert_fails_at_setup(
        _home_world(), [Assignment(Subtask("bring", "apple", destination="child_room"), "Robot1")], [kb],
        "assignment 0: destination 'child_room' is on floor '2F', robot 'Robot1' is on '1F'")


def test_a_search_room_on_another_floor_fails_at_setup():
    # Robot1's knowledge base names the 2F rooms, so every room it would search is upstairs.
    rooms = [r.name for r in HOME.rooms_on("2F")]
    kb = KnowledgeBase("Robot1", rooms, [[] for _ in rooms], {"apple": [1.0] * len(rooms)})
    _assert_fails_at_setup(
        _home_world(), [Assignment(Subtask("bring", "banana"), "Robot2"),
                        Assignment(Subtask("bring", "apple"), "Robot1")],
        [knowledge_from_environment(HOME, "2F", "Robot2"), kb],
        "assignment 1: room 'front_of_stairs' in search order is on floor '2F', robot 'Robot1' is on '1F'")


def test_a_target_the_world_lacks_fails_at_setup():
    # Robot1's knowledge base has a row for the unicorn; the home has none.
    kb = knowledge_from_environment(HOME, "1F", "Robot1")
    kb = replace(kb, presence_table={**kb.presence_table, "unicorn": [1.0] * len(kb.room_names)})
    assignments = [Assignment(Subtask("bring", target), "Robot1") for target in ("apple", "unicorn")]
    message = "assignment 1: unknown object 'unicorn'"
    _assert_fails_at_setup(_home_world(), assignments, [kb], message, UnknownLabelError)
    with pytest.raises(PlanningError, match=f"^{message}$"):
        reference_run_assignments(_home_world(), assignments, [kb])


def test_knowledge_bases_that_share_a_robot_id_run_no_skill():
    env, world = arena_world()
    kbs = [knowledge_from_environment(env, "zone2", "Robot2"), knowledge_from_environment(env, "zone1", "Robot2")]
    objects, robot = dict(world.object_rooms), vars(world.robots["Robot2"]).copy()
    with pytest.raises(ConfigurationError, match="^several knowledge bases have robot_id Robot2$"):
        run_assignments(world, [Assignment(Subtask("bring", "cup"), "Robot2")], kbs)
    assert world.object_rooms == objects
    assert vars(world.robots["Robot2"]) == robot
    assert world._streams == {}


def test_a_negative_retry_budget_is_a_configuration_error():
    with pytest.raises(ConfigurationError, match="max_retries_per_skill must be an integer >= 0"):
        ExecutionPolicy(max_retries_per_skill=-1)


@pytest.mark.parametrize("value", [-1, "2"])
def test_a_built_policy_cannot_change(value):
    policy = ExecutionPolicy()
    with pytest.raises(FrozenInstanceError):
        policy.max_retries_per_skill = value
    assert policy.max_retries_per_skill == 2


# sha256 of a fixed paper_home batch's traces_to_jsonl, a newline and the final
# object_rooms as sorted JSON, at each world seed.  Any change to a robot's
# outcome stream, or to how the executor steps through it, moves these.
GOLDEN_DIGESTS = {
    0: "52a40fa777a2a57543e53e1375bd8d0ffbd0d04b951ae4a14a91b3ca34d48d41",
    7: "c410fc9d3959530f22ed9448c525c7e7c04f2ada8e657545cb53d3415aa6a9a7",
    123: "4123cc680a4a4bcf1eeac7b4a44b1afc170cc326883b0a73d34a0915834243ee",
}


@pytest.mark.parametrize("seed", sorted(GOLDEN_DIGESTS))
def test_golden_traces(seed):
    kbs = [knowledge_from_environment(HOME, "1F", "Robot1"), knowledge_from_environment(HOME, "2F", "Robot2")]
    batch = [Assignment(Subtask("bring", "apple"), "Robot1"), Assignment(Subtask("bring", "banana"), "Robot2"),
             Assignment(Subtask("bring", "towel", "kitchen"), "Robot1"), Assignment(Subtask("bring", "cup"), "Robot2"),
             Assignment(Subtask("bring", "tooth_paste"), "Robot1"),
             Assignment(Subtask("bring", "car_toy", "corridor"), "Robot2")]
    world = World(HOME, default_robots(HOME), seed=seed)
    traces = run_assignments(world, batch, kbs)
    text = traces_to_jsonl(traces) + "\n" + json.dumps(world.object_rooms, sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == GOLDEN_DIGESTS[seed]
