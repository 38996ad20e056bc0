import json
from unittest import mock

import pytest

from homeplan import experiment
from homeplan.errors import ConfigurationError, GenerationError, ScoringError
from homeplan.experiment import (
    REFERENCE_REPORTED,
    SUITE_CATEGORIES,
    SuiteConfig,
    best_room_recovery,
    build_suite_instructions,
    default_robots,
    floor_robot,
    generate_instructions,
    random_allocation_totals,
    run_field_trip_scenario,
    run_suite,
    score_allocations,
)
from homeplan.knowledge import knowledge_from_environment, save_knowledge
from homeplan.planner import Assignment, Subtask, allocate, decompose
from homeplan.world import CATEGORY_COMMON, CATEGORY_HARD, load_environment


@pytest.fixture(scope="module")
def home():
    return load_environment("paper_home")


@pytest.fixture(scope="module")
def truth_kbs(home):
    return [knowledge_from_environment(home, "1F", "Robot1"),
            knowledge_from_environment(home, "2F", "Robot2")]


FLOOR_OF_ROBOT = {"Robot1": "1F", "Robot2": "2F"}


def test_best_room_recovery_counts_the_floors_objects(home, truth_kbs):
    assert best_room_recovery(home, "1F", truth_kbs[0]) == (13, 13)
    assert best_room_recovery(home, "2F", truth_kbs[1]) == (11, 11)
    kb = knowledge_from_environment(home, "1F", "Robot1")
    moved, dropped = sorted(kb.presence_table)[:2]
    kb.presence_table[moved] = kb.presence_table[moved][1:] + kb.presence_table[moved][:1]
    del kb.presence_table[dropped]
    assert best_room_recovery(home, "1F", kb) == (11, 13)


# ----------------------------------------------------- instruction generation

def test_generate_common_sense_suite(home):
    instrs = generate_instructions("common_sense", home, 5, seed=3)
    assert len(instrs) == 5
    targets = [o for i in instrs for o in i.gold_objects]
    assert len(targets) == 10
    assert all(home.categories[o] == CATEGORY_COMMON for o in targets)


def test_generate_hard_suite_targets_are_hard(home):
    instrs = generate_instructions("hard_to_predict", home, 5, seed=4)
    targets = [o for i in instrs for o in i.gold_objects]
    assert all(home.categories[o] == CATEGORY_HARD for o in targets)


def test_generate_mixed_one_hard_one_common_across_floors(home):
    for instr in generate_instructions("mixed", home, 8, seed=5):
        cats = sorted(home.categories[o] for o in instr.gold_objects)
        floors = sorted(home.floor_of_object(o) for o in instr.gold_objects)
        assert cats == [CATEGORY_COMMON, CATEGORY_HARD]
        assert floors == ["1F", "2F"]


def test_generate_random_one_object_per_floor(home):
    for instr in generate_instructions("random", home, 10, seed=6):
        floors = sorted(home.floor_of_object(o) for o in instr.gold_objects)
        assert floors == ["1F", "2F"]


def test_generate_zero_count(home):
    assert generate_instructions("random", home, 0, seed=0) == []


def test_generate_is_deterministic(home):
    a = generate_instructions("mixed", home, 6, seed=11)
    b = generate_instructions("mixed", home, 6, seed=11)
    assert [i.text for i in a] == [i.text for i in b]
    assert [i.gold_objects for i in a] == [i.gold_objects for i in b]


def test_generated_text_decomposes_back_to_gold(home):
    vocab = sorted(home.placements)
    for category in SUITE_CATEGORIES:
        for instr in generate_instructions(category, home, 5, seed=8):
            subtasks = decompose(instr, vocab)
            assert [s.target_object for s in subtasks] == instr.gold_objects


def test_generation_error_when_category_missing():
    env = load_environment("robocup_arena")  # no hard_to_predict objects
    with pytest.raises(GenerationError):
        generate_instructions("hard_to_predict", env, 1, seed=0)


# ----------------------------------------------------------------- scoring

def test_score_apple_to_robot1_succeeds(home):
    ok, total, flags = score_allocations(
        [Assignment(Subtask("find", "apple"), "Robot1")], home, FLOOR_OF_ROBOT)
    assert (ok, total, flags) == (1, 1, [True])


def test_score_banana_to_robot1_fails(home):
    ok, total, flags = score_allocations(
        [Assignment(Subtask("find", "banana"), "Robot1")], home, FLOOR_OF_ROBOT)
    assert (ok, total, flags) == (0, 1, [False])


def test_score_empty(home):
    assert score_allocations([], home, FLOOR_OF_ROBOT) == (0, 0, [])


def test_score_unplaced_object_is_error(home):
    with pytest.raises(ScoringError):
        score_allocations([Assignment(Subtask("find", "yeti"), "Robot1")], home, FLOOR_OF_ROBOT)


def test_score_ignores_probabilities(home, truth_kbs):
    # Metric purity: same assignments, rescaled tables, identical score.
    subtasks = [Subtask("find", o) for o in ("apple", "banana", "cup", "towel")]
    assignments = allocate(subtasks, truth_kbs)
    score_a = score_allocations(assignments, home, FLOOR_OF_ROBOT)[0]
    relabeled = [Assignment(a.subtask, a.robot_id, None) for a in assignments]
    score_b = score_allocations(relabeled, home, FLOOR_OF_ROBOT)[0]
    assert score_a == score_b


# ------------------------------------------------------------------- suite

def test_run_suite_grid_with_truth_kbs(home, truth_kbs, tmp_path):
    paths = []
    for kb in truth_kbs:
        path = tmp_path / f"{kb.robot_id}.json"
        save_knowledge(kb, path)
        paths.append(str(path))
    out = tmp_path / "report.json"
    cfg = SuiteConfig(seed=5, kb_paths=tuple(paths), out=str(out))
    report = run_suite(cfg)

    assert set(report.grid) == {"proposed", "random", "commonsense"}
    for strategy, by_cat in report.grid.items():
        assert set(by_cat) == set(SUITE_CATEGORIES)
        total = report.totals[strategy]
        assert total[0] == sum(v[0] for v in by_cat.values())
        assert total[1] == sum(v[1] for v in by_cat.values()) == 50
        for successes, attempts in by_cat.values():
            assert 0 <= successes <= attempts

    # Floor-separated knowledge forces every allocation to the right robot.
    assert report.totals["proposed"] == (50, 50)
    assert report.grid["commonsense"]["hard_to_predict"][0] == 0
    assert report.grid["commonsense"]["common_sense"][0] == 10

    payload = json.loads(out.read_text())
    assert payload["schema_version"] == 1
    assert payload["totals"]["proposed"] == [50, 50]
    assert payload["reference_reported"]["proposed"]["total"] == [47, 50]


def test_suite_category_sizes_match_protocol(home):
    instructions = build_suite_instructions(home, 3)
    sizes = {cat: sum(len(i.gold_objects) for i in instrs)
             for cat, instrs in instructions.items()}
    assert sizes == {"random": 20, "hard_to_predict": 10, "common_sense": 10, "mixed": 10}


def test_suite_learns_only_for_proposed(home):
    learned = []

    def learn(env, robot, seed, visits_per_room):
        learned.append((robot.robot_id, seed, visits_per_room))
        return knowledge_from_environment(env, robot.floor, robot.robot_id)

    with mock.patch.object(experiment, "learn_floor_knowledge", learn):
        run_suite(SuiteConfig(seed=1, strategies=("random", "commonsense")))
        assert learned == []
        report = run_suite(SuiteConfig(seed=1, strategies=("proposed",), visits_per_room=4))
    base = experiment._suite_seeds(1)["learn_base"]
    assert learned == [("Robot1", base, 4), ("Robot2", base + 1, 4)]
    assert report.totals == {"proposed": (50, 50)}


def test_suite_decomposes_each_instruction_once(home, truth_kbs, tmp_path):
    paths = []
    for kb in truth_kbs:
        save_knowledge(kb, tmp_path / f"{kb.robot_id}.json")
        paths.append(str(tmp_path / f"{kb.robot_id}.json"))
    with mock.patch.object(experiment, "decompose", wraps=decompose) as spy:
        report = run_suite(SuiteConfig(seed=4, kb_paths=tuple(paths)))
    assert spy.call_count == sum(experiment.SUITE_COUNTS.values()) == 25
    assert len(report.trials) == 3 * 25


def test_suite_config_validation():
    with pytest.raises(ConfigurationError):
        SuiteConfig(strategies=())
    with pytest.raises(ConfigurationError):
        SuiteConfig(strategies=("nonsense",))


def test_corrupting_knowledge_cannot_increase_score(home, truth_kbs):
    instructions = build_suite_instructions(home, 9)
    vocab = sorted(home.placements)
    subtasks = [s for instrs in instructions.values() for i in instrs
                for s in decompose(i, vocab)]

    baseline = score_allocations(allocate(subtasks, truth_kbs), home, FLOOR_OF_ROBOT)[0]
    assert baseline == 50

    # Move apple's knowledge to the wrong robot: Robot2 now claims it.
    kb1, kb2 = truth_kbs
    corrupt1 = knowledge_from_environment(home, "1F", "Robot1")
    corrupt2 = knowledge_from_environment(home, "2F", "Robot2")
    del corrupt1.presence_table["apple"]
    corrupt2.presence_table["apple"] = [0.0, 0.0, 0.0, 0.0, 1.0]
    corrupted = score_allocations(allocate(subtasks, [corrupt1, corrupt2]),
                                  home, FLOOR_OF_ROBOT)[0]
    assert corrupted <= baseline
    apple_count = sum(s.target_object == "apple" for s in subtasks)
    assert corrupted == baseline - apple_count


def test_all_24_objects_route_to_their_floor(home, truth_kbs):
    subtasks = [Subtask("find", o) for o in sorted(home.placements)]
    assignments = allocate(subtasks, truth_kbs)
    assert len(assignments) == 24
    for a in assignments:
        assert FLOOR_OF_ROBOT[a.robot_id] == home.floor_of_object(a.subtask.target_object)


def test_random_baseline_mean_near_half(home, truth_kbs):
    instructions = build_suite_instructions(home, 13)
    totals = random_allocation_totals(home, instructions, ["Robot1", "Robot2"],
                                      FLOOR_OF_ROBOT, repetitions=300, seed=13)
    assert totals.shape == (300,)
    assert 22.5 <= totals.mean() <= 27.5


def test_reference_row_is_a_labeled_citation():
    assert REFERENCE_REPORTED["proposed"]["total"] == [47, 50]
    assert REFERENCE_REPORTED["random"]["total"] == [28, 50]
    assert REFERENCE_REPORTED["commonsense"]["total"] == [26, 50]
    assert "not recomputed" in REFERENCE_REPORTED["note"]


def test_text_table_shape(home, truth_kbs, tmp_path):
    paths = []
    for kb in truth_kbs:
        path = tmp_path / f"{kb.robot_id}.json"
        save_knowledge(kb, path)
        paths.append(str(path))
    report = run_suite(SuiteConfig(seed=2, kb_paths=tuple(paths)))
    table = report.text_table()
    lines = table.splitlines()
    assert lines[0].split("|")[0].strip() == "Method"
    # 3 computed strategies + 3 reported rows
    assert sum(1 for ln in lines if ln.strip().startswith(("proposed", "random", "commonsense"))) == 3
    assert sum(1 for ln in lines if ln.strip().startswith("[reported]")) >= 3


# -------------------------------------------------------------- field trip

def test_field_trip_robot2_trace_structure():
    result = run_field_trip_scenario(seed=0)
    steps = [(s.skill, s.argument) for s in result["robot_steps"]["Robot2"]]
    assert steps == [
        ("navigation", "kitchen"),
        ("object_detection", "cup"),
        ("pick", "cup"),
        ("navigation", "gather"),
        ("place", "gather"),
        ("navigation", "kitchen"),
        ("object_detection", "water_bottle"),
        ("pick", "water_bottle"),
        ("navigation", "gather"),
        ("place", "gather"),
        ("navigation", "kitchen"),
    ]
    assert all(s.outcome.succeeded for s in result["robot_steps"]["Robot2"])
    assert len(steps) == 11


def test_field_trip_all_subtasks_succeed():
    result = run_field_trip_scenario(seed=1)
    assert all(t.result == "subtask_succeeded" for t in result["traces"])


def test_default_robots_one_per_floor(home):
    robots = default_robots(home)
    assert [r.robot_id for r in robots] == ["Robot1", "Robot2"]
    assert [r.floor for r in robots] == ["1F", "2F"]


def test_floor_robot_parks_in_first_room_and_rejects_empty_floor(home):
    robot = floor_robot(home, "2F", "Robot9")
    assert (robot.robot_id, robot.floor, robot.current_room) == ("Robot9", "2F", "front_of_stairs")
    with pytest.raises(ConfigurationError):
        floor_robot(home, "3F", "Robot9")
