"""Acceptance suite: one test per shipping criterion, each printing PASS/FAIL.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the criterion lines.
"""

import json
import time

import numpy as np
import pytest

from homeplan.cli import main
from homeplan.experiment import (
    best_room_recovery,
    build_suite_instructions,
    run_field_trip_scenario,
)
from homeplan.knowledge import (
    extract_knowledge,
    render_place_vocab,
    render_presence_table,
)
from homeplan.learner import learn_fixed_lag
from homeplan.planner import (
    COMMONSENSE_TYPICAL_ROOM,
    ReplayBackend,
    allocate,
    allocate_commonsense,
    decompose,
    render_allocation_prompt,
)
from homeplan.spatial import (
    model_from_dict,
    model_to_dict,
    object_location_posterior,
    word_posterior,
)
from homeplan.world import (
    GATHER,
    RobotState,
    SkillOutcome,
    World,
    generate_floor_sessions,
    load_environment,
)

from conftest import (
    parse_place_vocab,
    parse_presence_table,
    random_allocation_totals,
    random_model,
    scripted_run,
    skill_sequence,
)
from test_spatial import brute_force_object_posterior, brute_force_word_posterior

ACCEPTANCE_SEED = 7
LEARNING_BUDGET_SECONDS = 60.0
ORACLE_BUDGET_SECONDS = 5.0
SMOKE_BUDGET_SECONDS = 180.0


def report(name: str, ok: bool, detail: str = "") -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}")
    assert ok, f"{name}: {detail}"


@pytest.fixture(scope="module")
def home():
    return load_environment("paper_home")


@pytest.fixture(scope="module")
def learned(home):
    """Both floors learned under the acceptance protocol; timing recorded."""
    out = {}
    for floor, robot_id, seed in (("1F", "Robot1", ACCEPTANCE_SEED),
                                  ("2F", "Robot2", ACCEPTANCE_SEED + 1)):
        rooms = home.rooms_on(floor)
        robot = RobotState(robot_id=robot_id, floor=floor, current_room=rooms[0].name)
        sessions = generate_floor_sessions(home, robot, np.random.default_rng(seed),
                                           visits_per_room=30)
        start = time.monotonic()
        model = learn_fixed_lag(sessions, seed=seed, num_regions=len(rooms))
        elapsed = time.monotonic() - start
        kb = extract_knowledge(model, [r.name for r in rooms], robot_id=robot_id)
        out[floor] = {"model": model, "kb": kb, "elapsed": elapsed,
                      "sessions": len(sessions)}
    return out


def test_c1_posterior_oracle_equivalence():
    start = time.monotonic()
    worst = 0.0
    rng = np.random.default_rng(ACCEPTANCE_SEED)
    for _ in range(100):
        r = int(rng.integers(1, 7))
        model = random_model(rng, r)
        for region in range(r):
            got = word_posterior(model, region)
            want = brute_force_word_posterior(model, region)
            worst = max(worst, float(np.max(np.abs(got - np.array(want)))))
        for obj in model.vocab_objects:
            got = object_location_posterior(model, obj)
            want = brute_force_object_posterior(model, obj)
            worst = max(worst, float(np.max(np.abs(got - np.array(want)))))
    elapsed = time.monotonic() - start
    report("C1 posterior oracle equivalence",
           worst <= 1e-12 and elapsed < ORACLE_BUDGET_SECONDS,
           f"100 models, max |diff| = {worst:.2e}, {elapsed:.2f}s")


def test_c2_learning_recovery(home, learned):
    thresholds = {"1F": (11, 13), "2F": (9, 11)}
    details = []
    ok = True
    for floor, (need, total) in thresholds.items():
        kb = learned[floor]["kb"]
        elapsed = learned[floor]["elapsed"]
        correct, objects = best_room_recovery(home, floor, kb)
        ok = ok and correct >= need and objects == total and len(kb.presence_table) == total
        ok = ok and elapsed < LEARNING_BUDGET_SECONDS
        ok = ok and learned[floor]["sessions"] == 150
        details.append(f"{floor}: {correct}/{total} correct (need {need}), {elapsed:.1f}s")
    report("C2 learning recovery", ok, "; ".join(details))


def test_c3_allocation_reproduction(home, learned, tmp_path):
    kbs = [learned["1F"]["kb"], learned["2F"]["kb"]]
    floor_of_robot = {"Robot1": "1F", "Robot2": "2F"}
    vocab = sorted(home.placements)
    instructions = build_suite_instructions(home, ACCEPTANCE_SEED)

    # Floor-membership oracle premise: every object sits in exactly one table,
    # and allocation routes each of the 24 to the robot of its true floor.
    tables = [set(kb.presence_table) for kb in kbs]
    oracle_ok = tables[0].isdisjoint(tables[1]) and tables[0] | tables[1] == set(vocab)
    from homeplan.planner import Subtask
    all_routed = allocate([Subtask("find", o) for o in vocab], kbs)
    oracle_ok = oracle_ok and all(
        floor_of_robot[a.robot_id] == home.floor_of_object(a.subtask.target_object)
        for a in all_routed)

    successes = attempts = 0
    replay = ReplayBackend(tmp_path / "replay")
    replay_matches = True
    for instrs in instructions.values():
        for instr in instrs:
            subtasks = decompose(instr, vocab)
            assignments = allocate(subtasks, kbs)
            for assignment in assignments:
                attempts += 1
                successes += (floor_of_robot[assignment.robot_id]
                              == home.floor_of_object(assignment.subtask.target_object))
            # Canned chat-style responses must parse back to the same result.
            prompt = render_allocation_prompt(subtasks, kbs)
            replay.store(prompt, "\n".join(
                f"SubTask {i}: {a.subtask.describe()} -> {a.robot_id}"
                for i, a in enumerate(assignments, start=1)))
            replayed = allocate(subtasks, kbs, backend=replay)
            replay_matches = replay_matches and (
                [a.robot_id for a in replayed] == [a.robot_id for a in assignments])

    ok = (successes == 50 and attempts == 50 and successes >= 47
          and replay_matches and oracle_ok)
    report("C3 allocation reproduction", ok,
           f"{successes}/{attempts} (reported comparator 47/50), "
           f"replay parse match: {replay_matches}, 24-object floor oracle: {oracle_ok}")


def test_c4_baseline_separation(home, learned):
    instructions = build_suite_instructions(home, ACCEPTANCE_SEED)
    floor_of_robot = {"Robot1": "1F", "Robot2": "2F"}
    totals = random_allocation_totals(home, instructions, ["Robot1", "Robot2"],
                                      floor_of_robot, repetitions=1000,
                                      seed=ACCEPTANCE_SEED)
    mean = float(totals.mean())
    random_ok = 22.5 <= mean <= 27.5

    vocab = sorted(home.placements)
    room_to_robot = {r.name: ("Robot1" if r.floor == "1F" else "Robot2")
                     for r in home.rooms}
    kbs = [learned["1F"]["kb"], learned["2F"]["kb"]]
    hard_common = hard_proposed = hard_total = 0
    for instr in instructions["hard_to_predict"]:
        subtasks = decompose(instr, vocab)
        for strategy, counter in (("commonsense", "c"), ("proposed", "p")):
            if strategy == "commonsense":
                assignments = allocate_commonsense(subtasks, COMMONSENSE_TYPICAL_ROOM,
                                                   room_to_robot)
            else:
                assignments = allocate(subtasks, kbs)
            for a in assignments:
                correct = floor_of_robot[a.robot_id] == home.floor_of_object(a.subtask.target_object)
                if strategy == "commonsense":
                    hard_common += correct
                else:
                    hard_proposed += correct
        hard_total += len(subtasks)

    commonsense_ok = hard_common <= 6 and hard_common < hard_proposed
    report("C4 baseline separation", random_ok and commonsense_ok,
           f"random mean {mean:.2f}/50 over 1000 reps (reported 28/50); "
           f"commonsense hard {hard_common}/{hard_total} vs proposed {hard_proposed}/{hard_total} "
           f"(reported 3/10 vs 10/10)")


def test_c5_executor_trace_replay():
    result = run_field_trip_scenario()
    steps = [(s.skill, s.argument) for s in result["robot_steps"]["Robot2"]]
    expected = [
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
    trace_ok = steps == expected and len(steps) == 11

    ok_out = SkillOutcome("succeeded")
    fail = SkillOutcome("failed", "grasp_failed")
    queue = [ok_out, ok_out, fail, ok_out, ok_out, ok_out]
    scripted = scripted_run("cup", ["living_room"], queue, retries=2, destination="kitchen")
    picks = [s for s in skill_sequence(scripted) if s[0] == "pick"]
    pick_ok = len(picks) == 2 and scripted.result == "subtask_succeeded"

    report("C5 executor trace replay", trace_ok and pick_ok,
           f"11-step structural match: {trace_ok}; scripted pick attempts: {len(picks)}")


def test_c6_invariant_suites(home, learned, tmp_path):
    checks = {}

    # Categorical normalization on random models.
    rng = np.random.default_rng(ACCEPTANCE_SEED)
    sums_ok = True
    for _ in range(25):
        model = random_model(rng, int(rng.integers(1, 7)))
        for region in range(model.num_regions):
            sums_ok &= abs(word_posterior(model, region).sum() - 1.0) <= 1e-9
        for obj in model.vocab_objects:
            sums_ok &= abs(object_location_posterior(model, obj).sum() - 1.0) <= 1e-9
    checks["categorical normalization"] = sums_ok

    # Object conservation and floor barrier under a random skill pounding.
    world = World(home, [
        RobotState("Robot1", "1F", "kitchen", p_pick=0.7),
        RobotState("Robot2", "2F", "parent_room", p_pick=0.7),
    ], seed=ACCEPTANCE_SEED)
    rooms = [r.name for r in home.rooms] + [GATHER]
    objects = sorted(home.placements)
    conserve_ok = True
    for i in range(400):
        robot_id = "Robot1" if i % 2 else "Robot2"
        skill = ("navigation", "object_detection", "pick", "place")[i % 4]
        arg = rooms[i % len(rooms)] if skill in ("navigation", "place") else objects[i % len(objects)]
        world.step_skill(robot_id, skill, arg)
        try:
            world.check_conservation()
        except AssertionError:
            conserve_ok = False
            break
        for robot in world.robots.values():
            if robot.current_room != GATHER:
                conserve_ok &= home.floor_of_room(robot.current_room) == robot.floor
    checks["conservation and floor barrier"] = conserve_ok

    # Model serialization round trip at 1e-12.
    model = learned["1F"]["model"]
    restored = model_from_dict(json.loads(json.dumps(model_to_dict(model))))
    ser_ok = True
    for name in ("pi", "word_dist", "object_dist", "means", "covs"):
        a, b = getattr(restored, name), getattr(model, name)
        ser_ok &= a.shape == b.shape and np.allclose(a, b, atol=1e-12)
    checks["model serialization 1e-12"] = bool(ser_ok)

    # Prompt render/parse round trip at 3 decimals.
    kb1, kb2 = learned["1F"]["kb"], learned["2F"]["kb"]
    parsed = parse_presence_table(render_presence_table([kb1, kb2]))
    prompt_ok = [p.robot_id for p in parsed] == [kb1.robot_id, kb2.robot_id]
    for orig, back in zip((kb1, kb2), parsed):
        for obj in orig.presence_table:
            row = np.asarray(orig.presence_table[obj], dtype=float)
            back_row = np.asarray(back.presence_table[obj], dtype=float)
            prompt_ok &= bool(np.allclose(back_row, row / row.sum(), atol=5e-4))
    prompt_ok &= parse_place_vocab(render_place_vocab(kb1)) == kb1.place_vocab
    checks["prompt render/parse round trip"] = bool(prompt_ok)

    # Determinism under fixed seeds: learner bit-reproducibility on a short stream.
    robot = RobotState("Robot1", "1F", "entrance")
    sessions = generate_floor_sessions(home, robot, np.random.default_rng(3), visits_per_room=3)
    m1 = learn_fixed_lag(sessions, seed=3)
    m2 = learn_fixed_lag(sessions, seed=3)
    checks["seeded determinism"] = json.dumps(model_to_dict(m1)) == json.dumps(model_to_dict(m2))

    ok = all(checks.values())
    report("C6 invariant suites", ok,
           "; ".join(f"{name}: {'ok' if v else 'FAILED'}" for name, v in checks.items()))


def test_c7_end_to_end_smoke(tmp_path, capsys):
    out_path = tmp_path / "report.json"
    start = time.monotonic()
    code = main(["suite", "--env", "paper_home", "--backend", "rule",
                 "--seed", str(ACCEPTANCE_SEED), "--out", str(out_path)])
    elapsed = time.monotonic() - start
    stdout = capsys.readouterr().out

    payload = json.loads(out_path.read_text())
    grid = payload["grid"]
    shape_ok = (set(grid) == {"proposed", "random", "commonsense"}
                and all(set(row) == {"random", "hard_to_predict", "common_sense", "mixed"}
                        for row in grid.values())
                and set(payload["totals"]) == set(grid))
    totals_ok = all(payload["totals"][s] == [sum(v[0] for v in grid[s].values()),
                                             sum(v[1] for v in grid[s].values())]
                    for s in grid)
    ok = (code == 0 and elapsed < SMOKE_BUDGET_SECONDS and shape_ok and totals_ok
          and "Method" in stdout)
    report("C7 end-to-end smoke", ok,
           f"exit {code}, {elapsed:.1f}s (< {SMOKE_BUDGET_SECONDS:.0f}s), "
           f"grid 3 strategies x 4 categories + totals: {shape_ok}")
