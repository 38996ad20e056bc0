"""The benchmark's correctness checks reject deliberately wrong outputs.

Kept out of the tier-1 gate; run with

    PYTHONPATH=src python -m pytest benchmark/tests -q
"""

import copy
import json
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

from homeplan import experiment, knowledge, planner, world
from homeplan.executor import TraceStep
from homeplan.world import SkillOutcome

import checks
import workloads
from checks import CheckError, KnownFault, Truth, robot_ids_by_floor
from hostspeed import HostSpeed
from tracing import computed_grid_evals

BENCH_DIR = Path(__file__).resolve().parent.parent


def one_round(workload) -> workloads.Recorder:
    rec = workloads.Recorder()
    with HostSpeed().sampling(rec):
        workload.run_round(rec, 0)
    return rec


@pytest.fixture(scope="module")
def truth():
    env = world.load_environment("paper_home")
    return Truth(env, robot_ids_by_floor(env))


@pytest.fixture(scope="module")
def suite_run(tmp_path_factory):
    """One tiny suite round (5 visits per room): its recorder, last report and workload."""
    suite = workloads.Suite(5, tmp_path_factory.mktemp("suite"), visits=5)
    try:
        suite.setup()
        rec = one_round(suite)
        report = json.loads(suite.report_path.read_text())
    finally:
        suite.close()
    return rec, report, suite


@pytest.fixture
def plan(tmp_path):
    workload = workloads.Plan(3, tmp_path, scale=0.02)
    workload.setup()
    return workload


@pytest.fixture
def execute(tmp_path):
    workload = workloads.Execute(4, tmp_path, episodes=60)
    workload.setup()
    return workload


# --- smoke runs of each workload --------------------------------------------

def test_suite_smoke(suite_run):
    rec, report, suite = suite_run
    assert rec.attempted == len(suite.cli_seeds) == 2
    # Five visits per room is far below the paper protocol, so C2 may miss
    # here; every check before it passed.
    assert all("C2 needs" in note for note in rec.notes), rec.notes
    assert report["totals"]["proposed"] == [50, 50]
    assert [(seed, floor) for seed, floor, _, _ in suite.recovery] == \
        [(0, "1F"), (0, "2F"), (8, "1F"), (8, "2F")]
    assert set(suite.end_to_end(rec)) == {"op_p50_ms", "ops_per_s"}
    assert experiment.learn_floor_knowledge is suite._learn  # close() restored it


def test_plan_smoke(plan):
    plan.warm_up()
    rec = one_round(plan)
    assert rec.attempted == len(plan.stream) > 0
    assert rec.failed == 0, rec.notes
    assert sum(1 for _, targets, _ in plan.stream if targets == plan.AMBIGUOUS_TARGETS) >= 1
    metrics = plan.end_to_end(rec)
    assert set(metrics) >= {"op_p50_ms", "ops_per_s", "rule_plan_p50_ms", "chat_plan_p50_ms"}
    assert all(value > 0 for value, _ in metrics.values())


def test_execute_smoke(execute):
    rec = one_round(execute)
    assert (rec.attempted, rec.failed) == (60, 0), rec.notes
    assert sum(rec.samples["skills"]) >= 60 * 2 * 5
    assert all(value > 0 for value, _ in execute.end_to_end(rec).values())


@pytest.mark.parametrize("trace, kind", [(0, "end_to_end"), (1, "per_layer")])
def test_command_prints_every_metric_of_the_manifest(trace, kind):
    # A traced run of execute also runs the cover round, suite included.
    proc = subprocess.run([sys.executable, str(BENCH_DIR / "run.py"), "--workload", "execute",
                           "--seed", "2", "--seconds", "0", "--trace", str(trace)],
                          cwd=BENCH_DIR.parent, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    spec = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())
    assert {name: m["unit"] for name, m in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in spec[kind]}


def test_command_fails_without_sources(tmp_path):
    shutil.copytree(BENCH_DIR, tmp_path / "benchmark",
                    ignore=shutil.ignore_patterns("__pycache__", "tests"))
    proc = subprocess.run([sys.executable, "benchmark/run.py", "--workload", "plan", "--seed", "1",
                           "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""


# --- suite checks -------------------------------------------------------------

def test_suite_check_rejects_robot_on_wrong_floor(suite_run, truth):
    _, report, _ = suite_run
    bad = copy.deepcopy(report)
    trial = next(t for t in bad["trials"] if t["strategy"] == "proposed")
    trial["assignments"][0] = "Robot2" if trial["assignments"][0] == "Robot1" else "Robot1"
    with pytest.raises(CheckError):
        checks.check_suite_report(bad, truth, planner.COMMONSENSE_TYPICAL_ROOM, 50)


def test_suite_check_rejects_wrong_commonsense_total(suite_run, truth):
    _, report, _ = suite_run
    checks.check_suite_report(report, truth, planner.COMMONSENSE_TYPICAL_ROOM, 50)
    bad = copy.deepcopy(report)
    bad["totals"]["commonsense"][0] += 1
    with pytest.raises(CheckError):
        checks.check_suite_report(bad, truth, planner.COMMONSENSE_TYPICAL_ROOM, 50)


def test_presence_check_rejects_rows_that_are_not_distributions(truth):
    env = world.load_environment("paper_home")
    kb = knowledge.knowledge_from_environment(env, "1F", "Robot1")
    rooms = [r.name for r in env.rooms_on("1F")]
    checks.check_presence_rows(kb, rooms)
    skewed = replace(kb, presence_table={**kb.presence_table, "apple": [0.5, 0.0, 0.0, 0.0, 0.6]})
    with pytest.raises(CheckError):
        checks.check_presence_rows(skewed, rooms)
    with pytest.raises(CheckError):
        checks.check_presence_rows(kb, [r.name for r in env.rooms_on("2F")])


def test_best_room_recovery_counts_true_rooms(truth):
    env = world.load_environment("paper_home")
    kb = knowledge.knowledge_from_environment(env, "2F", "Robot2")
    assert checks.best_room_recovery(kb, truth) == (11, 11)


def test_c2_check_rejects_objects_in_wrong_rooms(truth):
    env = world.load_environment("paper_home")
    kb = knowledge.knowledge_from_environment(env, "1F", "Robot1")
    # Every row shifted by one room: a learner that puts each object next door.
    shifted = replace(kb, presence_table={obj: row[1:] + row[:1] for obj, row in kb.presence_table.items()})
    checks.check_c2([("1F", *checks.best_room_recovery(kb, truth))], "truth")
    with pytest.raises(CheckError) as caught:
        checks.check_c2([("1F", *checks.best_room_recovery(shifted, truth))], "shifted")
    assert not isinstance(caught.value, KnownFault)
    with pytest.raises(CheckError):
        checks.check_c2([("2F", 11, 12)], "an extra object in the table")


def test_c2_check_keeps_only_the_named_miss_as_known_fault():
    checks.check_c2([("1F", 11, 13), ("2F", 9, 11)], "at the thresholds", known_miss="1F")
    with pytest.raises(KnownFault):
        checks.check_c2([("1F", 9, 13), ("2F", 11, 11)], "seed 8", known_miss="1F")
    for recovery, known in [([("1F", 9, 13), ("2F", 11, 11)], None),
                            ([("1F", 9, 13), ("2F", 8, 11)], "1F"),
                            ([("1F", 13, 13), ("2F", 8, 11)], "1F")]:
        with pytest.raises(CheckError) as caught:
            checks.check_c2(recovery, "other miss", known_miss=known)
        assert not isinstance(caught.value, KnownFault)


def test_recorder_counts_only_known_faults_as_not_wrong():
    rec = workloads.Recorder()

    def raise_(exc):
        raise exc
    rec.attempt(lambda: None)
    rec.attempt(lambda: raise_(KnownFault("known")))
    rec.attempt(lambda: raise_(CheckError("wrong")))
    rec.attempt(lambda: raise_(KeyError("from the program")))
    assert (rec.attempted, rec.failed, rec.wrong) == (4, 3, 2)


def test_checks_reject_unknown_names_as_wrong_output(suite_run, truth):
    _, report, _ = suite_run
    for field, value in (("assignments", "Robot9"), ("subtasks", "teapot")):
        bad = copy.deepcopy(report)
        bad["trials"][0][field][0] = value
        with pytest.raises(CheckError):
            checks.check_suite_report(bad, truth, planner.COMMONSENSE_TYPICAL_ROOM, 50)
    with pytest.raises(CheckError):
        checks.check_floor_allocation([planner.Assignment(planner.Subtask("find", "teapot"), "Robot1")],
                                      truth)


def test_grid_evals_at_paper_protocol():
    assert computed_grid_evals(150, 30, 10) == 48_150


# --- plan checks --------------------------------------------------------------

def test_plan_check_rejects_changed_stored_answer(plan):
    instr, targets, verb = plan.stream[0]
    subtasks = [planner.Subtask(verb, obj) for obj in targets]
    prompt = planner.render_allocation_prompt(subtasks, plan.kbs)
    stored = plan.answers[(verb, tuple(targets))]
    flipped = ["Robot2" if r == "Robot1" else "Robot1" for r in stored]
    plan.replay.store(prompt, "\n".join(f"SubTask {i}: {st.describe()} -> {rid}"
                                        for i, (st, rid) in enumerate(zip(subtasks, flipped), start=1)))
    rec = workloads.Recorder()
    rec.attempt(lambda: plan._op(rec, 0))
    assert (rec.failed, rec.wrong) == (1, 1)
    assert "stored answer" in rec.notes[0]


def test_plan_checks_reject_wrong_targets_and_floors(truth):
    subtasks = [planner.Subtask("find", "apple"), planner.Subtask("find", "banana")]
    checks.check_decomposition(subtasks, ["apple", "banana"], "find")
    with pytest.raises(CheckError):
        checks.check_decomposition(subtasks, ["apple", "cup"], "find")
    with pytest.raises(CheckError):
        checks.check_decomposition(subtasks, ["apple", "banana"], "bring")
    right = [planner.Assignment(subtasks[0], "Robot1"), planner.Assignment(subtasks[1], "Robot2")]
    checks.check_floor_allocation(right, truth)
    with pytest.raises(CheckError):
        checks.check_floor_allocation([right[0], replace(right[1], robot_id="Robot1")], truth)
    # banana's typical room is the kitchen, on the first floor.
    checks.check_commonsense_allocation([right[0], replace(right[1], robot_id="Robot1")], truth,
                                        planner.COMMONSENSE_TYPICAL_ROOM)
    with pytest.raises(CheckError):
        checks.check_commonsense_allocation(right, truth, planner.COMMONSENSE_TYPICAL_ROOM)
    with pytest.raises(CheckError):
        checks.check_random_allocation([replace(right[0], robot_id="Robot9")], subtasks[:1], truth)


# --- execute checks -----------------------------------------------------------

def _succeeded_episode(execute):
    for assignments, targets, seed in execute.plan:
        sim, traces = execute._episode(assignments, seed)
        if all(t.result == "subtask_succeeded" for t in traces):
            return sim, traces, targets
    raise AssertionError("no fully successful episode")


def _check(execute, sim, traces, targets):
    checks.check_episode(sim, traces, targets, execute.truth, execute.policy.max_retries_per_skill + 1)


def test_episode_check_rejects_object_left_in_gripper(execute):
    sim, traces, targets = _succeeded_episode(execute)
    _check(execute, sim, traces, targets)
    rid, obj = traces[0].robot_id, traces[0].target_object
    sim.robots[rid].held_object = obj
    sim.object_rooms[obj] = None
    with pytest.raises(CheckError):
        _check(execute, sim, traces, targets)


def test_episode_check_rejects_lost_object(execute):
    sim, traces, targets = _succeeded_episode(execute)
    sim.object_rooms[traces[0].target_object] = None  # in no room and in no gripper
    with pytest.raises(CheckError, match="conservation"):
        _check(execute, sim, traces, targets)


def test_episode_check_rejects_undelivered_object(execute):
    sim, traces, targets = _succeeded_episode(execute)
    obj = traces[0].target_object
    sim.object_rooms[obj] = execute.truth.placement[obj]
    with pytest.raises(CheckError):
        _check(execute, sim, traces, targets)


def test_episode_check_rejects_retry_budget_overrun(execute):
    sim, traces, targets = _succeeded_episode(execute)
    failed = TraceStep("pick", traces[0].target_object, SkillOutcome("failed", "grasp_failed"))
    traces[0].steps[2:2] = [failed] * (execute.policy.max_retries_per_skill + 2)
    with pytest.raises(CheckError):
        _check(execute, sim, traces, targets)


def test_episode_check_rejects_leaving_the_floor(execute):
    sim, traces, targets = _succeeded_episode(execute)
    rid = traces[0].robot_id
    other_floor = next(room for room, floor in execute.truth.room_floor.items()
                       if floor != execute.truth.robot_floor[rid])
    traces[0].steps.insert(0, TraceStep("navigation", other_floor, SkillOutcome("succeeded")))
    with pytest.raises(CheckError):
        _check(execute, sim, traces, targets)


def test_episode_check_rejects_robot_swapped_to_wrong_floor(execute):
    sim, traces, targets = _succeeded_episode(execute)
    swapped = {rid: targets[other] for rid, other in zip(targets, reversed(list(targets)))}
    with pytest.raises(CheckError):
        _check(execute, sim, traces, swapped)


def test_replay_check_rejects_different_trace(execute):
    assignments, _, seed = execute.plan[0]
    _, first = execute._episode(assignments, seed)
    _, second = execute._episode(assignments, seed)
    checks.check_replay(first, second)
    second[0].steps[-1] = replace(second[0].steps[-1], outcome=SkillOutcome("failed", "place_failed"))
    with pytest.raises(CheckError):
        checks.check_replay(first, second)
