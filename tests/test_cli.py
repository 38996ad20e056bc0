import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

import homeplan

from homeplan.cli import main
from homeplan.experiment import run_suite
from homeplan.knowledge import PROMPTS, knowledge_from_environment, load_knowledge, save_knowledge
from homeplan.planner import ReplayBackend, render_decomposition_prompt
from homeplan.spatial import load_model, save_model
from homeplan.world import load_environment

from conftest import environment_to_dict, random_model


@pytest.fixture
def kb_files(tmp_path):
    env = load_environment("paper_home")
    paths = []
    for floor, robot_id in (("1F", "Robot1"), ("2F", "Robot2")):
        kb = knowledge_from_environment(env, floor, robot_id)
        path = tmp_path / f"{robot_id}.json"
        save_knowledge(kb, path)
        paths.append(str(path))
    return paths


def test_learn_and_extract_round_trip(tmp_path, capsys):
    model_path = tmp_path / "model.json"
    # tiny protocol: keeps the CLI test fast while exercising the real path
    code = main(["learn", "--env", "robocup_arena", "--floor", "zone2",
                 "--visits", "6", "--seed", "3", "--out", str(model_path)])
    assert code == 0
    model = json.loads(model_path.read_text())
    assert model["schema_version"] == 1
    assert len(model["regions"]) == 2

    kb_path = tmp_path / "kb.json"
    code = main(["extract", "--env", "robocup_arena", "--floor", "zone2",
                 "--model-path", str(model_path), "--robot", "Robot2",
                 "--out", str(kb_path)])
    assert code == 0
    kb = json.loads(kb_path.read_text())
    assert kb["robot_id"] == "Robot2"
    assert sorted(kb["room_names"]) == ["corridor", "kitchen"]


_LEARN = ["learn", "--env", "robocup_arena", "--floor", "zone1", "--visits", "4", "--seed", "5"]
_EXTRACT = ["extract", "--env", "robocup_arena", "--floor", "zone1"]


@pytest.mark.parametrize("writer", ["learn", "extract", "decompose", "allocate", "suite", "save_model",
                                    "save_knowledge"])
def test_json_writers_write_one_format(tmp_path, capsys, kb_files, writer):
    """Every JSON file is ``json.dumps(doc, indent=2)`` and one newline.  A command that also
    prints prints its file byte for byte; a re-save writes what the command wrote."""
    model, kb, out = tmp_path / "model.json", tmp_path / "kb.json", tmp_path / "out.json"
    assert main([*_LEARN, "--out", str(model)]) == 0
    assert main([*_EXTRACT, "--model-path", str(model), "--out", str(kb)]) == 0
    if writer == "save_model":
        save_model(load_model(model), out)
        assert out.read_bytes() == model.read_bytes()
    elif writer == "save_knowledge":
        save_knowledge(load_knowledge(kb), out)
        assert out.read_bytes() == kb.read_bytes()
    else:
        argv = {"learn": _LEARN, "extract": [*_EXTRACT, "--model-path", str(model)],
                "decompose": ["decompose", "--text", "Find the apple."],
                "allocate": ["allocate", "--kb", *kb_files, "--text", "Find the apple."],
                "suite": ["suite", "--kb", *kb_files]}[writer]
        assert main([*argv, "--out", str(out)]) == 0
        capsys.readouterr()
        if writer != "suite":  # the suite prints its table, not its report
            assert main(argv) == 0
            assert capsys.readouterr().out == out.read_text()
    text = out.read_text()
    assert text == json.dumps(json.loads(text), indent=2) + "\n"


def test_learn_from_sessions_file(tmp_path, capsys):
    from homeplan.world import RobotState, observe_session

    env = load_environment("robocup_arena")
    robot = RobotState("Robot2", "zone2", "kitchen")
    rng = np.random.default_rng(0)
    sessions = []
    for _ in range(8):
        for room in ("kitchen", "corridor"):
            s = observe_session(env, robot, room, rng)
            sessions.append({
                "position": s.position.tolist(),
                "object_labels": s.object_labels,
                "place_words": s.place_words,
                "room_hint": s.room_hint,
            })
    sessions_path = tmp_path / "sessions.json"
    sessions_path.write_text(json.dumps(sessions))

    code = main(["learn", "--sessions", str(sessions_path), "--regions", "2", "--seed", "2"])
    assert code == 0
    model = json.loads(capsys.readouterr().out)
    assert len(model["regions"]) == 2
    assert "cup" in model["vocab_objects"]


def test_learn_from_a_session_file_at_a_huge_scale_meets_c2(tmp_path):
    # A floor's sessions at 1e100 times their scale learn, and their extracted knowledge
    # base meets C2 (11 of 13 best rooms right), as at their own scale.
    from homeplan.experiment import best_room_recovery, floor_robot
    from homeplan.world import generate_floor_sessions

    env = load_environment("paper_home")
    sessions = generate_floor_sessions(env, floor_robot(env, "1F", "Robot1"), np.random.default_rng(7))
    path, model_path, kb_path = (tmp_path / name for name in ("sessions.json", "m.json", "kb.json"))
    path.write_text(json.dumps([{"position": (s.position * 1e100).tolist(), "object_labels": s.object_labels,
                                 "place_words": s.place_words} for s in sessions]))
    assert main(["learn", "--sessions", str(path), "--regions", "5", "--seed", "7", "--out", str(model_path)]) == 0
    assert main(["extract", "--model-path", str(model_path), "--floor", "1F", "--out", str(kb_path)]) == 0
    right, total = best_room_recovery(env, "1F", load_knowledge(kb_path))
    assert right >= 11 and total == 13


@pytest.mark.parametrize("source", ["floor", "sessions"])
def test_learn_rejects_zero_regions(tmp_path, capsys, source):
    sessions_path = tmp_path / "sessions.json"
    sessions_path.write_text(json.dumps([{"position": [0, 0], "object_labels": ["cup"],
                                          "place_words": ["kitchen"]}]))
    args = ["--floor", "1F"] if source == "floor" else ["--sessions", str(sessions_path)]
    assert main(["learn", *args, "--regions", "0"]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ")
    assert "num_regions" in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("flag, value", [("--visits", "0"), ("--visits", "30"), ("--env", "nowhere"),
                                         ("--env", "paper_home")])
def test_learn_from_sessions_refuses_the_floor_only_flags(tmp_path, capsys, flag, value):
    # A session file fixes the positions and the stream, so --env and --visits, which only
    # shape a generated protocol, are an error with --sessions, even at their defaults.
    sessions, out = tmp_path / "sessions.json", tmp_path / "model.json"
    sessions.write_text(json.dumps([{"position": [0, 0], "object_labels": ["cup"], "place_words": ["kitchen"]}]))
    assert main(["learn", "--sessions", str(sessions), "--regions", "1", flag, value, "--out", str(out)]) == 1
    assert capsys.readouterr().err == f"error: {flag} is read only with --floor, not with --sessions\n"
    assert not out.exists()


def test_learn_requires_floor_or_sessions(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["learn"])
    assert excinfo.value.code == 2
    assert "one of the arguments --floor --sessions is required" in capsys.readouterr().err


def test_allocate_requires_text_or_subtasks(kb_files, capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["allocate", "--kb", *kb_files])
    assert excinfo.value.code == 2
    assert "one of the arguments --text --subtasks is required" in capsys.readouterr().err


@pytest.mark.parametrize("command, clash", [
    ("learn", "argument --sessions: not allowed with argument --floor"),
    ("allocate", "argument --subtasks: not allowed with argument --text"),
    ("suite", "argument --visits: not allowed with argument --kb"),
    ("suite-bare-kb", "argument --kb: expected at least one argument"),
], ids=["learn", "allocate", "suite", "suite-bare-kb"])
def test_either_or_flags_given_together_are_rejected(tmp_path, kb_files, capsys, command, clash):
    # Each pair names two sources of one input; the command used to read one and ignore the other.
    sessions = tmp_path / "sessions.json"
    sessions.write_text(json.dumps([{"position": [0, 0], "object_labels": ["cup"], "place_words": ["kitchen"]}]))
    subtasks = tmp_path / "subtasks.json"
    subtasks.write_text(json.dumps([{"verb": "find", "target_object": "banana"}]))
    out = tmp_path / "out.json"
    argv = {"learn": ["learn", "--floor", "1F", "--sessions", str(sessions), "--regions", "1"],
            "allocate": ["allocate", "--kb", *kb_files, "--text", "Find the apple.", "--subtasks", str(subtasks)],
            "suite": ["suite", "--kb", *kb_files, "--visits", "0"],
            "suite-bare-kb": ["suite", "--kb"]}[command]
    with pytest.raises(SystemExit) as excinfo:
        main([argv[0], "--out", str(out), *argv[1:]])
    assert excinfo.value.code == 2
    assert clash in capsys.readouterr().err
    assert not out.exists()


def test_prompt_presence_table(kb_files, capsys):
    code = main(["prompt", "--kb", *kb_files, "--kind", "presence_table"])
    assert code == 0
    out = capsys.readouterr().out
    assert '"List of probabilities that an object exists":' in out
    assert "----------------" in out


def test_prompt_place_vocab(kb_files, capsys):
    code = main(["prompt", "--kb", kb_files[0], "--kind", "place_vocab"])
    assert code == 0
    assert "place1: [" in capsys.readouterr().out


@pytest.mark.parametrize("kind", tuple(PROMPTS))
def test_prompt_every_kind(kb_files, capsys, kind):
    kbs = kb_files[:1] if kind == "place_vocab" else kb_files  # place_vocab renders one knowledge base
    assert main(["prompt", "--kb", *kbs, "--kind", kind]) == 0
    assert capsys.readouterr().out.strip()


def test_place_vocab_of_several_knowledge_bases_is_an_error(kb_files, capsys):
    assert main(["prompt", "--kb", *kb_files, "--kind", "place_vocab"]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ")
    assert "place_vocab" in captured.err
    assert captured.out == ""


def test_decompose_command(capsys):
    # A direct request and a scenario, which the rule backend expands into its objects.
    for text, subtasks in (("Could you please find apple.", [("find", "apple")]),
                           ("I want to take a bath.", [("bring", "towel"), ("bring", "body_sponge")])):
        assert main(["decompose", "--env", "paper_home", "--text", text]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload == [{"verb": verb, "target_object": target, "destination": None} for verb, target in subtasks]


def test_allocate_command(kb_files, capsys):
    code = main(["allocate", "--env", "paper_home", "--kb", *kb_files,
                 "--text", "Please search for banana."])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload[0]["robot_id"] == "Robot2"
    assert payload[0]["justification"][0] == "parent_room"


def test_run_command_emits_jsonl(tmp_path, kb_files, capsys):
    assignments = [
        {"verb": "bring", "target_object": "apple", "destination": None, "robot_id": "Robot1"},
    ]
    assignments_path = tmp_path / "assignments.json"
    assignments_path.write_text(json.dumps(assignments))
    out_path = tmp_path / "trace.jsonl"
    code = main(["run", "--env", "paper_home", "--kb", *kb_files,
                 "--assignments", str(assignments_path), "--seed", "4",
                 "--out", str(out_path)])
    assert code == 0
    records = [json.loads(line) for line in out_path.read_text().splitlines()]
    assert records[0]["robot_id"] == "Robot1"
    assert records[0]["skill"] == "navigation"
    assert records[0]["argument"] == "kitchen"


def test_run_rejects_a_destination_the_robot_cannot_reach(tmp_path, kb_files, capsys):
    assignments_path = tmp_path / "assignments.json"
    assignments_path.write_text(json.dumps(
        [{"verb": "bring", "target_object": "apple", "destination": "child_room", "robot_id": "Robot1"}]))
    out_path = tmp_path / "trace.jsonl"
    assert main(["run", "--kb", *kb_files, "--assignments", str(assignments_path), "--seed", "7",
                 "--out", str(out_path)]) == 1
    assert capsys.readouterr().err.startswith("error: assignment 0: destination 'child_room' is on floor '2F'")
    assert not out_path.exists()


def test_run_rejects_a_target_the_robots_knowledge_base_lacks(tmp_path, kb_files, capsys):
    # The banana is upstairs, so it is in Robot2's knowledge base but not in Robot1's.
    assignments_path = tmp_path / "assignments.json"
    assignments_path.write_text(json.dumps(
        [{"verb": "bring", "target_object": "banana", "destination": None, "robot_id": "Robot1"}]))
    out_path = tmp_path / "trace.jsonl"
    assert main(["run", "--kb", *kb_files, "--assignments", str(assignments_path), "--out", str(out_path)]) == 1
    assert capsys.readouterr().err == "error: assignment 0: object 'banana' is not in the knowledge base\n"
    assert not out_path.exists()


def test_run_rejects_a_target_the_world_lacks(tmp_path, kb_files, capsys):
    kb = json.loads(Path(kb_files[0]).read_text())
    kb["presence_table"]["unicorn"] = [1.0] * len(kb["room_names"])
    Path(kb_files[0]).write_text(json.dumps(kb))
    assignments_path = tmp_path / "assignments.json"
    assignments_path.write_text(json.dumps(
        [{"verb": "bring", "target_object": target, "destination": None, "robot_id": "Robot1"}
         for target in ("apple", "unicorn")]))
    out_path = tmp_path / "trace.jsonl"
    assert main(["run", "--kb", *kb_files, "--assignments", str(assignments_path), "--out", str(out_path)]) == 1
    assert capsys.readouterr().err == "error: assignment 1: unknown object 'unicorn'\n"
    assert not out_path.exists()


def test_allocate_output_runs_as_assignments(tmp_path, kb_files, capsys):
    assignments_path = tmp_path / "a.json"
    assert main(["allocate", "--kb", *kb_files, "--out", str(assignments_path),
                 "--text", "Could you please find apple. I need you to locate banana."]) == 0
    assignments = json.loads(assignments_path.read_text())
    assert [(a["target_object"], a["robot_id"]) for a in assignments] == [("apple", "Robot1"),
                                                                            ("banana", "Robot2")]
    assert main(["run", "--kb", *kb_files, "--assignments", str(assignments_path), "--seed", "7"]) == 0
    records = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
    assert {r["robot_id"] for r in records} == {"Robot1", "Robot2"}


@pytest.mark.parametrize("command", ["learn-floor", "learn-sessions", "run"])
def test_a_command_run_twice_writes_the_same_bytes(tmp_path, kb_files, command):
    # Every random draw comes from --seed, so two runs of one argv write identical files.
    from homeplan.experiment import floor_robot
    from homeplan.world import generate_floor_sessions

    env = load_environment("paper_home")
    sessions = generate_floor_sessions(env, floor_robot(env, "1F", "Robot1"), np.random.default_rng(7), 5)
    sessions_path = tmp_path / "sessions.json"
    sessions_path.write_text(json.dumps([{"position": s.position.tolist(), "object_labels": s.object_labels,
                                          "place_words": s.place_words} for s in sessions]))
    # Six fetches, so that a trace drawn from another seed would differ.
    assignments_path = tmp_path / "assignments.json"
    assignments_path.write_text(json.dumps(
        [{"verb": "bring", "target_object": target, "destination": None, "robot_id": robot_id}
         for target, robot_id in (("apple", "Robot1"), ("banana", "Robot2"), ("towel", "Robot1"),
                                  ("cup", "Robot2"), ("orange", "Robot1"), ("pig_doll", "Robot2"))]))
    argv = {"learn-floor": ["learn", "--floor", "1F", "--visits", "5", "--seed", "7"],
            "learn-sessions": ["learn", "--sessions", str(sessions_path), "--seed", "7"],
            "run": ["run", "--kb", *kb_files, "--assignments", str(assignments_path), "--seed", "7"]}[command]
    first, second = tmp_path / "first", tmp_path / "second"
    assert main([*argv, "--out", str(first)]) == 0
    assert main([*argv, "--out", str(second)]) == 0
    assert first.read_bytes() == second.read_bytes()


@pytest.mark.parametrize("argv", [
    ["allocate", "--text", "Could you please find apple. I need you to locate banana."],
    ["suite", "--seed", "7"],
], ids=["allocate", "suite"])
def test_knowledge_bases_that_share_a_robot_id_are_rejected(tmp_path, argv, capsys):
    # Extracted without --robot, both floors' knowledge bases are Robot1's.
    env = load_environment("paper_home")
    paths = [str(tmp_path / f"{floor}.json") for floor in ("1F", "2F")]
    for floor, path in zip(("1F", "2F"), paths):
        save_knowledge(knowledge_from_environment(env, floor, "Robot1"), path)
    out_path = tmp_path / "out.json"
    assert main([*argv, "--kb", *paths, "--out", str(out_path)]) == 1
    assert capsys.readouterr().err == "error: several knowledge bases have robot_id Robot1\n"
    assert not out_path.exists()


def test_suite_command_with_prebuilt_kbs(tmp_path, kb_files, capsys):
    out_path = tmp_path / "report.json"
    code = main(["suite", "--env", "paper_home", "--backend", "rule", "--seed", "7",
                 "--kb", *kb_files, "--out", str(out_path)])
    assert code == 0
    stdout = capsys.readouterr().out
    assert "Method" in stdout
    assert "[reported] proposed" in stdout
    assert stdout.endswith(f"\n\nreport written to {out_path}\n")
    text = out_path.read_text()
    payload = json.loads(text)
    assert payload["totals"]["proposed"] == [50, 50]
    assert text == json.dumps(payload, indent=2) + "\n"  # one format, as every JSON writer writes
    want = run_suite(seed=7, kb_paths=tuple(kb_files)).to_dict()
    del payload["elapsed_seconds"], want["elapsed_seconds"]
    assert payload == want


def test_the_order_of_suite_kb_files_changes_nothing(tmp_path, kb_files, capsys):
    # Each robot stands on its base's floor, and the suite orders the bases by floor.
    reports = []
    for name, paths in (("forward", kb_files), ("backward", kb_files[::-1])):
        out_path = tmp_path / f"{name}.json"
        assert main(["suite", "--seed", "7", "--kb", *paths, "--out", str(out_path)]) == 0
        reports.append(json.loads(out_path.read_text()))
        del reports[-1]["elapsed_seconds"]
    assert reports[0] == reports[1]


@pytest.mark.parametrize("command", ["run", "suite"])
def test_a_knowledge_base_whose_rooms_span_two_floors_is_rejected(tmp_path, kb_files, command, capsys):
    kb = json.loads(Path(kb_files[0]).read_text())
    kb["room_names"][-1] = "child_room"  # a 2F room in Robot1's 1F base
    Path(kb_files[0]).write_text(json.dumps(kb))
    assignments_path = tmp_path / "assignments.json"
    assignments_path.write_text(json.dumps(
        [{"verb": "bring", "target_object": "apple", "destination": None, "robot_id": "Robot1"}]))
    out_path = tmp_path / "out"
    argv = {"run": ["run", "--assignments", str(assignments_path)], "suite": ["suite"]}[command]
    assert main([*argv, "--kb", *kb_files, "--out", str(out_path)]) == 1
    assert capsys.readouterr().err == "error: knowledge base 'Robot1' does not map to one floor\n"
    assert not out_path.exists()


def test_seed_env_var_does_not_seed_the_suite(tmp_path, kb_files, monkeypatch, capsys):
    # The seed comes from --seed alone: a stray variable in the shell changes nothing.
    monkeypatch.setenv("HOMEPLAN_SEED", "31")
    out_path = tmp_path / "report.json"
    code = main(["suite", "--env", "paper_home", "--kb", *kb_files, "--out", str(out_path)])
    assert code == 0
    assert json.loads(out_path.read_text())["seed"] == 0


@pytest.mark.parametrize("argv", [
    ["extract", "--model-path", "model.json", "--floor", "1F", "--seed", "3"],
    ["prompt", "--kb", "kb.json", "--seed", "3"],
    ["decompose", "--text", "Bring me an apple.", "--seed", "3"],
    ["allocate", "--kb", "kb.json", "--text", "Bring me an apple.", "--seed", "3"],
    ["learn", "--floor", "2F", "--robot", "Robot2"],
    ["suite", "--strategies", "random"],
    ["extract", "--model-path", "model.json", "--floor", "1F", "--threshold", "0.1"],
    ["learn", "--floor", "1F", "--particles", "4"],
    ["learn", "--floor", "1F", "--lag", "3"],
], ids=["extract-seed", "prompt-seed", "decompose-seed", "allocate-seed", "learn-robot", "suite-strategies",
        "extract-threshold", "learn-particles", "learn-lag"])
def test_a_flag_the_command_does_not_read_is_rejected(capsys, argv):
    with pytest.raises(SystemExit) as excinfo:
        main(argv)
    assert excinfo.value.code == 2
    assert f"unrecognized arguments: {' '.join(argv[-2:])}" in capsys.readouterr().err


def test_domain_errors_exit_nonzero(capsys):
    code = main(["decompose", "--env", "paper_home", "--text", "Sing me a song."])
    assert code == 1
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("args, message", [
    (["--env", "robocup_arena", "--floor", "zone1"], "need at least as many rooms as regions"),
    (["--floor", "3F"], "0 candidate rooms"),
    (["--floor", "1F"], "heard none of the room names"),
])
def test_extract_configuration_errors_exit_nonzero(tmp_path, capsys, args, message):
    model_path = tmp_path / "model.json"
    save_model(random_model(np.random.default_rng(0), 5, 5), model_path)
    assert main(["extract", "--model-path", str(model_path), *args]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert message in err and "Traceback" not in err


def test_extract_needs_the_model_floor(tmp_path, capsys):
    # Without --floor a 2F model's regions were named after rooms of the whole home, 1F rooms among them.
    model_path = tmp_path / "model.json"
    assert main(["learn", "--floor", "2F", "--visits", "3", "--out", str(model_path)]) == 0
    capsys.readouterr()
    with pytest.raises(SystemExit) as excinfo:
        main(["extract", "--model-path", str(model_path), "--robot", "Robot2"])
    assert excinfo.value.code == 2
    assert "the following arguments are required: --floor" in capsys.readouterr().err


def test_decompose_without_placed_objects_is_an_error(tmp_path, capsys):
    doc = environment_to_dict(load_environment("paper_home"))
    doc["placements"] = {}
    env_path = tmp_path / "env.json"
    env_path.write_text(json.dumps(doc))
    assert main(["decompose", "--env", str(env_path), "--text", "Bring me an apple."]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert "object_vocab" in err


@pytest.mark.parametrize("argv", [["learn", "--floor", "1F"],
                                  ["run", "--kb", "kb.json", "--assignments", "a.json"],
                                  ["suite"]], ids=["learn", "run", "suite"])
def test_non_integer_seed_flag_is_an_error(capsys, argv):
    with pytest.raises(SystemExit) as excinfo:
        main([*argv, "--seed", "abc"])
    assert excinfo.value.code == 2
    assert "argument --seed: invalid int value: 'abc'" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [["suite", "--seed", "-1"], ["learn", "--floor", "1F", "--seed", "-3"],
                                  ["run", "--kb", "kb.json", "--assignments", "a.json", "--seed", "-5"]],
                         ids=["suite", "learn", "run"])
def test_negative_seed_flag_is_an_error(capsys, argv):
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err == f"error: --seed must be a non-negative integer, got {argv[-1]}\n"


@pytest.mark.parametrize("argv", [["learn", "--floor", "1F", "--visits", "0"], ["suite", "--visits", "-3"]],
                         ids=["learn", "suite"])
def test_visit_count_below_one_is_an_error(capsys, argv):
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ")
    assert f"visits_per_room must be an integer >= 1, got {argv[-1]}" in captured.err
    assert captured.out == ""


def test_unreadable_replay_response_is_an_error(tmp_path, capsys):
    text = "Get ready for a field trip."
    prompt = render_decomposition_prompt(text, sorted(load_environment("paper_home").placements))
    digest = ReplayBackend.request_hash(prompt)
    (tmp_path / f"{digest}.txt").write_bytes(b"SubTask 1: Bring a \xff\xfe.")
    assert main(["decompose", "--backend", "replay", "--replay-dir", str(tmp_path), "--text", text]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert digest in err


def test_empty_instruction_text_is_an_error(capsys):
    assert main(["decompose", "--env", "paper_home", "--text", ""]) == 1
    assert capsys.readouterr().err.startswith("error: ")


def test_unknown_subtask_verb_is_an_error(tmp_path, kb_files, capsys):
    path = tmp_path / "subtasks.json"
    path.write_text(json.dumps([{"verb": "jump", "target_object": "apple"}]))
    assert main(["allocate", "--env", "paper_home", "--kb", *kb_files, "--subtasks", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path}: entry 0: ")
    assert "jump" in err


def test_assignment_without_robot_id_is_an_error(tmp_path, kb_files, capsys):
    path = tmp_path / "assignments.json"
    path.write_text(json.dumps([{"verb": "bring", "target_object": "apple"}]))
    assert main(["run", "--env", "paper_home", "--kb", *kb_files, "--assignments", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert "robot_id" in err


@pytest.mark.parametrize("entry, where", [
    ({"destination": {"a": 1}}, "destination"),
    ({"destination": []}, "destination"),
    ({"destination": ""}, "destination"),
    ({"robot_id": ["Robot1"]}, "robot_id"),
], ids=["object-destination", "list-destination", "empty-destination", "list-robot-id"])
def test_malformed_assignment_is_an_error(tmp_path, kb_files, capsys, entry, where):
    path = tmp_path / "assignments.json"
    path.write_text(json.dumps([{"verb": "bring", "target_object": "apple", "robot_id": "Robot1", **entry}]))
    assert main(["run", "--env", "paper_home", "--kb", *kb_files, "--assignments", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path}: entry 0: ")
    assert where in err
    assert "Traceback" not in err


@pytest.mark.parametrize("key, value", [("alpha", 0), ("kappa", "x")])
def test_bad_model_hyperparameters_are_an_error(tmp_path, capsys, key, value):
    model_path = tmp_path / "model.json"
    assert main(["learn", "--env", "robocup_arena", "--floor", "zone2", "--visits", "3",
                 "--out", str(model_path)]) == 0
    model = json.loads(model_path.read_text())
    model["hyperparameters"][key] = value
    model_path.write_text(json.dumps(model))
    capsys.readouterr()
    assert main(["extract", "--env", "robocup_arena", "--floor", "zone2",
                 "--model-path", str(model_path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert key in err


@pytest.mark.parametrize("edit", [
    lambda m: m["pi"].__setitem__(1, "x"),
    lambda m: m["regions"][0].__setitem__("cov", [[1, 0], [0]]),
    lambda m: m.__setitem__("pi", [2 * p for p in m["pi"]]),
    lambda m: m.__delitem__("regions"),
], ids=["non-numeric pi", "ragged cov", "pi sums to 2", "no regions"])
def test_bad_model_documents_are_an_error(tmp_path, capsys, edit):
    model_path = tmp_path / "model.json"
    assert main(["learn", "--env", "paper_home", "--floor", "1F", "--visits", "3",
                 "--out", str(model_path)]) == 0
    model = json.loads(model_path.read_text())
    edit(model)
    model_path.write_text(json.dumps(model))
    capsys.readouterr()
    assert main(["extract", "--model-path", str(model_path), "--floor", "1F"]) == 1
    assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize("key", ["room_names", "place_vocab"])
def test_knowledge_base_with_null_container_is_an_error(kb_files, capsys, key):
    data = json.loads(Path(kb_files[0]).read_text())
    data[key] = None
    Path(kb_files[0]).write_text(json.dumps(data))
    assert main(["prompt", "--kb", *kb_files, "--kind", "presence_table"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert key in err



def test_prompt_with_no_text_to_render_is_an_error(tmp_path, capsys):
    path = tmp_path / "empty.json"
    path.write_text(json.dumps({"robot_id": "Robot1", "room_names": ["kitchen"],
                                "place_vocab": [[]], "presence_table": {}}))
    assert main(["prompt", "--kb", str(path), "--kind", "objects"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "objects" in err


def test_closed_stdout_exits_quietly(kb_files):
    # The pipe's read end is closed before the command starts, so its first write fails.
    read_end, write_end = os.pipe()
    os.close(read_end)
    src = str(Path(homeplan.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    try:
        result = subprocess.run(
            [sys.executable, "-m", "homeplan.cli", "prompt", "--kb", *[kb_files[0]] * 3,
             "--kind", "presence_table"],
            stdout=write_end, stderr=subprocess.PIPE, text=True, env=env)
    finally:
        os.close(write_end)
    assert "Traceback" not in result.stderr
    assert result.stderr == ""
    assert result.returncode == 1


UNREADABLE = {
    "missing": None,
    "not JSON": b"not json",
    "not UTF-8": b'{"a": "\xff"}',
    "a directory": "dir",
}


def _unreadable(tmp_path, kind) -> str:
    path = tmp_path / "input.json"
    content = UNREADABLE[kind]
    if content == "dir":
        path.mkdir()
    elif content is not None:
        path.write_bytes(content)
    return str(path)


@pytest.mark.parametrize("kind", UNREADABLE)
@pytest.mark.parametrize("command", ["prompt --kb", "run --assignments", "suite --kb",
                                     "learn --sessions", "extract --model-path",
                                     "allocate --subtasks", "decompose --env"])
def test_an_unreadable_input_file_is_an_error(tmp_path, kb_files, capsys, command, kind):
    name, flag = command.split()
    path = _unreadable(tmp_path, kind)
    argv = {
        "prompt": ["prompt", "--kb", path],
        "run": ["run", "--kb", *kb_files, "--assignments", path],
        "suite": ["suite", "--kb", path],
        "learn": ["learn", "--sessions", path],
        "extract": ["extract", "--model-path", path, "--floor", "1F"],
        "allocate": ["allocate", "--kb", *kb_files, "--subtasks", path],
        "decompose": ["decompose", "--env", path, "--text", "Find the apple."],
    }[name]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert path in err or "neither a builtin environment" in err


@pytest.mark.parametrize("sessions, where", [
    ([{"position": [0, 0]}], "object_labels"),
    ({"position": [0, 0]}, "sessions"),
    ([None], "session 0"),
    ([{"position": [0], "object_labels": [], "place_words": []}], "position"),
    ([{"position": ["0", 1], "object_labels": [], "place_words": []}], "position"),
    ([{"position": [True, 1], "object_labels": [], "place_words": []}], "position"),
    ([{"position": [1e400, 1], "object_labels": [], "place_words": []}], "position"),
    ([{"position": [0, 0], "object_labels": "cup", "place_words": []}], "object_labels"),
    ([{"position": [0, 0], "object_labels": [1], "place_words": []}], "object_labels"),
    ([{"position": [0, 0], "object_labels": [], "place_words": [None]}], "place_words"),
    ([{"position": [0, 0], "object_labels": [], "place_words": [], "room_hint": 3}], "room_hint"),
    ([{"position": [0, 0], "object_labels": [], "place_words": ["kitchen"]},
      {"position": [1e-170, 0], "object_labels": [], "place_words": ["kitchen"]}],
     "squared deviations do not underflow"),
])
def test_bad_session_file_is_an_error(tmp_path, capsys, sessions, where):
    path, out = tmp_path / "sessions.json", tmp_path / "model.json"
    path.write_text(json.dumps(sessions))
    assert main(["learn", "--sessions", str(path), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert where in err
    assert not out.exists()


def test_commands_import_only_what_they_use(tmp_path, kb_files):
    """In a fresh interpreter no stage loads scipy, which only the tests use, and none loads
    the HTTP stack: not planning, not a learn, not an extract and not a suite."""
    script = textwrap.dedent("""
        import json, sys
        from pathlib import Path
        def loaded():
            heavy = ("scipy", "urllib.request", "http.client")
            return [m for m in heavy if m in sys.modules]
        out = Path(sys.argv[2])
        import homeplan.cli
        stages = {"import": loaded()}
        assert homeplan.cli.main(["decompose", "--text", "Bring me an apple.", "--out", str(out / "d.txt")]) == 0
        assert homeplan.cli.main(["prompt", "--kb", sys.argv[1], "--out", str(out / "p.txt")]) == 0
        stages["decompose and prompt"] = loaded()
        import numpy as np
        from homeplan.learner import learn_fixed_lag
        from homeplan.spatial import Session
        learn_fixed_lag([Session(np.zeros(2), ["cup"], ["kitchen"])], num_regions=1)
        stages["learn"] = loaded()
        assert homeplan.cli.main(["learn", "--floor", "1F", "--visits", "2", "--out", str(out / "m.json")]) == 0
        assert homeplan.cli.main(["extract", "--model-path", str(out / "m.json"), "--floor", "1F",
                                  "--out", str(out / "kb.json")]) == 0
        stages["extract"] = loaded()
        assert homeplan.cli.main(["suite", "--visits", "5", "--out", str(out / "suite.json")]) == 0
        stages["suite --visits 5"] = loaded()
        (out / "stages.json").write_text(json.dumps(stages))
    """)
    src = str(Path(homeplan.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    subprocess.run([sys.executable, "-c", script, kb_files[0], str(tmp_path)],
                   capture_output=True, text=True, env=env, check=True)
    stages = json.loads((tmp_path / "stages.json").read_text())
    assert stages == {"import": [], "decompose and prompt": [], "learn": [], "extract": [],
                      "suite --visits 5": []}
