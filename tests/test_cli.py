import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import homeplan

from homeplan.cli import main
from homeplan.knowledge import PROMPTS, knowledge_from_environment, save_knowledge
from homeplan.world import load_environment


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
                 "--visits", "6", "--particles", "4", "--lag", "3",
                 "--seed", "3", "--out", str(model_path)])
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


def test_learn_from_sessions_file(tmp_path, capsys):
    import numpy as np

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

    code = main(["learn", "--sessions", str(sessions_path), "--regions", "2",
                 "--particles", "4", "--lag", "3", "--seed", "2"])
    assert code == 0
    model = json.loads(capsys.readouterr().out)
    assert len(model["regions"]) == 2
    assert "cup" in model["vocab_objects"]


def test_learn_requires_floor_or_sessions(capsys):
    assert main(["learn"]) == 1
    assert "error:" in capsys.readouterr().err


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
    assert main(["prompt", "--kb", *kb_files, "--kind", kind]) == 0
    assert capsys.readouterr().out.strip()


def test_decompose_command(capsys):
    code = main(["decompose", "--env", "paper_home",
                 "--text", "Could you please find apple."])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload == [{"verb": "find", "target_object": "apple", "destination": None}]


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


def test_suite_command_with_prebuilt_kbs(tmp_path, kb_files, capsys):
    out_path = tmp_path / "report.json"
    code = main(["suite", "--env", "paper_home", "--backend", "rule", "--seed", "7",
                 "--kb", *kb_files, "--out", str(out_path)])
    assert code == 0
    stdout = capsys.readouterr().out
    assert "Method" in stdout
    assert "[reported] proposed" in stdout
    payload = json.loads(out_path.read_text())
    assert payload["totals"]["proposed"] == [50, 50]


def test_seed_env_var_fallback(tmp_path, kb_files, monkeypatch, capsys):
    monkeypatch.setenv("HOMEPLAN_SEED", "31")
    out_path = tmp_path / "report.json"
    code = main(["suite", "--env", "paper_home", "--strategies", "random",
                 "--kb", *kb_files, "--out", str(out_path)])
    assert code == 0
    assert json.loads(out_path.read_text())["seed"] == 31


def test_domain_errors_exit_nonzero(capsys):
    code = main(["decompose", "--env", "paper_home", "--text", "Sing me a song."])
    assert code == 1
    assert "error:" in capsys.readouterr().err


def test_non_integer_seed_env_var_is_an_error(monkeypatch, capsys):
    monkeypatch.setenv("HOMEPLAN_SEED", "abc")
    assert main(["learn", "--floor", "1F"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert "HOMEPLAN_SEED" in err


def test_empty_instruction_text_is_an_error(capsys):
    assert main(["decompose", "--env", "paper_home", "--text", ""]) == 1
    assert capsys.readouterr().err.startswith("error: ")


def test_unknown_subtask_verb_is_an_error(tmp_path, kb_files, capsys):
    path = tmp_path / "subtasks.json"
    path.write_text(json.dumps([{"verb": "jump", "target_object": "apple"}]))
    assert main(["allocate", "--env", "paper_home", "--kb", *kb_files, "--subtasks", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert "jump" in err


def test_assignment_without_robot_id_is_an_error(tmp_path, kb_files, capsys):
    path = tmp_path / "assignments.json"
    path.write_text(json.dumps([{"verb": "bring", "target_object": "apple"}]))
    assert main(["run", "--env", "paper_home", "--kb", *kb_files, "--assignments", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert "robot_id" in err


@pytest.mark.parametrize("key, value", [("alpha", 0), ("V0", "x")])
def test_bad_model_hyperparameters_are_an_error(tmp_path, capsys, key, value):
    model_path = tmp_path / "model.json"
    assert main(["learn", "--env", "robocup_arena", "--floor", "zone2", "--visits", "3",
                 "--particles", "2", "--lag", "2", "--out", str(model_path)]) == 0
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
                 "--particles", "2", "--lag", "2", "--out", str(model_path)]) == 0
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
        "extract": ["extract", "--model-path", path],
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
])
def test_bad_session_file_is_an_error(tmp_path, capsys, sessions, where):
    path = tmp_path / "sessions.json"
    path.write_text(json.dumps(sessions))
    assert main(["learn", "--sessions", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert where in err


def test_commands_import_only_what_they_use(tmp_path, kb_files):
    """In a fresh interpreter, planning commands load neither scipy nor the HTTP stack; a learn loads
    scipy.special."""
    script = textwrap.dedent("""
        import json, sys
        def loaded():
            heavy = ("scipy", "scipy.special", "urllib.request", "http.client")
            return [m for m in heavy if m in sys.modules]
        import homeplan.cli
        stages = {"import": loaded()}
        assert homeplan.cli.main(["decompose", "--text", "Bring me an apple.", "--out", sys.argv[2]]) == 0
        assert homeplan.cli.main(["prompt", "--kb", sys.argv[1], "--out", sys.argv[2]]) == 0
        stages["decompose and prompt"] = loaded()
        import numpy as np
        from homeplan.learner import learn_fixed_lag
        from homeplan.spatial import Hyperparameters, Session
        session = Session(np.zeros(2), ["cup"], ["kitchen"])
        hp = Hyperparameters(num_particles=2, lag_window=1)
        learn_fixed_lag([session], hp, num_concepts=1, num_regions=1)
        stages["learn"] = loaded()
        print(json.dumps(stages))
    """)
    src = str(Path(homeplan.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    result = subprocess.run([sys.executable, "-c", script, kb_files[0], str(tmp_path / "out.txt")],
                            capture_output=True, text=True, env=env, check=True)
    stages = json.loads(result.stdout)
    assert stages["import"] == []
    assert stages["decompose and prompt"] == []
    assert {"scipy", "scipy.special"} <= set(stages["learn"])
