"""Command-line interface: learn, extract, prompt, decompose, allocate, run, suite."""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

import numpy as np

from . import experiment, knowledge, learner, planner, spatial, world
from .errors import (
    ConfigurationError,
    HomeplanError,
    SchemaError,
    is_finite_real,
    read_json,
    require,
    require_fields,
)
from .executor import ExecutionPolicy, run_assignments, traces_to_jsonl

SEED_ENV_VAR = "HOMEPLAN_SEED"


def _default_seed() -> int:
    value = os.environ.get(SEED_ENV_VAR, "0")
    try:
        return int(value)
    except ValueError:
        raise ConfigurationError(f"${SEED_ENV_VAR} must be an integer, got {value!r}") from None


def _emit(text: str, out: str | None) -> None:
    if out:
        Path(out).write_text(text + ("" if text.endswith("\n") else "\n"))
    else:
        print(text)


def _add_common(parser: argparse.ArgumentParser, env: bool = True) -> None:
    if env:
        parser.add_argument("--env", default="paper_home",
                            help="builtin environment name or JSON path")
    parser.add_argument("--seed", type=int, default=None,
                        help=f"random seed (default: ${SEED_ENV_VAR} or 0)")
    parser.add_argument("--out", default=None, help="output path (default: stdout)")


def _seed_of(args) -> int:
    return _default_seed() if args.seed is None else args.seed


def _add_backend(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--backend", choices=("rule", "remote", "replay"), default="rule")
    parser.add_argument("--replay-dir", default=None, help="canned response directory (replay backend)")
    parser.add_argument("--endpoint", default=None, help="chat completion URL (remote backend)")
    parser.add_argument("--model", default="gpt-4", help="remote model name")


def _backend_of(args) -> planner.PlannerBackend:
    return planner.make_backend(args.backend, args.replay_dir, args.endpoint, args.model)


def _load_sessions(path: str) -> list[spatial.Session]:
    """The sessions of a JSON list of session objects, each checked here, once."""
    sessions = []
    for i, item in enumerate(require(read_json(path, "session"), list, f"{path}: the sessions")):
        where = f"{path}: session {i}"
        position, labels, words = require_fields(item, ("position", "object_labels", "place_words"), where)
        if not (isinstance(position, list) and len(position) == 2 and all(map(is_finite_real, position))):
            raise SchemaError(f"{where}: position must be two finite numbers")
        hint = item.get("room_hint")
        if hint is not None:
            require(hint, str, f"{where}: room_hint")
        sessions.append(spatial.Session(
            position=np.asarray(position, dtype=float),
            object_labels=list(require(labels, list, f"{where}: object_labels", str)),
            place_words=list(require(words, list, f"{where}: place_words", str)),
            room_hint=hint,
        ))
    return sessions


def _read_subtasks(path: str, what: str, *extra_keys: str) -> list[tuple[planner.Subtask, dict]]:
    """Each entry of a JSON list of subtask objects, as (subtask, entry)."""
    data = read_json(path, what)
    if not isinstance(data, list) or not all(isinstance(d, dict) for d in data):
        raise SchemaError(f"{path}: expected a JSON list of objects")
    for i, d in enumerate(data):
        missing = [k for k in ("verb", "target_object", *extra_keys) if k not in d]
        if missing:
            raise SchemaError(f"{path}: entry {i} lacks keys {missing}")
    return [(planner.Subtask(d["verb"], d["target_object"], d.get("destination")), d) for d in data]


def cmd_learn(args) -> int:
    seed = _seed_of(args)
    hp = spatial.Hyperparameters(num_particles=args.particles, lag_window=args.lag)
    if args.sessions:
        regions = args.regions or 5
        model = learner.learn_fixed_lag(_load_sessions(args.sessions), hp, seed=seed,
                                        num_concepts=regions, num_regions=regions)
    elif args.floor:
        env = world.load_environment(args.env)
        robot = experiment.floor_robot(env, args.floor, args.robot)
        model = experiment.learn_floor_model(env, robot, seed, args.visits, hp=hp, num_regions=args.regions)
    else:
        raise ConfigurationError("learn needs --sessions or --floor")
    _emit(json.dumps(spatial.model_to_dict(model), indent=2), args.out)
    return 0


def cmd_extract(args) -> int:
    model = spatial.load_model(args.model_path)
    env = world.load_environment(args.env)
    rooms = env.rooms_on(args.floor) if args.floor else env.rooms
    room_names = knowledge.match_room_names(model, rooms)
    kb = knowledge.extract_knowledge(model, room_names, vocab_threshold=args.threshold,
                                     robot_id=args.robot)
    _emit(json.dumps(knowledge.knowledge_to_dict(kb), indent=2), args.out)
    return 0


def cmd_prompt(args) -> int:
    kbs = [knowledge.load_knowledge(p) for p in args.kb]
    text = knowledge.PROMPTS[args.kind](kbs)
    if not text:
        raise ConfigurationError(f"the {args.kind} prompt of these knowledge bases is empty")
    _emit(text, args.out)
    return 0


def cmd_decompose(args) -> int:
    env = world.load_environment(args.env)
    backend = _backend_of(args)
    instruction = planner.Instruction(args.text)
    subtasks = planner.decompose(instruction, sorted(env.placements), backend=backend)
    payload = [{"verb": s.verb, "target_object": s.target_object, "destination": s.destination}
               for s in subtasks]
    _emit(json.dumps(payload, indent=2), args.out)
    return 0


def cmd_allocate(args) -> int:
    env = world.load_environment(args.env)
    backend = _backend_of(args)
    kbs = [knowledge.load_knowledge(p) for p in args.kb]
    if args.text:
        instruction = planner.Instruction(args.text)
        subtasks = planner.decompose(instruction, sorted(env.placements), backend=backend)
    else:
        if not args.subtasks:
            raise ConfigurationError("allocate needs --text or --subtasks")
        subtasks = [subtask for subtask, _ in _read_subtasks(args.subtasks, "subtask")]
    assignments = planner.allocate(subtasks, kbs, backend=backend)
    payload = [
        {
            "verb": a.subtask.verb,
            "target_object": a.subtask.target_object,
            "destination": a.subtask.destination,
            "robot_id": a.robot_id,
            "justification": None if a.justification is None else list(a.justification),
        }
        for a in assignments
    ]
    _emit(json.dumps(payload, indent=2), args.out)
    return 0


def cmd_run(args) -> int:
    seed = _seed_of(args)
    env = world.load_environment(args.env)
    kbs = [knowledge.load_knowledge(p) for p in args.kb]
    assignments = [planner.Assignment(subtask, d["robot_id"])
                   for subtask, d in _read_subtasks(args.assignments, "assignment", "robot_id")]
    robots = []
    for kb in kbs:
        floors = {env.floor_of_room(r) for r in kb.room_names if env.has_room(r)}
        if len(floors) != 1:
            raise ConfigurationError(f"knowledge base {kb.robot_id!r} does not map to one floor")
        robots.append(experiment.floor_robot(env, floors.pop(), kb.robot_id))
    sim = world.World(env, robots, seed=seed)
    traces = run_assignments(sim, assignments, kbs, policy=ExecutionPolicy())
    _emit(traces_to_jsonl(traces), args.out)
    return 0


def cmd_suite(args) -> int:
    cfg = experiment.SuiteConfig(
        env=args.env,
        seed=_seed_of(args),
        strategies=tuple(args.strategies.split(",")),
        backend=_backend_of(args),
        kb_paths=tuple(args.kb) if args.kb else None,
        visits_per_room=args.visits,
        out=args.out,
    )
    report = experiment.run_suite(cfg)
    print(report.text_table())
    if args.out:
        print(f"\nreport written to {args.out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="homeplan",
                                     description="Multi-robot household task allocation toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("learn", help="learn a spatial concept model from sessions")
    _add_common(p)
    p.add_argument("--floor", default=None, help="generate the observation protocol on this floor")
    p.add_argument("--sessions", default=None, help="JSON session file instead of generation")
    p.add_argument("--robot", default="Robot1")
    p.add_argument("--visits", type=int, default=30, help="visits per room")
    p.add_argument("--particles", type=int, default=30)
    p.add_argument("--lag", type=int, default=10)
    p.add_argument("--regions", type=int, default=None, help="concept/region count (default: room count)")
    p.set_defaults(func=cmd_learn)

    p = sub.add_parser("extract", help="turn a model into a knowledge base")
    _add_common(p)
    p.add_argument("--model-path", required=True, dest="model_path")
    p.add_argument("--floor", default=None, help="restrict room labels to this floor")
    p.add_argument("--robot", default="Robot1")
    p.add_argument("--threshold", type=float, default=0.05)
    p.set_defaults(func=cmd_extract)

    p = sub.add_parser("prompt", help="render a prompt component from knowledge bases")
    _add_common(p, env=False)
    p.add_argument("--kb", nargs="+", required=True)
    p.add_argument("--kind", default="presence_table",
                   choices=tuple(knowledge.PROMPTS))
    p.set_defaults(func=cmd_prompt)

    p = sub.add_parser("decompose", help="split an instruction into subtasks")
    _add_common(p)
    _add_backend(p)
    p.add_argument("--text", required=True)
    p.set_defaults(func=cmd_decompose)

    p = sub.add_parser("allocate", help="assign subtasks to robots by knowledge")
    _add_common(p)
    _add_backend(p)
    p.add_argument("--kb", nargs="+", required=True)
    p.add_argument("--text", default=None, help="instruction to decompose first")
    p.add_argument("--subtasks", default=None, help="JSON subtask file")
    p.set_defaults(func=cmd_allocate)

    p = sub.add_parser("run", help="execute assignments and emit a JSONL trace")
    _add_common(p)
    p.add_argument("--assignments", required=True, help="JSON assignment file")
    p.add_argument("--kb", nargs="+", required=True)
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("suite", help="run the full allocation experiment")
    _add_common(p)
    _add_backend(p)
    p.add_argument("--strategies", default="proposed,random,commonsense")
    p.add_argument("--kb", nargs="*", default=None, help="pre-built knowledge bases")
    p.add_argument("--visits", type=int, default=30)
    p.set_defaults(func=cmd_suite)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except HomeplanError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
