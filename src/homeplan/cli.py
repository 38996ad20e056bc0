"""Command-line interface: learn, extract, prompt, decompose, allocate, run, suite."""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import asdict
from pathlib import Path

from . import experiment, knowledge, learner, planner, spatial, world
from .errors import (
    ConfigurationError,
    HomeplanError,
    SchemaError,
    read_json,
    require,
    require_fields,
    write_json,
)
from .executor import ExecutionPolicy, run_assignments, traces_to_jsonl


def _emit(text: str, out: str | None) -> None:
    """Write the non-JSON text ``text`` to ``out`` or stdout, ending in one newline."""
    if out:
        Path(out).write_text(text + ("" if text.endswith("\n") else "\n"))
    else:
        print(text)


def _seed_of(args) -> int:
    """``--seed``, which must be a non-negative integer."""
    if args.seed < 0:
        raise ConfigurationError(f"--seed must be a non-negative integer, got {args.seed}")
    return args.seed


def _backend_of(args) -> planner.PlannerBackend:
    return planner.make_backend(args.backend, args.replay_dir, args.endpoint, args.model)


def _read_entries(path: str, what: str, keys: tuple[str, ...], build) -> list:
    """``build(*values of keys, entry)`` of each object of the JSON list in the ``what`` file
    ``path``, which checks it; an error names the entry by its index."""
    built = []
    for i, entry in enumerate(require(read_json(path, what), list, f"{path}: the {what}s")):
        where = f"{path}: entry {i}"
        values = require_fields(entry, keys, where)
        try:
            built.append(build(*values, entry))
        except SchemaError as exc:
            raise SchemaError(f"{where}: {exc}") from None
    return built


def cmd_learn(args) -> int:
    seed = _seed_of(args)
    if args.sessions is not None:
        for flag, value in (("--env", args.env), ("--visits", args.visits)):
            if value is not None:
                raise ConfigurationError(f"{flag} is read only with --floor, not with --sessions")
        regions = 5 if args.regions is None else args.regions
        entries = require(read_json(args.sessions, "session"), list, f"{args.sessions}: the sessions")
        rows = [require_fields(entry, ("position", "object_labels", "place_words"), f"{args.sessions}: session {i}")
                for i, entry in enumerate(entries)]
        try:
            stream = spatial.SessionStream.build(rows, [entry.get("room_hint") for entry in entries])
        except SchemaError as exc:
            raise SchemaError(f"{args.sessions}: {exc}") from None
        model = learner.learn_fixed_lag(stream, seed=seed, num_regions=regions)
    else:
        env = world.load_environment("paper_home" if args.env is None else args.env)
        robot = experiment.floor_robot(env, args.floor, "learner")  # the id never reaches the model
        visits = world.VISITS_PER_ROOM if args.visits is None else args.visits
        model = experiment.learn_floor_model(env, robot, seed, visits, num_regions=args.regions)
    write_json(spatial.model_to_dict(model), args.out)
    return 0


def cmd_extract(args) -> int:
    model = spatial.load_model(args.model_path)
    env = world.load_environment(args.env)
    kb = knowledge.extract_knowledge(model, [r.name for r in env.rooms_on(args.floor)], robot_id=args.robot)
    write_json(knowledge.knowledge_to_dict(kb), args.out)
    return 0


def cmd_prompt(args) -> int:
    if args.kind == "place_vocab" and len(args.kb) > 1:
        raise ConfigurationError("the place_vocab prompt renders one knowledge base; give one --kb")
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
    write_json([asdict(s) for s in subtasks], args.out)
    return 0


def cmd_allocate(args) -> int:
    env = world.load_environment(args.env)
    backend = _backend_of(args)
    kbs = [knowledge.load_knowledge(p) for p in args.kb]
    if args.text is not None:
        instruction = planner.Instruction(args.text)
        subtasks = planner.decompose(instruction, sorted(env.placements), backend=backend)
    else:
        subtasks = _read_entries(args.subtasks, "subtask", ("verb", "target_object"),
                                 lambda verb, target, d: planner.Subtask(verb, target, d.get("destination")))
    assignments = planner.allocate(subtasks, kbs, backend=backend)
    write_json([{**asdict(a.subtask), "robot_id": a.robot_id, "justification": a.justification}
                for a in assignments], args.out)
    return 0


def cmd_run(args) -> int:
    seed = _seed_of(args)
    env = world.load_environment(args.env)
    kbs = [knowledge.load_knowledge(p) for p in args.kb]
    assignments = _read_entries(args.assignments, "assignment", ("verb", "target_object", "robot_id"),
                                lambda verb, target, robot_id, d: planner.Assignment(
                                    planner.Subtask(verb, target, d.get("destination")), robot_id))
    sim = world.World(env, experiment.knowledge_robots(env, kbs), seed=seed)
    traces = run_assignments(sim, assignments, kbs, policy=ExecutionPolicy())
    _emit(traces_to_jsonl(traces), args.out)
    return 0


def cmd_suite(args) -> int:
    report = experiment.run_suite(env=args.env, seed=_seed_of(args), backend=_backend_of(args),
                                  kb_paths=tuple(args.kb) if args.kb else None, visits_per_room=args.visits)
    text = report.text_table()
    if args.out:
        write_json(report.to_dict(), args.out)
        text += f"\n\nreport written to {args.out}"
    print(text)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="homeplan",
                                     description="Multi-robot household task allocation toolkit")
    sub = parser.add_subparsers(dest="command", required=True)
    # Shared flags, each a parent parser given only to the subcommands that read it.
    env, seed, out, backend = (argparse.ArgumentParser(add_help=False) for _ in range(4))
    env.add_argument("--env", default="paper_home", help="builtin environment name or JSON path")
    seed.add_argument("--seed", type=int, default=0, help="random seed, a non-negative integer (default: 0)")
    out.add_argument("--out", default=None, help="output path (default: stdout)")
    backend.add_argument("--backend", choices=("rule", "remote", "replay"), default="rule")
    backend.add_argument("--replay-dir", default=None, help="canned response directory (replay backend)")
    backend.add_argument("--endpoint", default=None, help="chat completion URL (remote backend)")
    backend.add_argument("--model", default=planner.REMOTE_MODEL, help="remote model name")

    # learn declares its own --env: a default set on a subparser is set on the action its parents share.
    p = sub.add_parser("learn", parents=[seed, out], help="learn a spatial concept model from sessions")
    source = p.add_mutually_exclusive_group(required=True)
    source.add_argument("--floor", help="generate the observation protocol on this floor")
    source.add_argument("--sessions", help="JSON session file instead of generation")
    p.add_argument("--env", help="builtin environment name or JSON path (--floor only; default: paper_home)")
    p.add_argument("--visits", type=int, help=f"visits per room (--floor only; default: {world.VISITS_PER_ROOM})")
    p.add_argument("--regions", type=int, default=None,
                   help="region count (default: the floor's room count with --floor, 5 with --sessions)")
    p.set_defaults(func=cmd_learn)

    p = sub.add_parser("extract", parents=[env, out], help="turn a model into a knowledge base")
    p.add_argument("--model-path", required=True, dest="model_path")
    p.add_argument("--floor", required=True, help="the floor the model was learned on, whose rooms name its regions")
    p.add_argument("--robot", default="Robot1")
    p.set_defaults(func=cmd_extract)

    p = sub.add_parser("prompt", parents=[out], help="render a prompt component from knowledge bases")
    p.add_argument("--kb", nargs="+", required=True)
    p.add_argument("--kind", default="presence_table",
                   choices=tuple(knowledge.PROMPTS))
    p.set_defaults(func=cmd_prompt)

    p = sub.add_parser("decompose", parents=[env, out, backend], help="split an instruction into subtasks")
    p.add_argument("--text", required=True)
    p.set_defaults(func=cmd_decompose)

    p = sub.add_parser("allocate", parents=[env, out, backend], help="assign subtasks to robots by knowledge")
    p.add_argument("--kb", nargs="+", required=True)
    source = p.add_mutually_exclusive_group(required=True)
    source.add_argument("--text", help="instruction to decompose first")
    source.add_argument("--subtasks", help="JSON subtask file")
    p.set_defaults(func=cmd_allocate)

    p = sub.add_parser("run", parents=[env, seed, out], help="execute assignments and emit a JSONL trace")
    p.add_argument("--assignments", required=True, help="JSON assignment file")
    p.add_argument("--kb", nargs="+", required=True)
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("suite", parents=[env, seed, backend], help="run the full allocation experiment")
    p.add_argument("--out", default=None, help="JSON report path (the table always goes to stdout)")
    source = p.add_mutually_exclusive_group()
    source.add_argument("--kb", nargs="+", help="score these knowledge bases instead of learning each floor's")
    source.add_argument("--visits", type=int, default=world.VISITS_PER_ROOM, help="visits per room of each learn")
    p.set_defaults(func=cmd_suite)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()  # so a reader that has gone shows here, not at exit
        return code
    except HomeplanError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except BrokenPipeError:
        # The reader closed our stdout (say, `| head`): point it at devnull so the
        # exit-time flush cannot fail again, and stop quietly.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1


if __name__ == "__main__":
    sys.exit(main())
