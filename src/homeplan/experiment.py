"""Instruction suites, allocation scoring, and the reportable experiment grid.

The suite mirrors the evaluation protocol: four instruction
categories (random 10x2, hard-to-predict 5x2, common-sense 5x2, mixed 5x2
targets), three allocation strategies, and floor-membership scoring.  Totals
from the original real-robot study are attached to reports as a labeled
citation only, never recomputed here.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import ConfigurationError, GenerationError, ScoringError
from .executor import ExecutionPolicy, TraceStep, run_assignments
from .knowledge import (
    KnowledgeBase,
    extract_knowledge,
    knowledge_from_environment,
    load_knowledge,
    match_room_names,
)
from .learner import learn_fixed_lag
from .planner import (
    COMMONSENSE_TYPICAL_ROOM,
    Assignment,
    Instruction,
    PlannerBackend,
    RuleBasedBackend,
    Subtask,
    allocate,
    allocate_commonsense,
    allocate_random,
    decompose,
)
from .spatial import Hyperparameters, SpatialConceptModel
from .world import (
    CATEGORY_COMMON,
    CATEGORY_HARD,
    Environment,
    RobotState,
    World,
    generate_floor_sessions,
    load_environment,
)

REPORT_SCHEMA_VERSION = 1

# Instructions per suite category, the paper protocol: each names one object per floor.
SUITE_COUNTS = {"random": 10, "hard_to_predict": 5, "common_sense": 5, "mixed": 5}
SUITE_CATEGORIES = tuple(SUITE_COUNTS)
STRATEGIES = ("proposed", "random", "commonsense")

INSTRUCTION_TEMPLATES = (
    "Could you please find {o}.",
    "I need you to locate {o}.",
    "Please search for {o}.",
)

# Totals reported by the original real-robot study; attached to reports as a
# citation for comparison, never recomputed by this package.
REFERENCE_REPORTED = {
    "note": ("Reported by the original real-robot study (live chat-model "
             "allocator); shown for comparison only, not recomputed."),
    "proposed": {"random": [17, 20], "hard_to_predict": [10, 10],
                 "common_sense": [10, 10], "mixed": [10, 10], "total": [47, 50]},
    "random": {"random": [11, 20], "hard_to_predict": [6, 10],
               "common_sense": [4, 10], "mixed": [7, 10], "total": [28, 50]},
    "commonsense": {"random": [10, 20], "hard_to_predict": [3, 10],
                    "common_sense": [6, 10], "mixed": [7, 10], "total": [26, 50]},
}


@dataclass
class SuiteConfig:
    """One suite run; without ``kb_paths`` the proposed strategy learns each floor's knowledge."""

    env: str = "paper_home"
    seed: int = 0
    strategies: tuple[str, ...] = STRATEGIES
    backend: PlannerBackend = field(default_factory=RuleBasedBackend)
    kb_paths: tuple[str, ...] | None = None
    visits_per_room: int = 30
    out: str | None = None

    def __post_init__(self):
        if not self.strategies:
            raise ConfigurationError("at least one strategy is required")
        unknown = [s for s in self.strategies if s not in STRATEGIES]
        if unknown:
            raise ConfigurationError(f"unknown strategies: {unknown}")


@dataclass
class SuiteReport:
    env: str
    seed: int
    grid: dict[str, dict[str, tuple[int, int]]]
    totals: dict[str, tuple[int, int]]
    trials: list[dict] = field(default_factory=list)
    elapsed_seconds: float = 0.0

    def to_dict(self) -> dict:
        return {
            "schema_version": REPORT_SCHEMA_VERSION,
            "env": self.env,
            "seed": self.seed,
            "grid": {s: {c: list(v) for c, v in row.items()} for s, row in self.grid.items()},
            "totals": {s: list(v) for s, v in self.totals.items()},
            "trials": self.trials,
            "reference_reported": REFERENCE_REPORTED,
            "elapsed_seconds": self.elapsed_seconds,
        }

    def text_table(self) -> str:
        headers = ["Method", "Random", "Hard-to-Predict", "Common-Sense", "Mixed", "Total"]
        rows = []
        for strategy, by_cat in self.grid.items():
            cells = [strategy]
            for cat in SUITE_CATEGORIES:
                s, a = by_cat.get(cat, (0, 0))
                cells.append(f"{s}/{a}")
            s, a = self.totals[strategy]
            cells.append(f"{s}/{a}")
            rows.append(cells)
        for strategy in STRATEGIES:
            cited = REFERENCE_REPORTED[strategy]
            cells = [f"[reported] {strategy}"]
            for cat in SUITE_CATEGORIES:
                s, a = cited[cat]
                cells.append(f"{s}/{a}")
            s, a = cited["total"]
            cells.append(f"{s}/{a}")
            rows.append(cells)
        widths = [max(len(str(r[i])) for r in [headers] + rows) for i in range(len(headers))]
        def fmt(cells):
            return " | ".join(str(c).ljust(w) for c, w in zip(cells, widths))
        sep = "-+-".join("-" * w for w in widths)
        lines = [fmt(headers), sep] + [fmt(r) for r in rows]
        lines.append("")
        lines.append(f"[reported] rows: {REFERENCE_REPORTED['note']}")
        return "\n".join(lines)


def _pick(rng: np.random.Generator, pool: list[str]) -> str:
    return pool[int(rng.integers(len(pool)))]


def generate_instructions(
    category: str,
    env: Environment,
    count: int,
    seed: int = 0,
) -> list[Instruction]:
    """Seeded instruction generator: one target object per floor per instruction."""
    if category not in SUITE_CATEGORIES:
        raise GenerationError(f"unknown suite category {category!r}")
    rng = np.random.default_rng(seed)
    floors = list(env.floors)
    if category == "mixed" and len(floors) != 2:
        raise GenerationError("mixed instructions need exactly two floors")

    pools: dict[str, dict[str, list[str]]] = {}
    for floor in floors:
        pools[floor] = {
            "random": sorted(env.objects_on(floor)),
            CATEGORY_HARD: sorted(env.objects_in_category(floor, CATEGORY_HARD)),
            CATEGORY_COMMON: sorted(env.objects_in_category(floor, CATEGORY_COMMON)),
        }

    def pool_for(floor: str, kind: str) -> list[str]:
        pool = pools[floor][kind]
        if not pool:
            raise GenerationError(f"no {kind} objects on floor {floor!r}")
        return pool

    instructions = []
    template_cursor = 0
    for _ in range(count):
        targets = []
        if category == "mixed":
            hard_floor_idx = int(rng.integers(2))
            for i, floor in enumerate(floors):
                kind = CATEGORY_HARD if i == hard_floor_idx else CATEGORY_COMMON
                targets.append(_pick(rng, pool_for(floor, kind)))
        else:
            kind = "random" if category == "random" else category
            for floor in floors:
                targets.append(_pick(rng, pool_for(floor, kind)))
        sentences = []
        for obj in targets:
            template = INSTRUCTION_TEMPLATES[template_cursor % len(INSTRUCTION_TEMPLATES)]
            sentences.append(template.format(o=obj))
            template_cursor += 1
        instructions.append(Instruction(" ".join(sentences), category=category, gold_objects=targets))
    return instructions


def score_allocations(
    assignments: list[Assignment],
    env: Environment,
    floor_of_robot: dict[str, str],
) -> tuple[int, int, list[bool]]:
    """Floor-membership metric: success iff the robot's floor holds the object."""
    flags = []
    for assignment in assignments:
        obj = assignment.subtask.target_object
        if obj not in env.placements:
            raise ScoringError(f"object {obj!r} is not placed in the environment")
        robot_floor = floor_of_robot.get(assignment.robot_id)
        if robot_floor is None:
            raise ScoringError(f"no floor recorded for robot {assignment.robot_id!r}")
        flags.append(env.floor_of_object(obj) == robot_floor)
    return sum(flags), len(flags), flags


def floor_robot(env: Environment, floor: str, robot_id: str) -> RobotState:
    """A robot confined to ``floor``, parked in the floor's first room."""
    rooms = env.rooms_on(floor)
    if not rooms:
        raise ConfigurationError(f"floor {floor!r} has no rooms")
    return RobotState(robot_id=robot_id, floor=floor, current_room=rooms[0].name)


def default_robots(env: Environment) -> list[RobotState]:
    """One robot per floor, Robot1..RobotN, parked in the floor's first room."""
    return [floor_robot(env, floor, f"Robot{i}") for i, floor in enumerate(env.floors, start=1)]


def learn_floor_model(env: Environment, robot: RobotState, seed: int, visits_per_room: int = 30,
                      hp: Hyperparameters | None = None,
                      num_regions: int | None = None) -> SpatialConceptModel:
    """Run the observation protocol on the robot's floor and learn its model (default: a region per room)."""
    num_regions = num_regions or len(env.rooms_on(robot.floor))
    sessions = generate_floor_sessions(env, robot, np.random.default_rng(seed),
                                       visits_per_room=visits_per_room)
    return learn_fixed_lag(sessions, hp or Hyperparameters(), seed=seed,
                           num_concepts=num_regions, num_regions=num_regions)


def learn_floor_knowledge(env: Environment, robot: RobotState, seed: int,
                          visits_per_room: int = 30) -> KnowledgeBase:
    """Learn the robot's floor model and extract its knowledge."""
    model = learn_floor_model(env, robot, seed, visits_per_room)
    room_names = match_room_names(model, env.rooms_on(robot.floor))
    return extract_knowledge(model, room_names, robot_id=robot.robot_id)


def best_room_recovery(env: Environment, floor: str, kb: KnowledgeBase) -> tuple[int, int]:
    """(objects on ``floor`` whose most probable room in ``kb`` is their true room, objects on ``floor``).

    An object missing from the presence table counts as not recovered.
    """
    objects = env.objects_on(floor)
    right = sum(obj in kb.presence_table and kb.best_room(obj)[0] == env.placements[obj] for obj in objects)
    return right, len(objects)


def _suite_seeds(seed: int) -> dict[str, int]:
    ss = np.random.SeedSequence(seed)
    names = ["learn_base", "random", "hard_to_predict", "common_sense",
             "mixed", "random_allocation"]
    children = ss.generate_state(len(names))
    return {name: int(v) for name, v in zip(names, children)}


def build_suite_instructions(env: Environment, seed: int) -> dict[str, list[Instruction]]:
    """The suite's instructions of each category, ``SUITE_COUNTS`` of them, drawn from ``seed``."""
    seeds = _suite_seeds(seed)
    return {cat: generate_instructions(cat, env, count, seed=seeds[cat])
            for cat, count in SUITE_COUNTS.items()}


def run_suite(cfg: SuiteConfig) -> SuiteReport:
    """Decompose, allocate, and score the full category grid for each strategy."""
    started = time.monotonic()
    env = load_environment(cfg.env)
    robots = default_robots(env)
    robot_ids = [r.robot_id for r in robots]
    floor_of_robot = {r.robot_id: r.floor for r in robots}
    room_to_robot = {room.name: r.robot_id for r in robots for room in env.rooms_on(r.floor)}
    object_vocab = sorted(env.placements)
    seeds = _suite_seeds(cfg.seed)

    kbs: list[KnowledgeBase] | None = None
    if "proposed" in cfg.strategies:
        if cfg.kb_paths:
            kbs = [load_knowledge(p) for p in cfg.kb_paths]
        else:
            kbs = [learn_floor_knowledge(env, robot, seed=seeds["learn_base"] + i,
                                         visits_per_room=cfg.visits_per_room)
                   for i, robot in enumerate(robots)]

    # Decomposition does not depend on the strategy, so each instruction is decomposed once.
    decomposed = {category: [(instr, decompose(instr, object_vocab, backend=cfg.backend))
                             for instr in instrs]
                  for category, instrs in build_suite_instructions(env, cfg.seed).items()}

    grid: dict[str, dict[str, tuple[int, int]]] = {}
    totals: dict[str, tuple[int, int]] = {}
    trials: list[dict] = []
    for strategy in cfg.strategies:
        by_cat: dict[str, tuple[int, int]] = {}
        total_s = total_a = 0
        alloc_counter = 0
        for category, pairs in decomposed.items():
            cat_s = cat_a = 0
            for instr, subtasks in pairs:
                if strategy == "proposed":
                    assignments = allocate(subtasks, kbs, backend=cfg.backend)
                elif strategy == "random":
                    assignments = allocate_random(subtasks, robot_ids,
                                                  seed=seeds["random_allocation"] + alloc_counter)
                else:
                    assignments = allocate_commonsense(subtasks, COMMONSENSE_TYPICAL_ROOM,
                                                       room_to_robot)
                alloc_counter += 1
                successes, attempts, flags = score_allocations(assignments, env, floor_of_robot)
                cat_s += successes
                cat_a += attempts
                trials.append({
                    "strategy": strategy,
                    "category": category,
                    "instruction": instr.text,
                    "subtasks": [st.target_object for st in subtasks],
                    "assignments": [a.robot_id for a in assignments],
                    "gold_floors": [env.floor_of_object(st.target_object) for st in subtasks],
                    "correct": flags,
                })
            by_cat[category] = (cat_s, cat_a)
            total_s += cat_s
            total_a += cat_a
        grid[strategy] = by_cat
        totals[strategy] = (total_s, total_a)

    report = SuiteReport(env=cfg.env, seed=cfg.seed, grid=grid, totals=totals,
                         trials=trials, elapsed_seconds=time.monotonic() - started)
    if cfg.out:
        Path(cfg.out).write_text(json.dumps(report.to_dict(), indent=2))
    return report


def random_allocation_totals(env: Environment, instructions: dict[str, list[Instruction]],
                             robot_ids: list[str], floor_of_robot: dict[str, str],
                             repetitions: int, seed: int = 0) -> np.ndarray:
    """Suite totals for many seeded repetitions of the random baseline."""
    object_vocab = sorted(env.placements)
    all_subtasks: list[Subtask] = []
    for instrs in instructions.values():
        for instr in instrs:
            all_subtasks.extend(decompose(instr, object_vocab))
    totals = np.zeros(repetitions, dtype=int)
    for rep in range(repetitions):
        assignments = allocate_random(all_subtasks, robot_ids, seed=seed + rep)
        successes, _, _ = score_allocations(assignments, env, floor_of_robot)
        totals[rep] = successes
    return totals


def run_field_trip_scenario(seed: int = 0) -> dict:
    """Scripted two-zone demonstration for "Get ready for a field trip.".

    All skill probabilities are 1 so the log is exactly reproducible.  Robot2
    fetches the cup and then the water bottle from the kitchen to the gather
    point; after its last delivery each robot navigates back to its primary
    search room, which closes the log with a trailing navigation step.
    """
    env = load_environment("robocup_arena")
    sure = dict(p_navigate=1.0, p_detect_present=1.0, p_pick=1.0, p_place=1.0)
    robots = [
        RobotState(robot_id="Robot1", floor="zone1", current_room="entrance", **sure),
        RobotState(robot_id="Robot2", floor="zone2", current_room="corridor", **sure),
    ]
    world = World(env, robots, seed=seed)
    kbs = [
        knowledge_from_environment(env, "zone1", "Robot1"),
        knowledge_from_environment(env, "zone2", "Robot2"),
    ]
    instruction = Instruction("Get ready for a field trip.", category="ambiguous")
    assignments = [
        Assignment(Subtask("bring", "bag"), "Robot1"),
        Assignment(Subtask("bring", "snacks"), "Robot1"),
        Assignment(Subtask("bring", "cup"), "Robot2"),
        Assignment(Subtask("bring", "water_bottle"), "Robot2"),
    ]
    traces = run_assignments(world, assignments, kbs, policy=ExecutionPolicy())

    robot_steps: dict[str, list[TraceStep]] = {r.robot_id: [] for r in robots}
    first_search: dict[str, str] = {}
    for trace in traces:
        robot_steps[trace.robot_id].extend(trace.steps)
        if trace.robot_id not in first_search and trace.rooms_visited:
            first_search[trace.robot_id] = trace.rooms_visited[0]
    for robot_id, room in first_search.items():
        outcome = world.step_skill(robot_id, "navigation", room)
        robot_steps[robot_id].append(TraceStep("navigation", room, outcome))

    return {
        "instruction": instruction,
        "assignments": assignments,
        "traces": traces,
        "robot_steps": robot_steps,
    }
