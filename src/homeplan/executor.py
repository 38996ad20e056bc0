"""Closed-loop execution of assigned subtasks as a skill state machine.

A fetch subtask runs navigate -> detect -> pick -> navigate -> place against
the world, consuming succeeded/failed outcomes.  Failed skills retry in
place; exhausted detection advances to the next room in descending presence
order.  Batches interleave robots one skill per turn so per-robot traces are
independent of scheduling when their state does not overlap.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .errors import BatchSetupError, HomeplanError, PlanningError, UnknownRoomError
from .knowledge import KnowledgeBase
from .planner import Assignment
from .world import GATHER, SkillOutcome, World

SUBTASK_SUCCEEDED = "subtask_succeeded"
SUBTASK_FAILED = "subtask_failed"


@dataclass
class ExecutionPolicy:
    """Retry and fallback budget for one subtask.

    ``max_room_fallbacks`` of None means "all remaining rooms";
    ``room_order`` of None derives the search order from the knowledge base.
    """

    max_retries_per_skill: int = 2
    max_room_fallbacks: int | None = None
    room_order: list[str] | None = None

    def __post_init__(self):
        if self.max_retries_per_skill < 0:
            raise ValueError("max_retries_per_skill must be >= 0")
        if self.max_room_fallbacks is not None and self.max_room_fallbacks < 0:
            raise ValueError("max_room_fallbacks must be >= 0")


@dataclass(frozen=True)
class TraceStep:
    skill: str
    argument: str
    outcome: SkillOutcome


@dataclass
class ExecutionTrace:
    robot_id: str
    target_object: str
    steps: list[TraceStep] = field(default_factory=list)
    result: str = SUBTASK_FAILED
    rooms_visited: list[str] = field(default_factory=list)

    def skill_sequence(self) -> list[tuple[str, str]]:
        return [(s.skill, s.argument) for s in self.steps]


def search_order(kb: KnowledgeBase, target: str) -> list[str]:
    """Rooms in descending presence probability for the target object."""
    row = kb.row(target)
    order = np.argsort(-row, kind="stable")
    return [kb.room_names[i] for i in order]


def _resolve_room_order(assignment: Assignment, kb: KnowledgeBase | None,
                        policy: ExecutionPolicy) -> list[str]:
    if policy.room_order is not None:
        return list(policy.room_order)
    target = assignment.subtask.target_object
    if kb is None or target not in kb.presence_table:
        raise PlanningError(
            f"object {assignment.subtask.target_object!r} is not in the knowledge base "
            "and no explicit room_order was given")
    return search_order(kb, target)


def _attempt(skill: str, argument: str, attempts: int):
    """Yield one skill up to ``attempts`` times; return whether it succeeded."""
    for _ in range(attempts):
        outcome = yield (skill, argument)
        if outcome.succeeded:
            return True
    return False


def _subtask_machine(target: str, room_order: list[str], destination: str,
                     retries: int, fallbacks: int):
    """Generator yielding (skill, argument), receiving SkillOutcome via send().

    Returns (result, rooms_visited) when exhausted.  Keeping the control flow
    apart from the world lets tests replay scripted outcome sequences.
    """
    rooms_visited: list[str] = []
    attempts = retries + 1
    for room in room_order[:fallbacks + 1]:
        if not (yield from _attempt("navigation", room, attempts)):
            continue
        rooms_visited.append(room)
        if not (yield from _attempt("object_detection", target, attempts)):
            continue
        if not (yield from _attempt("pick", target, attempts)):
            break
        if not (yield from _attempt("navigation", destination, attempts)):
            break
        rooms_visited.append(destination)
        placed = yield from _attempt("place", destination, attempts)
        return (SUBTASK_SUCCEEDED if placed else SUBTASK_FAILED, rooms_visited)
    return (SUBTASK_FAILED, rooms_visited)


def _setup(world: World, assignment: Assignment, kb: KnowledgeBase | None,
           policy: ExecutionPolicy):
    world.robot(assignment.robot_id)  # PlanningError for a robot the world lacks
    destination = assignment.subtask.destination or GATHER
    if not world.known_location(destination):
        raise UnknownRoomError(f"unknown destination {destination!r}")
    room_order = _resolve_room_order(assignment, kb, policy)
    for room in room_order:
        if not world.known_location(room):
            raise UnknownRoomError(f"unknown room {room!r} in search order")
    fallbacks = policy.max_room_fallbacks
    if fallbacks is None:
        fallbacks = len(room_order) - 1
    machine = _subtask_machine(assignment.subtask.target_object, room_order,
                               destination, policy.max_retries_per_skill, fallbacks)
    trace = ExecutionTrace(robot_id=assignment.robot_id,
                           target_object=assignment.subtask.target_object)
    return machine, trace


def run_assignments(world: World, assignments: list[Assignment],
                    kbs: list[KnowledgeBase],
                    policy: ExecutionPolicy | None = None,
                    seed: int | None = None) -> list[ExecutionTrace]:
    """Round-robin execution: one skill per robot per turn.

    A robot's assignments run back-to-back.  A ``HomeplanError`` while setting
    up an assignment is deferred until every other assignment has finished;
    then a ``BatchSetupError`` carrying the completed traces is raised, with
    the first setup error as its cause.
    """
    policy = policy or ExecutionPolicy()
    if seed is not None:
        world.reseed(seed)
    kb_by_robot = {kb.robot_id: kb for kb in kbs}

    queues: dict[str, list[int]] = {}  # in order of each robot's first assignment
    for idx, assignment in enumerate(assignments):
        queues.setdefault(assignment.robot_id, []).append(idx)

    traces: dict[int, ExecutionTrace] = {}
    errors: list[HomeplanError] = []
    active: dict[str, tuple] = {}

    def advance(rid: str, idx: int, machine, trace: ExecutionTrace, outcome) -> bool:
        """Send ``outcome``; False once the machine has finished its subtask."""
        try:
            active[rid] = (idx, machine, trace, machine.send(outcome))
            return True
        except StopIteration as stop:
            trace.result, trace.rooms_visited = stop.value
            traces[idx] = trace
            active.pop(rid, None)
            return False

    def start_next(rid: str) -> None:
        while queues[rid]:
            idx = queues[rid].pop(0)
            try:
                machine, trace = _setup(world, assignments[idx], kb_by_robot.get(rid), policy)
            except HomeplanError as exc:  # deferred, see docstring
                errors.append(exc)
                continue
            if advance(rid, idx, machine, trace, None):
                return

    for rid in queues:
        start_next(rid)

    while active:
        for rid in queues:
            if rid not in active:
                continue
            idx, machine, trace, (skill, argument) = active[rid]
            outcome = world.step_skill(rid, skill, argument)
            trace.steps.append(TraceStep(skill, argument, outcome))
            if not advance(rid, idx, machine, trace, outcome):
                start_next(rid)

    ordered = [traces[i] for i in sorted(traces)]
    if errors:
        raise BatchSetupError(
            f"{len(errors)} of {len(assignments)} assignments could not be set up; "
            f"first: {errors[0]}", ordered) from errors[0]
    return ordered


def traces_to_jsonl(traces: list[ExecutionTrace]) -> str:
    """One step per line: robot_id, index, skill, argument, status, detail.

    Step indices are 1-based and continue across a robot's consecutive
    subtasks, matching how execution logs are usually read.
    """
    counters: dict[str, int] = {}
    lines = []
    for trace in traces:
        for step in trace.steps:
            counters[trace.robot_id] = counters.get(trace.robot_id, 0) + 1
            lines.append(json.dumps({
                "robot_id": trace.robot_id,
                "index": counters[trace.robot_id],
                "skill": step.skill,
                "argument": step.argument,
                "status": step.outcome.status,
                "detail": step.outcome.detail,
            }))
    return "\n".join(lines)
