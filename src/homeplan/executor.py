"""Closed-loop execution of assigned subtasks as a skill state machine.

A fetch subtask runs navigate -> detect -> pick -> navigate -> place against
the world.  Failed skills retry in place; exhausted detection advances to the
next room in descending presence order.  Each robot runs its assignments back
to back as one generator that yields before every skill, and a batch advances
the robots' generators in turn, one skill each, so per-robot traces are
independent of scheduling when their state does not overlap.  A trace records
only its steps: the subtask's result and the rooms it reached are read off them.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

from .errors import BatchSetupError, HomeplanError, PlanningError, UnknownRoomError
from .knowledge import KnowledgeBase
from .planner import Assignment
from .world import GATHER, SkillOutcome, World

SUBTASK_SUCCEEDED = "subtask_succeeded"
SUBTASK_FAILED = "subtask_failed"


@dataclass
class ExecutionPolicy:
    """Retry budget for each skill; a subtask searches every room of its robot's knowledge base."""

    max_retries_per_skill: int = 2

    def __post_init__(self):
        if self.max_retries_per_skill < 0:
            raise ValueError("max_retries_per_skill must be >= 0")


@dataclass(frozen=True)
class TraceStep:
    skill: str
    argument: str
    outcome: SkillOutcome


@dataclass
class ExecutionTrace:
    """One subtask's skill steps; its result and visited rooms are read off them."""

    robot_id: str
    target_object: str
    steps: list[TraceStep] = field(default_factory=list)

    @property
    def result(self) -> str:
        """Succeeded iff the last step is a successful place: a place is only tried last."""
        placed = self.steps and self.steps[-1].skill == "place" and self.steps[-1].outcome.succeeded
        return SUBTASK_SUCCEEDED if placed else SUBTASK_FAILED

    @property
    def rooms_visited(self) -> list[str]:
        """Where each successful navigation arrived, in order."""
        return [s.argument for s in self.steps if s.skill == "navigation" and s.outcome.succeeded]

    def skill_sequence(self) -> list[tuple[str, str]]:
        return [(s.skill, s.argument) for s in self.steps]


def search_order(kb: KnowledgeBase, target: str) -> list[str]:
    """Rooms in descending presence probability for the target object; ties keep
    the knowledge base's room order (a reversed sort is still stable)."""
    row = list(map(float, kb.presence_table[target]))
    order = sorted(range(len(row)), key=row.__getitem__, reverse=True)
    return [kb.room_names[i] for i in order]


def _resolve_room_order(assignment: Assignment, kb: KnowledgeBase | None) -> list[str]:
    target = assignment.subtask.target_object
    if kb is None or target not in kb.presence_table:
        raise PlanningError(f"object {target!r} is not in the knowledge base")
    return search_order(kb, target)


def _attempt(world: World, trace: ExecutionTrace, skill: str, argument: str, attempts: int):
    """Take one skill up to ``attempts`` times, yielding before each; return whether it succeeded."""
    for _ in range(attempts):
        yield True
        outcome = world.step_skill(trace.robot_id, skill, argument)
        trace.steps.append(TraceStep(skill, argument, outcome))
        if outcome.succeeded:
            return True
    return False


def _subtask_machine(world: World, trace: ExecutionTrace, rooms: list[str],
                     destination: str, attempts: int):
    """Fetch the trace's object from the first of ``rooms`` it is found in to ``destination``."""
    target = trace.target_object
    for room in rooms:
        if not (yield from _attempt(world, trace, "navigation", room, attempts)):
            continue
        if not (yield from _attempt(world, trace, "object_detection", target, attempts)):
            continue
        if ((yield from _attempt(world, trace, "pick", target, attempts))
                and (yield from _attempt(world, trace, "navigation", destination, attempts))):
            yield from _attempt(world, trace, "place", destination, attempts)
        return


def _robot_run(world: World, jobs: list[tuple[int, Assignment]], kb: KnowledgeBase | None,
               attempts: int, traces: dict[int, ExecutionTrace], errors: list[HomeplanError]):
    """One robot's assignments back to back, each set up just before it runs."""
    for idx, assignment in jobs:
        try:
            world.robot(assignment.robot_id)  # PlanningError for a robot the world lacks
            destination = assignment.subtask.destination or GATHER
            if not world.known_location(destination):
                raise UnknownRoomError(f"unknown destination {destination!r}")
            rooms = _resolve_room_order(assignment, kb)
            for room in rooms:
                if not world.known_location(room):
                    raise UnknownRoomError(f"unknown room {room!r} in search order")
        except HomeplanError as exc:  # deferred, see run_assignments
            errors.append(exc)
            continue
        trace = traces[idx] = ExecutionTrace(assignment.robot_id, assignment.subtask.target_object)
        yield from _subtask_machine(world, trace, rooms, destination, attempts)


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
    jobs: dict[str, list[tuple[int, Assignment]]] = {}  # in order of each robot's first assignment
    for idx, assignment in enumerate(assignments):
        jobs.setdefault(assignment.robot_id, []).append((idx, assignment))

    traces: dict[int, ExecutionTrace] = {}
    errors: list[HomeplanError] = []
    attempts = policy.max_retries_per_skill + 1
    runs = [_robot_run(world, queue, kb_by_robot.get(rid), attempts, traces, errors)
            for rid, queue in jobs.items()]
    while runs:  # each turn takes every robot to just before its next skill
        runs = [run for run in runs if next(run, False)]

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
