"""Closed-loop execution of assigned subtasks as a skill state machine.

A fetch subtask runs navigate -> detect -> pick -> navigate -> place against
the world.  Failed skills retry in place; exhausted detection advances to the
next room of the robot's knowledge base's search order, its ranking of rooms
by descending presence.  A batch is checked whole before its first skill: each
target must be an object of the world, and each robot must reach its
destination and every room it would search, on its own floor or at ``gather``.
Each robot runs its assignments back to back as one generator that yields
before every skill, and a batch advances the robots' generators in turn, one
skill each, so per-robot traces are independent of scheduling when their state
does not overlap.  A trace records only its steps: the subtask's result and the
rooms it reached are read off them.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

from .errors import ConfigurationError, FloorAccessError, HomeplanError, PlanningError, UnknownRoomError, is_count
from .knowledge import KnowledgeBase
from .planner import Assignment
from .world import GATHER, RobotState, SkillOutcome, World

SUBTASK_SUCCEEDED = "subtask_succeeded"
SUBTASK_FAILED = "subtask_failed"


@dataclass(frozen=True)
class ExecutionPolicy:
    """Retry budget for each skill; a subtask searches every room of its robot's knowledge base."""

    max_retries_per_skill: int = 2

    def __post_init__(self):
        if not is_count(self.max_retries_per_skill) or self.max_retries_per_skill < 0:
            raise ConfigurationError("max_retries_per_skill must be an integer >= 0")


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


def _attempt(world: World, trace: ExecutionTrace, skill: str, argument: str, attempts: int):
    """Take one skill up to ``attempts`` times, yielding before each; return whether it succeeded."""
    step = None
    for _ in range(attempts):
        yield True
        outcome = world.step_skill(trace.robot_id, skill, argument)
        if step is None or step.outcome is not outcome:  # steps are frozen: a repeat shares one
            step = TraceStep(skill, argument, outcome)
        trace.steps.append(step)
        if outcome.succeeded:
            return True
    return False


def _subtask_machine(world: World, trace: ExecutionTrace, rooms: tuple[str, ...],
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


def _require_reachable(world: World, robot: RobotState, location: str, what: str) -> None:
    """Raise unless ``robot`` can reach ``location``; ``what.format(location)`` names it
    in the message, formatted only on failure."""
    floor = world.location_floor(location, robot)
    if floor != robot.floor:
        what = what.format(location)
        if floor is None:
            raise UnknownRoomError(f"unknown {what}")
        raise FloorAccessError(f"{what} is on floor {floor!r}, robot {robot.robot_id!r} is on {robot.floor!r}")


def _setup(world: World, assignment: Assignment, kb: KnowledgeBase | None) -> tuple[tuple[str, ...], str]:
    """The rooms to search and the destination of one assignment; HomeplanError if it cannot run."""
    robot = world.robot(assignment.robot_id)  # PlanningError for a robot the world lacks
    destination = assignment.subtask.destination or GATHER
    _require_reachable(world, robot, destination, "destination {!r}")
    target = assignment.subtask.target_object
    world.object_room(target)  # UnknownLabelError for an object the world lacks
    if kb is None or target not in kb.presence_table:
        raise PlanningError(f"object {target!r} is not in the knowledge base")
    rooms = kb.search_order(target)
    for room in rooms:
        _require_reachable(world, robot, room, "room {!r} in search order")
    return rooms, destination


def _robot_run(world: World, jobs: list[tuple[ExecutionTrace, tuple[str, ...], str]], attempts: int):
    """One robot's subtasks back to back."""
    for trace, rooms, destination in jobs:
        yield from _subtask_machine(world, trace, rooms, destination, attempts)


def run_assignments(world: World, assignments: list[Assignment],
                    kbs: list[KnowledgeBase],
                    policy: ExecutionPolicy | None = None,
                    seed: int | None = None) -> list[ExecutionTrace]:
    """Round-robin execution: one skill per robot per turn; one trace per assignment, in order.

    The whole batch is checked before its first skill: if any assignment
    cannot be set up, a ``PlanningError`` whose message starts
    ``assignment i:`` is raised, or a ``ConfigurationError`` if two knowledge
    bases share a robot id, and nothing has run.  A robot's assignments run
    back-to-back.
    """
    policy = policy or ExecutionPolicy()
    ids = [kb.robot_id for kb in kbs]
    kb_by_robot = dict(zip(ids, kbs))
    if len(kb_by_robot) < len(ids):
        repeated = ", ".join(sorted({i for i in ids if ids.count(i) > 1}))
        raise ConfigurationError(f"several knowledge bases have robot_id {repeated}")
    traces, jobs = [], {}  # jobs: each robot's (trace, rooms, destination), in order of its first assignment
    for idx, assignment in enumerate(assignments):
        try:
            rooms, destination = _setup(world, assignment, kb_by_robot.get(assignment.robot_id))
        except HomeplanError as exc:
            # args[0], not str(exc): str() of a KeyError subclass quotes its message.
            raise PlanningError(f"assignment {idx}: {exc.args[0]}") from exc
        traces.append(ExecutionTrace(assignment.robot_id, assignment.subtask.target_object))
        jobs.setdefault(assignment.robot_id, []).append((traces[-1], rooms, destination))
    if seed is not None:
        world.reseed(seed)

    attempts = policy.max_retries_per_skill + 1
    runs = [_robot_run(world, queue, attempts) for queue in jobs.values()]
    while runs:  # each turn takes every robot to just before its next skill
        runs = [run for run in runs if next(run, False)]
    return traces


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
