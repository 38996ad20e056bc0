import re
from dataclasses import dataclass, field
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import settings

from homeplan.errors import (
    FloorAccessError,
    HomeplanError,
    PlanningError,
    SchemaError,
    UnknownLabelError,
    UnknownRoomError,
)
from homeplan.executor import (
    SUBTASK_FAILED,
    SUBTASK_SUCCEEDED,
    ExecutionPolicy,
    TraceStep,
    run_assignments,
)
from homeplan.experiment import score_allocations
from homeplan.knowledge import _DIVIDER, KnowledgeBase, _check_presence_row, format_probability
from homeplan.planner import Assignment, Instruction, Subtask, allocate_random, decompose
from homeplan.spatial import SpatialConceptModel
from homeplan.world import GATHER, Environment, World

# No example deadline: timings on a shared runner vary too much.  A failing property prints its
# ``@reproduce_failure`` line, so a CI failure can be replayed locally.  Each test sets its own
# ``max_examples``.
settings.register_profile("homeplan", deadline=None, print_blob=True)
settings.load_profile("homeplan")


def random_model(rng, num_concepts, num_regions, n_words=4, n_objects=3):
    """A valid model with Dirichlet-sampled categoricals and random SPD covariances."""
    a = rng.normal(size=(num_regions, 2, 2))
    return SpatialConceptModel(
        pi=rng.dirichlet(np.ones(num_concepts)),
        word_dist=rng.dirichlet(np.ones(n_words), size=num_concepts),
        object_dist=rng.dirichlet(np.ones(n_objects), size=num_concepts),
        region_dist=rng.dirichlet(np.ones(num_regions), size=num_concepts),
        means=rng.normal(scale=5.0, size=(num_regions, 2)),
        covs=a @ a.transpose(0, 2, 1) + 0.2 * np.eye(2),
        vocab_places=[f"word{i}" for i in range(n_words)],
        vocab_objects=[f"obj{i}" for i in range(n_objects)],
    )


class EagerSeedWorld(World):
    """A World that builds every robot's generator when seeded, as ``SeedSequence(seed).spawn(n)``,
    and draws its uniforms one scalar ``random()`` call at a time.

    ``World`` builds a robot's generator on its first draw and draws in
    blocks; its outcomes and state must match this reference under any
    interleaving and reseeding.
    """

    def reseed(self, seed):
        super().reseed(seed)
        children = np.random.SeedSequence(seed).spawn(len(self.robots))
        self._streams = {rid: iter(np.random.default_rng(ss).random, None)
                         for rid, ss in zip(self.robots, children)}


class ScriptedWorld:
    """Stands in for a World: every skill gets the next scripted outcome."""

    def __init__(self, outcomes):
        self.outcomes = list(outcomes)

    def robot(self, robot_id):
        return SimpleNamespace(robot_id=robot_id, floor="scripted")

    def object_room(self, obj):
        return None  # every object is known

    def location_floor(self, name, robot):
        return robot.floor  # every location is reachable

    def step_skill(self, robot_id, skill, argument):
        return self.outcomes.pop(0)


def scripted_run(target, rooms, outcomes, retries=2, destination=None):
    """Run one subtask through ``run_assignments`` against scripted outcomes.

    Robot ``T`` knows only ``rooms``, with a flat row for the target, so the
    stable search order is ``rooms`` as given.
    """
    kb = KnowledgeBase(robot_id="T", room_names=list(rooms), place_vocab=[[] for _ in rooms],
                       presence_table={target: [1.0] * len(rooms)})
    assignment = Assignment(Subtask("bring", target, destination), "T")
    [trace] = run_assignments(ScriptedWorld(outcomes), [assignment], [kb],
                              policy=ExecutionPolicy(max_retries_per_skill=retries))
    return trace


@dataclass
class ReferenceTrace:
    """A trace that stores its result and visited rooms beside its steps."""

    robot_id: str
    target_object: str
    steps: list[TraceStep] = field(default_factory=list)
    result: str = SUBTASK_FAILED
    rooms_visited: list[str] = field(default_factory=list)


def _reference_attempt(skill, argument, attempts):
    for _ in range(attempts):
        outcome = yield (skill, argument)
        if outcome.succeeded:
            return True
    return False


def _reference_subtask_machine(target, room_order, destination, retries):
    """Yields (skill, argument), receives each SkillOutcome; returns (result, rooms_visited)."""
    rooms_visited = []
    attempts = retries + 1
    for room in room_order:
        if not (yield from _reference_attempt("navigation", room, attempts)):
            continue
        rooms_visited.append(room)
        if not (yield from _reference_attempt("object_detection", target, attempts)):
            continue
        if not (yield from _reference_attempt("pick", target, attempts)):
            break
        if not (yield from _reference_attempt("navigation", destination, attempts)):
            break
        rooms_visited.append(destination)
        placed = yield from _reference_attempt("place", destination, attempts)
        return (SUBTASK_SUCCEEDED if placed else SUBTASK_FAILED, rooms_visited)
    return (SUBTASK_FAILED, rooms_visited)


def _reference_reachable(world, robot, name, what):
    if name != GATHER and not world.env.has_room(name):
        raise UnknownRoomError(f"unknown {what}")
    floor = robot.floor if name == GATHER else world.env.room(name).floor
    if floor != robot.floor:
        raise FloorAccessError(f"{what} is on floor {floor!r}, robot {robot.robot_id!r} is on {robot.floor!r}")


def _reference_setup(world, assignment, kb, policy):
    robot = world.robot(assignment.robot_id)
    destination = assignment.subtask.destination or GATHER
    _reference_reachable(world, robot, destination, f"destination {destination!r}")
    target = assignment.subtask.target_object
    if target not in world.env.placements:
        raise UnknownLabelError(f"unknown object {target!r}")
    if kb is None or target not in kb.presence_table:
        raise PlanningError(f"object {target!r} is not in the knowledge base")
    room_order = kb.search_order(target)
    for room in room_order:
        _reference_reachable(world, robot, room, f"room {room!r} in search order")
    machine = _reference_subtask_machine(target, room_order, destination, policy.max_retries_per_skill)
    return machine, ReferenceTrace(robot_id=assignment.robot_id, target_object=target)


def reference_run_assignments(world, assignments, kbs, policy=None, seed=None):
    """The round-robin scheduler that sends each outcome into a per-subtask machine.

    It sets up every assignment before any skill, keeps every robot's machine
    in an ``active`` table and stores each trace's result and visited rooms
    from the machine's return value; ``run_assignments`` must match it step
    for step.
    """
    policy = policy or ExecutionPolicy()
    kb_by_robot = {kb.robot_id: kb for kb in kbs}
    setups = []
    for idx, assignment in enumerate(assignments):
        try:
            setups.append(_reference_setup(world, assignment, kb_by_robot.get(assignment.robot_id), policy))
        except HomeplanError as exc:
            raise PlanningError(f"assignment {idx}: {exc.args[0]}") from exc
    if seed is not None:
        world.reseed(seed)

    queues = {}
    for idx, assignment in enumerate(assignments):
        queues.setdefault(assignment.robot_id, []).append(idx)
    active = {}

    def advance(rid, idx, outcome):
        machine, trace = setups[idx]
        try:
            active[rid] = (idx, machine.send(outcome))
            return True
        except StopIteration as stop:
            trace.result, trace.rooms_visited = stop.value
            active.pop(rid, None)
            return False

    def start_next(rid):
        while queues[rid]:
            if advance(rid, queues[rid].pop(0), None):
                return

    for rid in queues:
        start_next(rid)

    while active:
        for rid in queues:
            if rid not in active:
                continue
            idx, (skill, argument) = active[rid]
            outcome = world.step_skill(rid, skill, argument)
            setups[idx][1].steps.append(TraceStep(skill, argument, outcome))
            if not advance(rid, idx, outcome):
                start_next(rid)

    return [trace for _, trace in setups]


# Hand-curated presence tables used as fixed vectors by planner and
# rendering tests.  Rows carry 3-decimal rounding, so they sum to ~1.
ROBOT1_ROOMS = ["entrance", "dining", "living_room", "office_room", "kitchen"]
ROBOT1_TABLE = {
    "pitcher_base": [0.136, 0.848, 0.004, 0.006, 0.006],
    "bowl": [0.136, 0.848, 0.004, 0.006, 0.006],
    "plate": [0.309, 0.010, 0.662, 0.010, 0.009],
    "coffee": [0.152, 0.006, 0.005, 0.831, 0.006],
    "towel": [0.120, 0.006, 0.056, 0.813, 0.006],
    "penguin_doll": [0.271, 0.009, 0.702, 0.009, 0.009],
    "sheep_doll": [0.278, 0.009, 0.694, 0.010, 0.009],
    "pudding_box": [0.278, 0.009, 0.694, 0.010, 0.009],
    "fruits_juice": [0.250, 0.009, 0.668, 0.066, 0.008],
    "tooth_paste": [0.328, 0.010, 0.006, 0.011, 0.645],
    "apple": [0.248, 0.008, 0.005, 0.009, 0.729],
    "orange": [0.200, 0.007, 0.005, 0.008, 0.779],
    "muscat": [0.200, 0.007, 0.005, 0.008, 0.779],
}

ROBOT2_ROOMS = ["front_of_stairs", "corridor", "bathroom", "child_room", "parent_room"]
ROBOT2_TABLE = {
    "car_toy": [0.899, 0.087, 0.004, 0.005, 0.004],
    "airplane_toy": [0.011, 0.223, 0.753, 0.007, 0.006],
    "body_sponge": [0.011, 0.223, 0.753, 0.007, 0.006],
    "bath_slipper": [0.011, 0.223, 0.753, 0.007, 0.006],
    "truck_toy": [0.012, 0.264, 0.006, 0.711, 0.006],
    "pig_doll": [0.012, 0.264, 0.006, 0.711, 0.006],
    "cracker_box": [0.012, 0.264, 0.006, 0.711, 0.006],
    "chips_bag": [0.012, 0.264, 0.006, 0.711, 0.006],
    "cup": [0.011, 0.213, 0.006, 0.007, 0.764],
    "banana": [0.010, 0.186, 0.130, 0.007, 0.668],
    "treatments": [0.011, 0.213, 0.006, 0.007, 0.764],
}


@pytest.fixture
def kb_robot1():
    return KnowledgeBase(
        robot_id="Robot1",
        room_names=ROBOT1_ROOMS,
        place_vocab=[[] for _ in ROBOT1_ROOMS],
        presence_table=ROBOT1_TABLE,
    )


@pytest.fixture
def kb_robot2():
    return KnowledgeBase(
        robot_id="Robot2",
        room_names=ROBOT2_ROOMS,
        place_vocab=[[] for _ in ROBOT2_ROOMS],
        presence_table=ROBOT2_TABLE,
    )


def reference_presence_table(kbs):
    """The presence-table renderer written out: every base's block formatted anew on every call."""
    blocks = []
    for kb in kbs:
        lines = [
            kb.robot_id,
            '"List of probabilities that an object exists":',
            f"[{', '.join(kb.room_names)}]",
        ]
        for obj, row in kb.presence_table.items():
            rendered = ", ".join(format_probability(p) for p in row)
            lines.append(f"{obj} = [{rendered}]")
        blocks.append("\n".join(lines))
    return f"\n{'-' * 16}\n".join(blocks)


# Oracles: inverses and summaries of the package's outputs that only the tests read.

def skill_sequence(trace):
    return [(s.skill, s.argument) for s in trace.steps]


_PLACE_LINE = re.compile(r"^place(\d+): \[(.*)\]$")


def parse_place_vocab(text: str) -> tuple[tuple[str, ...], ...]:
    """Invert :func:`render_place_vocab`, returning the per-region word tuples of a knowledge base."""
    out = []
    for line in text.splitlines():
        m = _PLACE_LINE.match(line.strip())
        if m:
            out.append(tuple(w for w in m.group(2).split(", ") if w))
    return tuple(out)


_ROW_LINE = re.compile(r"^(\S+) = \[(.*)\]$")
_ROOMS_LINE = re.compile(r"^\[(.*)\]$")


def parse_presence_table(text: str) -> list[KnowledgeBase]:
    """Invert :func:`render_presence_table`.

    Rows are renormalized to absorb rendering precision; the place vocabulary
    is not part of this block, so parsed bases carry empty vocab lists.
    """
    kbs = []
    for block in text.split(_DIVIDER):
        lines = [ln.strip() for ln in block.strip().splitlines() if ln.strip()]
        if len(lines) < 3:
            raise SchemaError("presence table block too short")
        robot_id = lines[0]
        if "List of probabilities" not in lines[1]:
            raise SchemaError(f"missing table title in block for {robot_id!r}")
        rooms_match = _ROOMS_LINE.match(lines[2])
        if not rooms_match:
            raise SchemaError(f"missing room-name line in block for {robot_id!r}")
        rooms = [r for r in rooms_match.group(1).split(", ") if r]
        presence = {}
        for line in lines[3:]:
            m = _ROW_LINE.match(line)
            if not m:
                raise SchemaError(f"unparseable presence row: {line!r}")
            try:
                row = [float(v) for v in m.group(2).split(", ")]
            except ValueError:
                raise SchemaError(f"non-numeric presence row: {line!r}") from None
            _check_presence_row(m.group(1), row, len(rooms))
            values = np.array(row)
            if values.sum() > 0:
                values = values / values.sum()
            presence[m.group(1)] = values.tolist()
        kbs.append(KnowledgeBase(
            robot_id=robot_id,
            room_names=rooms,
            place_vocab=[[] for _ in rooms],
            presence_table=presence,
        ))
    return kbs


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
        totals[rep] = sum(score_allocations(assignments, env, floor_of_robot))
    return totals


def environment_to_dict(env: Environment) -> dict:
    return {
        "floors": list(env.floors),
        "rooms": [
            {
                "name": r.name,
                "floor": r.floor,
                "center": list(r.center),
                "scatter": [list(row) for row in r.scatter],
            }
            for r in env.rooms
        ],
        "placements": dict(env.placements),
        "categories": dict(env.categories),
        "place_words": {k: list(v) for k, v in env.place_words.items()},
    }
