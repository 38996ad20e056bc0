"""Two-floor household simulator: rooms, placements, robots, skill outcomes.

Rooms are abstract nodes with Gaussian position footprints.  Robots are
pinned to a floor; navigation across floors always fails with a
``floor_barrier`` reason.  Every floor additionally exposes an implicit
delivery point named ``gather`` where fetched objects are dropped off.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .errors import (
    FloorAccessError,
    PlanningError,
    SchemaError,
    UnknownLabelError,
    UnknownRoomError,
    is_finite_real,
    read_json,
    require,
    require_fields,
)
from .spatial import Session

SKILLS = ("navigation", "object_detection", "pick", "place")
GATHER = "gather"
CATEGORY_COMMON = "common_sense"
CATEGORY_HARD = "hard_to_predict"
CATEGORIES = (CATEGORY_COMMON, CATEGORY_HARD)

_ENV_KEYS = ("floors", "rooms", "placements", "categories", "place_words")


@dataclass(frozen=True)
class Room:
    name: str
    floor: str
    center: tuple[float, float]
    scatter: tuple[tuple[float, float], tuple[float, float]] = ((0.25, 0.0), (0.0, 0.25))

    @property
    def center_array(self) -> np.ndarray:
        return np.asarray(self.center, dtype=float)

    @property
    def scatter_array(self) -> np.ndarray:
        return np.asarray(self.scatter, dtype=float)


def _footprint_problems(room: Room) -> list[str]:
    """What is wrong with a room's Gaussian footprint: ``center`` must be two finite
    numbers, ``scatter`` a finite, symmetric, positive semi-definite 2x2 matrix (an
    all-zero scatter is the deterministic limit: every position is the center)."""
    problems = []
    if len(room.center) != 2 or not all(is_finite_real(v) for v in room.center):
        problems.append(f"rooms[{room.name}].center: must be two finite numbers")
    rows = room.scatter
    if (len(rows) != 2 or any(len(row) != 2 or not all(is_finite_real(v) for v in row) for row in rows)
            or rows[0][1] != rows[1][0] or rows[0][0] < 0 or rows[1][1] < 0
            or rows[0][0] * rows[1][1] - rows[0][1] * rows[1][0] < 0):
        problems.append(f"rooms[{room.name}].scatter: must be a finite, symmetric, "
                        "positive semi-definite 2x2 matrix")
    return problems


@dataclass
class Environment:
    floors: list[str]
    rooms: list[Room]
    placements: dict[str, str]
    categories: dict[str, str]
    place_words: dict[str, list[str]]

    def __post_init__(self):
        self.validate()

    def validate(self) -> None:
        problems = []
        if not self.floors:
            problems.append("floors: empty")
        if not self.rooms:
            problems.append("rooms: empty")
        names = [r.name for r in self.rooms]
        if len(set(names)) != len(names):
            problems.append("rooms: duplicate names")
        if GATHER in names:
            problems.append(f"rooms: {GATHER!r} is a reserved delivery-point name")
        for r in self.rooms:
            if r.floor not in self.floors:
                problems.append(f"rooms[{r.name}].floor: unknown floor {r.floor!r}")
            problems.extend(_footprint_problems(r))
        for obj, room in self.placements.items():
            if room not in names:
                problems.append(f"placements[{obj}]: unknown room {room!r}")
        for obj, cat in self.categories.items():
            if cat not in CATEGORIES:
                problems.append(f"categories[{obj}]: unknown category {cat!r}")
        for room in self.place_words:
            if room not in names:
                problems.append(f"place_words[{room}]: unknown room")
        if problems:
            raise SchemaError("invalid environment: " + "; ".join(problems))

    def room(self, name: str) -> Room:
        for r in self.rooms:
            if r.name == name:
                return r
        raise UnknownRoomError(f"unknown room {name!r}")

    def has_room(self, name: str) -> bool:
        return any(r.name == name for r in self.rooms)

    def rooms_on(self, floor: str) -> list[Room]:
        return [r for r in self.rooms if r.floor == floor]

    def floor_of_room(self, name: str) -> str:
        return self.room(name).floor

    def floor_of_object(self, obj: str) -> str:
        if obj not in self.placements:
            raise UnknownLabelError(f"object {obj!r} is not placed in the environment")
        return self.floor_of_room(self.placements[obj])

    def objects_on(self, floor: str) -> list[str]:
        room_names = {r.name for r in self.rooms_on(floor)}
        return [o for o, room in self.placements.items() if room in room_names]

    def objects_in_category(self, floor: str, category: str) -> list[str]:
        return [o for o in self.objects_on(floor) if self.categories.get(o) == category]


@dataclass
class RobotState:
    robot_id: str
    floor: str
    current_room: str
    held_object: str | None = None
    p_navigate: float = 1.0
    p_detect_present: float = 0.9
    p_detect_absent_false_positive: float = 0.0
    p_pick: float = 0.8
    p_place: float = 0.95

    def __post_init__(self):
        for name in ("p_navigate", "p_detect_present", "p_detect_absent_false_positive", "p_pick", "p_place"):
            v = getattr(self, name)
            if not 0.0 <= v <= 1.0:
                raise ValueError(f"{name} must be in [0, 1]")


@dataclass(frozen=True)
class SkillOutcome:
    status: str  # "succeeded" | "failed"
    detail: str | None = None

    @property
    def succeeded(self) -> bool:
        return self.status == "succeeded"


_SUCCEEDED = SkillOutcome("succeeded")


class World:
    """Mutable simulation state: object locations, robot poses, RNG streams.

    Each robot draws from its own child generator, so one robot's outcome
    stream does not depend on how other robots' skills are interleaved.
    The world steps copies of the given robots, so the caller's objects keep
    their starting state and can start further worlds.
    """

    def __init__(self, env: Environment, robots: list[RobotState], seed: int = 0):
        self.env = env
        robots = [replace(r) for r in robots]
        self.robots = {r.robot_id: r for r in robots}
        if len(self.robots) != len(robots):
            raise SchemaError(f"duplicate robot ids in {[r.robot_id for r in robots]}")
        for r in robots:
            if r.floor not in env.floors:
                raise SchemaError(f"robot {r.robot_id!r} assigned to unknown floor {r.floor!r}")
            if r.current_room != GATHER and env.floor_of_room(r.current_room) != r.floor:
                raise FloorAccessError(f"robot {r.robot_id!r} starts off its floor")
        self.object_rooms: dict[str, str | None] = dict(env.placements)
        self._detections: dict[str, tuple[str, str] | None] = {r.robot_id: None for r in robots}
        self._robot_order = [r.robot_id for r in robots]
        self.reseed(seed)

    def reseed(self, seed: int) -> None:
        children = np.random.SeedSequence(seed).spawn(len(self._robot_order))
        self._rngs = {rid: np.random.default_rng(ss) for rid, ss in zip(self._robot_order, children)}

    def robot(self, robot_id: str) -> RobotState:
        try:
            return self.robots[robot_id]
        except KeyError:
            raise PlanningError(f"unknown robot {robot_id!r}") from None

    def known_location(self, name: str) -> bool:
        return name == GATHER or self.env.has_room(name)

    def _location_floor(self, name: str, robot: RobotState) -> str:
        return robot.floor if name == GATHER else self.env.floor_of_room(name)

    def step_skill(self, robot_id: str, skill: str, argument: str) -> SkillOutcome:
        robot = self.robot(robot_id)
        rng = self._rngs[robot_id]
        if skill == "navigation":
            return self._navigate(robot, argument, rng)
        if skill == "object_detection":
            return self._detect(robot, argument, rng)
        if skill == "pick":
            return self._pick(robot, argument, rng)
        if skill == "place":
            return self._place(robot, argument, rng)
        raise PlanningError(f"unknown skill {skill!r}; expected one of {SKILLS}")

    def _navigate(self, robot: RobotState, room: str, rng) -> SkillOutcome:
        if not self.known_location(room):
            raise UnknownRoomError(f"unknown room {room!r}")
        if self._location_floor(room, robot) != robot.floor:
            return SkillOutcome("failed", "floor_barrier")
        if rng.random() < robot.p_navigate:
            robot.current_room = room
            return _SUCCEEDED
        return SkillOutcome("failed", "navigation_failed")

    def _detect(self, robot: RobotState, obj: str, rng) -> SkillOutcome:
        if obj not in self.object_rooms:
            raise UnknownLabelError(f"unknown object {obj!r}")
        present = self.object_rooms[obj] == robot.current_room
        if present:
            if rng.random() < robot.p_detect_present:
                self._detections[robot.robot_id] = (obj, robot.current_room)
                return SkillOutcome("succeeded", "detected")
            return SkillOutcome("failed", "not_found")
        if rng.random() < robot.p_detect_absent_false_positive:
            self._detections[robot.robot_id] = (obj, robot.current_room)
            return SkillOutcome("succeeded", "false_positive")
        return SkillOutcome("failed", "not_found")

    def _pick(self, robot: RobotState, obj: str, rng) -> SkillOutcome:
        if obj not in self.object_rooms:
            raise UnknownLabelError(f"unknown object {obj!r}")
        if robot.held_object is not None:
            return SkillOutcome("failed", "gripper_occupied")
        if self._detections[robot.robot_id] != (obj, robot.current_room):
            return SkillOutcome("failed", "not_detected")
        if self.object_rooms[obj] != robot.current_room:
            return SkillOutcome("failed", "object_not_present")
        if rng.random() < robot.p_pick:
            robot.held_object = obj
            self.object_rooms[obj] = None
            return _SUCCEEDED
        return SkillOutcome("failed", "grasp_failed")

    def _place(self, robot: RobotState, location: str, rng) -> SkillOutcome:
        if not self.known_location(location):
            raise UnknownRoomError(f"unknown room {location!r}")
        if robot.held_object is None:
            return SkillOutcome("failed", "no_object_held")
        if rng.random() < robot.p_place:
            self.object_rooms[robot.held_object] = robot.current_room
            robot.held_object = None
            return _SUCCEEDED
        return SkillOutcome("failed", "place_failed")

    def check_conservation(self) -> None:
        """Raise if any object is lost or duplicated between rooms and grippers."""
        held = [r.held_object for r in self.robots.values() if r.held_object is not None]
        if len(held) != len(set(held)):
            raise AssertionError("an object is held by two grippers")
        for obj, room in self.object_rooms.items():
            if (room is None) != (obj in held):
                raise AssertionError(f"object {obj!r} is in an inconsistent location")


def observe_session(env: Environment, robot: RobotState, room: str, rng: np.random.Generator) -> Session:
    """Simulated learning observation taken from inside ``room``."""
    target = env.room(room)
    if target.floor != robot.floor:
        raise FloorAccessError(f"room {room!r} is on floor {target.floor!r}, robot is on {robot.floor!r}")
    position = rng.multivariate_normal(target.center_array, target.scatter_array)
    labels = [o for o, placed in sorted(env.placements.items())
              if placed == room and rng.random() < robot.p_detect_present]
    words_pool = env.place_words.get(room, [])
    if words_pool:
        count = int(rng.integers(1, 4))
        words = [str(w) for w in rng.choice(words_pool, size=count, replace=True)]
    else:
        words = []
    return Session(position=np.asarray(position), object_labels=labels, place_words=words, room_hint=room)


def generate_floor_sessions(env: Environment, robot: RobotState, rng: np.random.Generator,
                            visits_per_room: int = 30) -> list[Session]:
    """Room-by-room observation protocol: each room visited ``visits_per_room`` times."""
    sessions = []
    for room in env.rooms_on(robot.floor):
        for _ in range(visits_per_room):
            sessions.append(observe_session(env, robot, room.name, rng))
    return sessions


def _room_from_dict(data: dict, idx: int) -> Room:
    name, floor, center = require_fields(data, ("name", "floor", "center"), f"rooms[{idx}]")
    require(name, str, f"rooms[{idx}].name")
    require(floor, str, f"rooms[{idx}].floor")
    try:
        center = tuple(center)
        scatter = tuple(tuple(row) for row in data.get("scatter", Room.scatter))
    except TypeError:
        raise SchemaError(f"rooms[{idx}]: center and scatter must be lists of numbers") from None
    return Room(name=name, floor=floor, center=center, scatter=scatter)


def environment_from_dict(data: dict) -> Environment:
    floors, rooms, placements, categories, place_words = require_fields(
        data, _ENV_KEYS, "environment document")
    for room, words in require(place_words, dict, "place_words").items():
        require(words, list, f"place_words[{room}]", str)
    return Environment(
        floors=list(require(floors, list, "floors", str)),
        rooms=[_room_from_dict(r, i) for i, r in enumerate(require(rooms, list, "rooms"))],
        placements=dict(require(placements, dict, "placements", str)),
        categories=dict(require(categories, dict, "categories", str)),
        place_words={k: list(v) for k, v in place_words.items()},
    )


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


def save_environment(env: Environment, path) -> None:
    Path(path).write_text(json.dumps(environment_to_dict(env), indent=2))


def load_environment(name_or_path) -> Environment:
    """Load a builtin environment by name or a JSON document by path."""
    key = str(name_or_path)
    if key in BUILTIN_ENVIRONMENTS:
        return BUILTIN_ENVIRONMENTS[key]()
    if not Path(name_or_path).exists():
        raise SchemaError(f"{key!r} is neither a builtin environment {sorted(BUILTIN_ENVIRONMENTS)} nor a file")
    return environment_from_dict(read_json(name_or_path, "environment"))


def paper_home() -> Environment:
    """The bundled two-floor home: 10 rooms, 24 objects, two confined robots.

    Hard-to-predict objects sit on a different floor than everyday intuition
    suggests, so locating them requires learned on-site knowledge.
    """
    rooms = [
        Room("entrance", "1F", (0.0, 0.0)),
        Room("dining", "1F", (6.0, 0.0)),
        Room("living_room", "1F", (0.0, 6.0)),
        Room("office_room", "1F", (6.0, 6.0)),
        Room("kitchen", "1F", (3.0, 3.0)),
        Room("front_of_stairs", "2F", (0.0, 0.0)),
        Room("corridor", "2F", (6.0, 0.0)),
        Room("bathroom", "2F", (0.0, 6.0)),
        Room("child_room", "2F", (6.0, 6.0)),
        Room("parent_room", "2F", (3.0, 3.0)),
    ]
    placements = {
        # 1F
        "pitcher_base": "dining",
        "bowl": "dining",
        "plate": "living_room",
        "penguin_doll": "living_room",
        "sheep_doll": "living_room",
        "pudding_box": "living_room",
        "fruits_juice": "living_room",
        "coffee": "office_room",
        "towel": "office_room",
        "tooth_paste": "kitchen",
        "apple": "kitchen",
        "orange": "kitchen",
        "muscat": "kitchen",
        # 2F
        "car_toy": "front_of_stairs",
        "airplane_toy": "bathroom",
        "body_sponge": "bathroom",
        "bath_slipper": "bathroom",
        "truck_toy": "child_room",
        "pig_doll": "child_room",
        "cracker_box": "child_room",
        "chips_bag": "child_room",
        "cup": "parent_room",
        "banana": "parent_room",
        "treatments": "parent_room",
    }
    hard = {
        # Typical-room intuition points at the other floor for these.
        "tooth_paste", "towel", "penguin_doll", "sheep_doll",
        "banana", "cup", "treatments", "cracker_box", "chips_bag",
    }
    categories = {o: (CATEGORY_HARD if o in hard else CATEGORY_COMMON) for o in placements}
    place_words = {
        "entrance": ["entrance", "door", "hallway", "doormat", "shoe_rack"],
        "dining": ["dining", "dining_table", "table", "chair", "cupboard"],
        "living_room": ["living_room", "sofa", "tv", "couch", "shelf"],
        "office_room": ["office_room", "desk", "computer", "bookshelf", "office_chair"],
        "kitchen": ["kitchen", "sink", "refrigerator", "stove", "counter"],
        "front_of_stairs": ["front_of_stairs", "stairs", "landing", "railing"],
        "corridor": ["corridor", "passage", "hall", "walls"],
        "bathroom": ["bathroom", "bath", "shower", "washbasin", "towel_rack"],
        "child_room": ["child_room", "toy_shelf", "bed", "toys", "study_desk"],
        "parent_room": ["parent_room", "double_bed", "closet", "dresser", "nightstand"],
    }
    return Environment(
        floors=["1F", "2F"],
        rooms=rooms,
        placements=placements,
        categories=categories,
        place_words=place_words,
    )


def robocup_arena() -> Environment:
    """A small two-zone venue used by the scripted field-trip demonstration."""
    rooms = [
        Room("living_room", "zone1", (0.0, 0.0)),
        Room("entrance", "zone1", (6.0, 0.0)),
        Room("kitchen", "zone2", (0.0, 0.0)),
        Room("corridor", "zone2", (6.0, 0.0)),
    ]
    placements = {
        "bag": "living_room",
        "snacks": "living_room",
        "cup": "kitchen",
        "water_bottle": "kitchen",
        "fruits_juice": "kitchen",
    }
    categories = {o: CATEGORY_COMMON for o in placements}
    place_words = {
        "living_room": ["living_room", "sofa", "tv"],
        "entrance": ["entrance", "door"],
        "kitchen": ["kitchen", "sink", "counter"],
        "corridor": ["corridor", "hallway"],
    }
    return Environment(
        floors=["zone1", "zone2"],
        rooms=rooms,
        placements=placements,
        categories=categories,
        place_words=place_words,
    )


BUILTIN_ENVIRONMENTS = {
    "paper_home": paper_home,
    "robocup_arena": robocup_arena,
}
