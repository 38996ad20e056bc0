"""Two-floor household simulator: rooms, placements, robots, skill outcomes.

Rooms are abstract nodes with Gaussian position footprints.  A room checks
its own fields when built and an environment checks its tables and what they
refer to; both are then frozen.  Robots are pinned to a floor;
navigation across floors always fails with a ``floor_barrier`` reason.  Every
floor additionally exposes an implicit delivery point named ``gather`` where
fetched objects are dropped off.
"""

from __future__ import annotations

from collections.abc import Iterator, Mapping
from dataclasses import dataclass, field, replace
from functools import cached_property
from pathlib import Path
from types import MappingProxyType

import numpy as np

from .errors import (
    ConfigurationError,
    FloorAccessError,
    PlanningError,
    SchemaError,
    UnknownLabelError,
    UnknownRoomError,
    is_count,
    is_finite_real,
    read_json,
    require,
    require_fields,
    tuple_of,
)
from .spatial import Session

SKILLS = ("navigation", "object_detection", "pick", "place")
GATHER = "gather"
CATEGORY_COMMON = "common_sense"
CATEGORY_HARD = "hard_to_predict"
CATEGORIES = (CATEGORY_COMMON, CATEGORY_HARD)

_BLOCK = 32  # uniforms drawn per refill of a robot's outcome stream
VISITS_PER_ROOM = 30  # the observation protocol's visits to each room of a floor


@dataclass(frozen=True)
class Room:
    """A named room on a floor with a Gaussian position footprint, checked when built and stored as tuples:
    ``center`` two finite numbers, ``scatter`` a finite, symmetric, positive semi-definite 2x2 matrix
    (an all-zero scatter is the deterministic limit: every position is the center)."""

    name: str
    floor: str
    center: tuple[float, float]
    scatter: tuple[tuple[float, float], tuple[float, float]] = ((0.25, 0.0), (0.0, 0.25))

    def __post_init__(self):
        if not isinstance(self.name, str):
            raise SchemaError(f"room name must be a str, not {self.name!r}")
        if not isinstance(self.floor, str):
            raise SchemaError(f"room {self.name!r}: floor must be a str, not {self.floor!r}")
        if not _finite_pair(self.center):
            raise SchemaError(f"room {self.name!r}: center must be two finite numbers, not {self.center!r}")
        rows = self.scatter
        if (not (isinstance(rows, (list, tuple)) and len(rows) == 2 and all(_finite_pair(row) for row in rows))
                or rows[0][1] != rows[1][0] or rows[0][0] < 0 or rows[1][1] < 0
                or rows[0][0] * rows[1][1] - rows[0][1] * rows[1][0] < 0):
            raise SchemaError(f"room {self.name!r}: scatter must be a finite, symmetric, "
                              f"positive semi-definite 2x2 matrix, not {rows!r}")
        object.__setattr__(self, "center", tuple(self.center))
        object.__setattr__(self, "scatter", tuple(tuple(row) for row in rows))

    @cached_property
    def draw_factor(self) -> np.ndarray:
        """``Generator.multivariate_normal``'s transposed SVD factor of ``scatter``, taken once."""
        u, s, _ = np.linalg.svd(self.scatter)
        factor = (u * np.sqrt(s)).T
        factor.flags.writeable = False  # every draw from this room shares it
        return factor


def _finite_pair(value) -> bool:
    """Whether ``value`` is a list or tuple of two finite numbers."""
    return isinstance(value, (list, tuple)) and len(value) == 2 and all(is_finite_real(v) for v in value)


@dataclass(frozen=True)
class Environment:
    """A home's rooms and objects, frozen as tuples and read-only mappings; change one with ``dataclasses.replace``."""

    floors: tuple[str, ...]
    rooms: tuple[Room, ...]
    placements: Mapping[str, str]
    categories: Mapping[str, str]
    place_words: Mapping[str, tuple[str, ...]]

    def __post_init__(self):
        # Every table's type first, so the checks below and every query read them unchecked;
        # a room checked its own fields when it was built.
        rooms = tuple_of(self.rooms, Room, "rooms")
        for name, table in (("placements", self.placements), ("categories", self.categories)):
            if not (isinstance(table, Mapping) and all(isinstance(x, str) for item in table.items() for x in item)):
                raise SchemaError(f"{name} must be a mapping of str to str")
        words = {room: tuple_of(w, str, f"place_words[{room}]")
                 for room, w in require(self.place_words, Mapping, "place_words").items()}
        for name, value in (("floors", tuple_of(self.floors, str, "floors")), ("rooms", rooms),
                            ("placements", MappingProxyType(dict(self.placements))),
                            ("categories", MappingProxyType(dict(self.categories))),
                            ("place_words", MappingProxyType(words)), ("_rooms_by_name", {r.name: r for r in rooms})):
            object.__setattr__(self, name, value)
        problems = []
        if not self.floors:
            problems.append("floors: empty")
        if not self.rooms:
            problems.append("rooms: empty")
        if len(self._rooms_by_name) != len(self.rooms):
            problems.append("rooms: duplicate names")
        if GATHER in self._rooms_by_name:
            problems.append(f"rooms: {GATHER!r} is a reserved delivery-point name")
        for r in self.rooms:
            if r.floor not in self.floors:
                problems.append(f"rooms[{r.name}].floor: unknown floor {r.floor!r}")
        for obj, room in self.placements.items():
            if room not in self._rooms_by_name:
                problems.append(f"placements[{obj}]: unknown room {room!r}")
        for obj, cat in self.categories.items():
            if cat not in CATEGORIES:
                problems.append(f"categories[{obj}]: unknown category {cat!r}")
        for room in self.place_words:
            if room not in self._rooms_by_name:
                problems.append(f"place_words[{room}]: unknown room")
        if problems:
            raise SchemaError("invalid environment: " + "; ".join(problems))

    def room(self, name: str) -> Room:
        try:
            return self._rooms_by_name[name]
        except KeyError:
            raise UnknownRoomError(f"unknown room {name!r}") from None

    def has_room(self, name: str) -> bool:
        return name in self._rooms_by_name

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
    held_object: str | None = field(default=None, init=False)  # a robot starts with an empty gripper
    p_navigate: float = 1.0
    p_detect_present: float = 0.9
    p_pick: float = 0.8
    p_place: float = 0.95

    def __post_init__(self):
        for name in ("p_navigate", "p_detect_present", "p_pick", "p_place"):
            v = getattr(self, name)
            if not (is_finite_real(v) and 0 <= v <= 1):
                raise ConfigurationError(f"{name} must be a number in [0, 1], got {v!r}")


@dataclass(frozen=True)
class SkillOutcome:
    status: str  # "succeeded" | "failed"
    detail: str | None = None

    @property
    def succeeded(self) -> bool:
        return self.status == "succeeded"


# Outcomes are frozen, so every step that ends the same way shares one.
_SUCCEEDED = SkillOutcome("succeeded")
_DETECTED = SkillOutcome("succeeded", "detected")
_FLOOR_BARRIER = SkillOutcome("failed", "floor_barrier")
_NAVIGATION_FAILED = SkillOutcome("failed", "navigation_failed")
_NOT_FOUND = SkillOutcome("failed", "not_found")
_GRIPPER_OCCUPIED = SkillOutcome("failed", "gripper_occupied")
_NOT_DETECTED = SkillOutcome("failed", "not_detected")
_OBJECT_NOT_PRESENT = SkillOutcome("failed", "object_not_present")
_GRASP_FAILED = SkillOutcome("failed", "grasp_failed")
_NO_OBJECT_HELD = SkillOutcome("failed", "no_object_held")
_NOT_AT_LOCATION = SkillOutcome("failed", "not_at_location")
_PLACE_FAILED = SkillOutcome("failed", "place_failed")


class World:
    """Mutable simulation state: object locations, robot poses, RNG streams.

    Each robot draws from its own child generator, so one robot's outcome
    stream does not depend on how other robots' skills are interleaved.  The
    i-th robot's generator is the i-th child of ``SeedSequence(seed).spawn(n)``,
    built on its first draw after a (re)seed; its draws come in blocks of its
    own stream, the same doubles as scalar draws, and a skill takes one only
    where it draws.  Rooms are looked up by name in the environment's room table.
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
        self.object_rooms: dict[str, str | None] = env.placements.copy()
        self._detections: dict[str, tuple[str, str] | None] = {r.robot_id: None for r in robots}
        self._robot_index = {r.robot_id: i for i, r in enumerate(robots)}
        self.reseed(seed)

    def reseed(self, seed: int) -> None:
        """Restart every robot's outcome stream from ``seed``."""
        self._seed = seed
        self._streams: dict[str, Iterator[float]] = {}

    def robot(self, robot_id: str) -> RobotState:
        try:
            return self.robots[robot_id]
        except KeyError:
            raise PlanningError(f"unknown robot {robot_id!r}") from None

    def object_room(self, obj: str) -> str | None:
        """The room ``obj`` is in, None while it is held; UnknownLabelError for an object the world lacks."""
        try:
            return self.object_rooms[obj]
        except KeyError:
            raise UnknownLabelError(f"unknown object {obj!r}") from None

    def location_floor(self, name: str, robot: RobotState) -> str | None:
        """The floor of location ``name`` for ``robot``: ``gather`` is on every floor.
        None for an unknown name."""
        if name == GATHER:
            return robot.floor
        try:
            return self.env.room(name).floor
        except UnknownRoomError:
            return None

    def step_skill(self, robot_id: str, skill: str, argument: str) -> SkillOutcome:
        robot = self.robot(robot_id)
        try:
            take = _SKILL_STEPS[skill]
        except KeyError:
            raise PlanningError(f"unknown skill {skill!r}; expected one of {SKILLS}") from None
        stream = self._streams.get(robot_id)
        if stream is None:
            stream = self._streams[robot_id] = _uniforms(self._seed, self._robot_index[robot_id])
        return take(self, robot, argument, stream)

    def _navigate(self, robot: RobotState, room: str, uniforms: Iterator[float]) -> SkillOutcome:
        floor = self.location_floor(room, robot)
        if floor is None:
            raise UnknownRoomError(f"unknown room {room!r}")
        if floor != robot.floor:
            return _FLOOR_BARRIER
        if next(uniforms) < robot.p_navigate:
            robot.current_room = room
            return _SUCCEEDED
        return _NAVIGATION_FAILED

    def _detect(self, robot: RobotState, obj: str, uniforms: Iterator[float]) -> SkillOutcome:
        room = self.object_room(obj)
        # One draw per call, present or not, so a robot's stream does not depend on where objects are.
        if next(uniforms) < robot.p_detect_present and room == robot.current_room:
            self._detections[robot.robot_id] = (obj, robot.current_room)
            return _DETECTED
        return _NOT_FOUND

    def _pick(self, robot: RobotState, obj: str, uniforms: Iterator[float]) -> SkillOutcome:
        room = self.object_room(obj)
        if robot.held_object is not None:
            return _GRIPPER_OCCUPIED
        if self._detections[robot.robot_id] != (obj, robot.current_room):
            return _NOT_DETECTED
        if room != robot.current_room:
            return _OBJECT_NOT_PRESENT
        if next(uniforms) < robot.p_pick:
            robot.held_object = obj
            self.object_rooms[obj] = None
            return _SUCCEEDED
        return _GRASP_FAILED

    def _place(self, robot: RobotState, location: str, uniforms: Iterator[float]) -> SkillOutcome:
        if self.location_floor(location, robot) is None:
            raise UnknownRoomError(f"unknown room {location!r}")
        if robot.held_object is None:
            return _NO_OBJECT_HELD
        if location != robot.current_room:
            return _NOT_AT_LOCATION
        if next(uniforms) < robot.p_place:
            self.object_rooms[robot.held_object] = robot.current_room
            robot.held_object = None
            return _SUCCEEDED
        return _PLACE_FAILED

    def check_conservation(self) -> None:
        """Raise if any object is lost or duplicated between rooms and grippers."""
        held = [r.held_object for r in self.robots.values() if r.held_object is not None]
        if len(held) != len(set(held)):
            raise AssertionError("an object is held by two grippers")
        for obj, room in self.object_rooms.items():
            if (room is None) != (obj in held):
                raise AssertionError(f"object {obj!r} is in an inconsistent location")


_SKILL_STEPS = {"navigation": World._navigate, "object_detection": World._detect,
                "pick": World._pick, "place": World._place}


def _uniforms(seed: int, index: int) -> Iterator[float]:
    """Robot ``index``'s uniforms in blocks: its child of ``SeedSequence(seed)``, built on first draw."""
    rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(index,)))
    while True:
        yield from rng.random(_BLOCK).tolist()


def observe_session(env: Environment, robot: RobotState, room: str, rng: np.random.Generator) -> Session:
    """Simulated learning observation taken from inside ``room``."""
    target = env.room(room)
    if target.floor != robot.floor:
        raise FloorAccessError(f"room {room!r} is on floor {target.floor!r}, robot is on {robot.floor!r}")
    # multivariate_normal(center, scatter, check_valid="ignore"), bit for bit: the scatter was
    # checked positive semi-definite when the room was built.
    position = rng.standard_normal((1, 2)) @ target.draw_factor
    position += target.center
    labels = [o for o, placed in sorted(env.placements.items())
              if placed == room and rng.random() < robot.p_detect_present]
    words_pool = env.place_words.get(room, [])
    if words_pool:
        count = int(rng.integers(1, 4))
        words = [str(w) for w in rng.choice(words_pool, size=count, replace=True)]
    else:
        words = []
    return Session(position=position[0], object_labels=labels, place_words=words, room_hint=room)


def generate_floor_sessions(env: Environment, robot: RobotState, rng: np.random.Generator,
                            visits_per_room: int = VISITS_PER_ROOM) -> list[Session]:
    """Room-by-room observation protocol: each room visited ``visits_per_room`` times."""
    if not is_count(visits_per_room) or visits_per_room < 1:
        raise ConfigurationError(f"visits_per_room must be an integer >= 1, got {visits_per_room!r}")
    sessions = []
    for room in env.rooms_on(robot.floor):
        for _ in range(visits_per_room):
            sessions.append(observe_session(env, robot, room.name, rng))
    return sessions


def _room_from_dict(data: dict, idx: int) -> Room:
    name, floor, center = require_fields(data, ("name", "floor", "center"), f"rooms[{idx}]")
    try:
        return Room(name, floor, center, data.get("scatter", Room.scatter))
    except SchemaError as exc:  # name the room's place in the file: its name may be what is wrong
        raise SchemaError(f"rooms[{idx}]: {exc}") from None


def environment_from_dict(data: dict) -> Environment:
    fields = ("floors", "rooms", "placements", "categories", "place_words")
    floors, rooms, placements, categories, place_words = require_fields(data, fields, "environment document")
    rooms = [_room_from_dict(r, i) for i, r in enumerate(require(rooms, list, "rooms"))]
    return Environment(floors, rooms, placements, categories, place_words)


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
