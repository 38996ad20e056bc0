"""On-site knowledge artifacts and their prompt renderings.

A robot's knowledge base holds two things extracted from its learned model:
per-region lists of high-probability place words, and a presence table
mapping each object label to a probability row over the robot's rooms.
Renderers emit the prompt-component text blocks consumed by the planner;
parsers invert the two table-like blocks for round-trip checks.  ``PROMPTS``
maps each component kind to the text it renders from the knowledge bases.
"""

from __future__ import annotations

import functools
import json
import re
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import SchemaError, is_finite_real, read_json, require, require_fields
from .spatial import SpatialConceptModel, object_location_posterior, word_posterior
from .world import SKILLS, Environment, Room

_DIVIDER = "-" * 16

_COUNT_WORDS = {
    1: "one", 2: "two", 3: "three", 4: "four", 5: "five", 6: "six",
    7: "seven", 8: "eight", 9: "nine", 10: "ten", 11: "eleven", 12: "twelve",
}


@dataclass
class KnowledgeBase:
    """A robot's floor-local knowledge: room names, place vocab, presence rows."""

    robot_id: str
    room_names: list[str]
    place_vocab: list[list[str]]
    presence_table: dict[str, list[float]]

    def __post_init__(self):
        if len(self.place_vocab) != len(self.room_names):
            raise SchemaError("place_vocab must have one entry per room")
        for obj, row in self.presence_table.items():
            if len(row) != len(self.room_names):
                raise SchemaError(f"presence row for {obj!r} has wrong length")

    def row(self, obj: str) -> np.ndarray:
        return np.asarray(self.presence_table[obj], dtype=float)

    def best_room(self, obj: str) -> tuple[str, float]:
        row = self.row(obj)
        idx = int(np.argmax(row))
        return self.room_names[idx], float(row[idx])


def match_room_names(model: SpatialConceptModel, rooms: list[Room]) -> list[str]:
    """Label each learned region with the closest room, bijectively.

    Uses a minimum-cost assignment on squared distances between region means
    and room centers; purely an evaluation-side convenience, the learner
    itself never sees room names.
    """
    # Imported here: scipy.optimize adds about 23 MB and its import time to
    # every command, and only room matching needs it.
    from scipy.optimize import linear_sum_assignment

    if len(rooms) < model.num_regions:
        raise ValueError("need at least as many candidate rooms as regions")
    means = np.stack([r.mean for r in model.regions])
    centers = np.stack([r.center_array for r in rooms])
    cost = ((means[:, None, :] - centers[None, :, :]) ** 2).sum(axis=2)
    region_idx, room_idx = linear_sum_assignment(cost)
    names = [""] * model.num_regions
    for reg, room in zip(region_idx, room_idx):
        names[reg] = rooms[room].name
    return names


def extract_knowledge(
    model: SpatialConceptModel,
    room_names: list[str],
    vocab_threshold: float = 0.05,
    robot_id: str = "robot",
) -> KnowledgeBase:
    """Turn a learned model into place-vocabulary lists and a presence table.

    ``room_names`` supplies the display name for each region index, so its
    length must equal the model's region count.  Presence rows are exactly
    the object-location posteriors, with no further smoothing.
    """
    if len(room_names) != model.num_regions:
        raise ValueError("room_names must name every region")
    if not 0.0 < vocab_threshold < 1.0:
        raise ValueError("vocab_threshold must be in (0, 1)")
    place_vocab = []
    for region in range(model.num_regions):
        probs = word_posterior(model, region).probs
        order = np.argsort(-probs, kind="stable")
        place_vocab.append([model.vocab_places[i] for i in order if probs[i] >= vocab_threshold])
    presence = {}
    for obj in model.vocab_objects:
        presence[obj] = object_location_posterior(model, obj).probs.tolist()
    return KnowledgeBase(
        robot_id=robot_id,
        room_names=list(room_names),
        place_vocab=place_vocab,
        presence_table=presence,
    )


def knowledge_from_environment(env: Environment, floor: str, robot_id: str) -> KnowledgeBase:
    """Ground-truth knowledge base: one-hot presence rows from true placements."""
    rooms = env.rooms_on(floor)
    if not rooms:
        raise ValueError(f"floor {floor!r} has no rooms")
    names = [r.name for r in rooms]
    presence = {}
    for obj in env.objects_on(floor):
        row = [0.0] * len(names)
        row[names.index(env.placements[obj])] = 1.0
        presence[obj] = row
    vocab = [list(env.place_words.get(n, [])) for n in names]
    return KnowledgeBase(robot_id=robot_id, room_names=names, place_vocab=vocab, presence_table=presence)


def _count_word(n: int) -> str:
    return _COUNT_WORDS.get(n, str(n))


def render_place_vocab(kb: KnowledgeBase) -> str:
    """Place-vocabulary block: count preamble plus one bracketed list per region."""
    n = len(kb.room_names)
    word = _count_word(n)
    lines = [
        f"There are {word} location areas in a home environment.",
        f"Your initial position is outside of the {word} rooms.",
        "In each region, words related to the following locations are likely to be observed.",
    ]
    for i, words in enumerate(kb.place_vocab, start=1):
        lines.append(f"place{i}: [{', '.join(words)}]")
    return "\n".join(lines)


_PLACE_LINE = re.compile(r"^place(\d+): \[(.*)\]$")


def parse_place_vocab(text: str) -> list[list[str]]:
    """Invert :func:`render_place_vocab`, returning the per-region word lists."""
    out = []
    for line in text.splitlines():
        m = _PLACE_LINE.match(line.strip())
        if m:
            body = m.group(2)
            out.append([w for w in body.split(", ") if w] if body else [])
    return out


def format_probability(p: float) -> str:
    """Up to four decimals with trailing zeros trimmed: 0.0100 -> "0.01"."""
    s = f"{p:.4f}".rstrip("0")
    return s + "0" if s.endswith(".") else s


@functools.lru_cache(maxsize=4096)
def _presence_line(obj: str, row: bytes) -> str:
    """One rendered presence row, keyed by its IEEE-754 doubles.

    Bytes, not floats, key the cache: ``0.0 == -0.0`` but they render apart.
    """
    values = struct.unpack(f"{len(row) // 8}d", row)
    return f"{obj} = [{', '.join(format_probability(p) for p in values)}]"


def render_presence_table(kbs: list[KnowledgeBase]) -> str:
    """Per-robot presence-table blocks separated by a dashed divider."""
    if not kbs:
        raise ValueError("need at least one knowledge base")
    blocks = []
    for kb in kbs:
        lines = [
            kb.robot_id,
            '"List of probabilities that an object exists":',
            f"[{', '.join(kb.room_names)}]",
        ]
        for obj, row in kb.presence_table.items():
            lines.append(_presence_line(obj, struct.pack(f"{len(row)}d", *row)))
        blocks.append("\n".join(lines))
    return f"\n{_DIVIDER}\n".join(blocks)


def _check_presence_row(obj: str, row) -> None:
    """SchemaError unless ``row`` is a list of finite non-negative numbers with a finite sum.

    Both loaders of presence rows, the knowledge document and the rendered table, run it.
    """
    if not (isinstance(row, list) and all(is_finite_real(v) and v >= 0 for v in row)
            and is_finite_real(sum(row))):
        raise SchemaError(f"presence row for {obj!r} must be a list of finite non-negative numbers "
                          "with a finite sum")


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
            _check_presence_row(m.group(1), row)
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


def render_objects(kbs: list[KnowledgeBase]) -> str:
    """Every object label the robots know, sorted."""
    return ", ".join(sorted({obj for kb in kbs for obj in kb.presence_table}))


SKILLS_PROMPT = ", ".join(SKILLS)

ALLOCATION_RULE_PROMPT = (
    '# IMPORTANT: Subtasks are assigned taking into consideration the objects listed in the '
    '"List of probabilities that an object exists" that each robot has.')

BEHAVIORS_PROMPT = "\n".join([
    "navigation (location_name): move to location_name",
    "object_detection (object_name): detect an object_name and its position from a captured image",
    "pick (object_name): pick up an object_name",
    "place (location_name): place an object to the location_name",
    "",
    'These behaviors return "succeeded" or "failed". If "failed" is returned, try the same or another behavior again.',
    "Do not ask back anything about the user's instructions.",
])

DIALOGUE_EXAMPLE_PROMPT = "\n".join([
    "USER : bring the cup to the kitchen",
    "ASSISTANT : navigation (living_room)",
    "USER : succeeded",
    "ASSISTANT : object_detection (cup)",
    "USER : succeeded",
    "ASSISTANT : pick (cup)",
    "USER : failed",
    "ASSISTANT : pick (cup)",
    "USER : succeeded",
    "ASSISTANT : navigation (kitchen)",
    "USER : succeeded%finished",
    'USER : "I need you to locate a cup for me."',
])

DECOMPOSITION_EXAMPLE_PROMPT = "\n".join([
    "Task Description:",
    "Prepare for the excursion.",
    "",
    "SubTask 1: Bring a water bottle.",
    "SubTask 2: Bring a backpack.",
])

# Each prompt component kind, and its text for a list of knowledge bases.
PROMPTS = {
    "place_vocab": lambda kbs: render_place_vocab(kbs[0]),
    "presence_table": render_presence_table,
    "skills": lambda kbs: SKILLS_PROMPT,
    "objects": render_objects,
    "allocation_rule": lambda kbs: ALLOCATION_RULE_PROMPT,
    "behaviors": lambda kbs: BEHAVIORS_PROMPT,
    "dialogue_example": lambda kbs: DIALOGUE_EXAMPLE_PROMPT,
    "decomposition_example": lambda kbs: DECOMPOSITION_EXAMPLE_PROMPT,
}


def knowledge_to_dict(kb: KnowledgeBase) -> dict:
    return {
        "robot_id": kb.robot_id,
        "room_names": list(kb.room_names),
        "place_vocab": [list(v) for v in kb.place_vocab],
        "presence_table": {k: list(v) for k, v in kb.presence_table.items()},
    }


def knowledge_from_dict(data: dict) -> KnowledgeBase:
    fields = ("robot_id", "room_names", "place_vocab", "presence_table")
    robot_id, room_names, place_vocab, table = require_fields(data, fields, "knowledge document")
    # Containers and rows are checked here, once per load, so rendering and allocation read them unchecked.
    require(robot_id, str, "robot_id")
    require(room_names, list, "room_names", str)
    for i, words in enumerate(require(place_vocab, list, "place_vocab")):
        require(words, list, f"place_vocab[{i}]", str)
    for obj, row in require(table, dict, "presence_table").items():
        _check_presence_row(obj, row)
    return KnowledgeBase(
        robot_id=robot_id,
        room_names=list(room_names),
        place_vocab=[list(v) for v in place_vocab],
        presence_table={k: list(v) for k, v in table.items()},
    )


def save_knowledge(kb: KnowledgeBase, path) -> None:
    Path(path).write_text(json.dumps(knowledge_to_dict(kb), indent=2))


def load_knowledge(path) -> KnowledgeBase:
    return knowledge_from_dict(read_json(path, "knowledge-base"))
