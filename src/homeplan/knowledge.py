"""On-site knowledge artifacts and their prompt renderings.

A robot's knowledge base holds two things extracted from its learned model:
per-region lists of high-probability place words, and a presence table
mapping each object label to a probability row over the robot's rooms.
A base is checked and frozen when built, by any builder, and renders its
presence-table block and ranks each object's rooms once.  Renderers emit the
prompt-component text blocks consumed by the planner.
``PROMPTS`` maps each component kind to the text it renders from the
knowledge bases.
"""

from __future__ import annotations

import functools
from collections.abc import Mapping
from dataclasses import dataclass
from types import MappingProxyType

import numpy as np

from .errors import ConfigurationError, SchemaError, is_finite_real, read_json, require_fields, tuple_of, write_json
from .spatial import SpatialConceptModel, object_location_posterior, word_posterior
from .world import SKILLS, Environment

_DIVIDER = "-" * 16
# The least posterior probability of a word in a region's place vocabulary.
PLACE_VOCAB_THRESHOLD = 0.05

_COUNT_WORDS = {
    1: "one", 2: "two", 3: "three", 4: "four", 5: "five", 6: "six",
    7: "seven", 8: "eight", 9: "nine", 10: "ten", 11: "eleven", 12: "twelve",
}


@dataclass(frozen=True)
class KnowledgeBase:
    """A robot's floor-local knowledge: room names, place vocab, presence rows.

    However it is built, a base is checked once and then frozen: names and word
    lists become tuples, each row a tuple of its values as given, and the table
    a read-only mapping.  So each base renders its presence block and ranks its rows only once.
    """

    robot_id: str
    room_names: tuple[str, ...]
    place_vocab: tuple[tuple[str, ...], ...]
    presence_table: Mapping[str, tuple[float, ...]]

    def __post_init__(self):
        if not (isinstance(self.robot_id, str) and self.robot_id):
            raise SchemaError("robot_id must be a non-empty str")
        rooms = tuple_of(self.room_names, str, "room_names")
        if not rooms:
            raise SchemaError("room_names must name at least one room")
        if len(set(rooms)) != len(rooms):
            raise SchemaError(f"room_names must not repeat a name: {list(rooms)}")
        vocab = tuple(tuple_of(words, str, f"place_vocab[{i}]")
                      for i, words in enumerate(tuple_of(self.place_vocab, object, "place_vocab")))
        if len(vocab) != len(rooms):
            raise SchemaError("place_vocab must have one entry per room")
        if not isinstance(self.presence_table, Mapping):
            raise SchemaError("presence_table must be a mapping")
        for obj, row in self.presence_table.items():
            _check_presence_row(obj, row, len(rooms))
        table = MappingProxyType({obj: tuple(row) for obj, row in self.presence_table.items()})
        for name, value in (("room_names", rooms), ("place_vocab", vocab), ("presence_table", table)):
            object.__setattr__(self, name, value)

    @functools.cached_property
    def presence_block(self) -> str:
        """This robot's block of the presence-table prompt."""
        rows = [f"{obj} = [{', '.join(map(format_probability, row))}]" for obj, row in self.presence_table.items()]
        return "\n".join([self.robot_id, '"List of probabilities that an object exists":',
                          f"[{', '.join(self.room_names)}]", *rows])

    @functools.cached_property
    def _ranking(self) -> dict[str, tuple[tuple[str, ...], tuple[str, float] | None]]:
        """Each object's rooms in descending presence, ties in room order, and its top room with
        probability ``row[top] / sum(row)``, or None for an all-zero row."""
        ranking = {}
        for obj, values in self.presence_table.items():
            row = np.asarray(values, dtype=float)
            order = np.argsort(-row, kind="stable")
            total, top = row.sum(), order[0]
            best = (self.room_names[top], float(row[top] / total)) if total > 0 else None
            ranking[obj] = tuple(self.room_names[i] for i in order), best
        return ranking

    def search_order(self, obj: str) -> tuple[str, ...]:
        """The rooms in which to look for ``obj``, likeliest first; KeyError for an absent object."""
        return self._ranking[obj][0]

    def best_room(self, obj: str) -> tuple[str, float] | None:
        """The first room holding ``obj``'s largest value, and that value over the row's sum;
        None for an absent or massless row."""
        ranked = self._ranking.get(obj)
        return ranked[1] if ranked else None


def _check_presence_row(obj, row, n: int) -> None:
    """SchemaError unless ``row`` is a list or tuple of ``n`` finite non-negative numbers with a finite sum."""
    if not (isinstance(obj, str) and isinstance(row, (list, tuple)) and len(row) == n
            and all(is_finite_real(v) and v >= 0 for v in row) and is_finite_real(sum(row))):
        raise SchemaError(f"presence row for {obj!r} must be a list of {n} finite non-negative numbers "
                          "with a finite sum")


def _min_cost_assignment(cost: np.ndarray) -> np.ndarray:
    """The column of each row in a minimum-cost assignment of an (n, m) cost matrix, n <= m.

    Kuhn-Munkres by shortest augmenting paths: rows join one at a time, and each
    join is a Dijkstra search over reduced costs kept non-negative by row and
    column potentials.  Among columns at the same distance a search settles the
    lowest column index first, so tied optima resolve deterministically.
    """
    n, m = cost.shape
    row_of = np.full(m + 1, -1)  # the row held by each column; column m is the search's virtual start
    u, v = np.zeros(n), np.zeros(m + 1)
    for i in range(n):
        row_of[m], col = i, m
        dist, prev, done = np.full(m, np.inf), np.full(m, m), np.zeros(m + 1, dtype=bool)
        while row_of[col] >= 0:
            done[col] = True
            row = row_of[col]
            reduced = cost[row] - u[row] - v[:m]
            free = ~done[:m]
            closer = free & (reduced < dist)
            dist[closer], prev[closer] = reduced[closer], col
            col = int(np.argmin(np.where(free, dist, np.inf)))
            delta = dist[col]
            u[row_of[done]] += delta
            v[done] -= delta
            dist[free] -= delta
        while col != m:  # augment along the path back to the virtual start
            row_of[col] = row_of[prev[col]]
            col = prev[col]
    assigned = np.flatnonzero(row_of[:m] >= 0)
    out = np.empty(n, dtype=int)
    out[row_of[assigned]] = assigned
    return out


def match_room_names(model: SpatialConceptModel, room_names: list[str]) -> list[str]:
    """Name the learned regions by the room names they heard, bijectively.

    A region's cost for a name is ``-log P(name | region)`` under
    ``word_posterior``, floored at the smallest normal float so that a name the
    model never heard costs about 708 everywhere and takes a leftover region.
    ``_min_cost_assignment`` solves the costs; ties go to the lower name index.
    The names are the candidates, so no room geometry enters the naming.
    """
    if len(room_names) < model.num_regions:
        raise ConfigurationError(f"{len(room_names)} candidate rooms cannot name {model.num_regions} regions: "
                                 "need at least as many rooms as regions")
    heard = {w: i for i, w in enumerate(model.vocab_places)}
    if not any(name in heard for name in room_names):
        raise ConfigurationError(f"the model heard none of the room names {room_names}: "
                                 "was it learned on another floor?")
    # A zero column after the vocabulary stands for every name the model never heard.
    words = np.pad([word_posterior(model, r) for r in range(model.num_regions)], ((0, 0), (0, 1)))
    probs = words[:, [heard.get(name, -1) for name in room_names]]
    cost = -np.log(np.maximum(probs, np.finfo(float).tiny))
    return [room_names[j] for j in _min_cost_assignment(cost)]


def extract_knowledge(
    model: SpatialConceptModel,
    room_names: list[str],
    robot_id: str = "robot",
) -> KnowledgeBase:
    """Turn a learned model into named regions, place-vocabulary lists and a presence table.

    ``room_names`` are the candidates, the rooms of the model's floor, and
    ``match_room_names`` names each region by the words it heard.  Place
    vocabularies keep words of posterior ``>= PLACE_VOCAB_THRESHOLD``, likeliest
    first.  Presence rows are exactly the object-location posteriors.
    """
    place_vocab = []
    for region in range(model.num_regions):
        probs = word_posterior(model, region)
        order = np.argsort(-probs, kind="stable")
        place_vocab.append([model.vocab_places[i] for i in order if probs[i] >= PLACE_VOCAB_THRESHOLD])
    presence = {obj: object_location_posterior(model, obj).tolist() for obj in model.vocab_objects}
    return KnowledgeBase(
        robot_id=robot_id,
        room_names=match_room_names(model, room_names),
        place_vocab=place_vocab,
        presence_table=presence,
    )


def knowledge_from_environment(env: Environment, floor: str, robot_id: str) -> KnowledgeBase:
    """Ground-truth knowledge base: one-hot presence rows from true placements."""
    rooms = env.rooms_on(floor)
    if not rooms:
        raise ConfigurationError(f"floor {floor!r} has no rooms")
    names = [r.name for r in rooms]
    presence = {obj: [float(name == env.placements[obj]) for name in names] for obj in env.objects_on(floor)}
    vocab = [env.place_words.get(n, []) for n in names]
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


def format_probability(p: float) -> str:
    """Up to four decimals with trailing zeros trimmed: 0.0100 -> "0.01"."""
    s = f"{p:.4f}".rstrip("0")
    return s + "0" if s.endswith(".") else s


def render_presence_table(kbs: list[KnowledgeBase]) -> str:
    """Per-robot presence-table blocks separated by a dashed divider."""
    if not kbs:
        raise ConfigurationError("need at least one knowledge base")
    return f"\n{_DIVIDER}\n".join(kb.presence_block for kb in kbs)


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
        "place_vocab": [list(words) for words in kb.place_vocab],
        "presence_table": {obj: list(row) for obj, row in kb.presence_table.items()},
    }


def knowledge_from_dict(data: dict) -> KnowledgeBase:
    fields = ("robot_id", "room_names", "place_vocab", "presence_table")
    return KnowledgeBase(*require_fields(data, fields, "knowledge document"))


def save_knowledge(kb: KnowledgeBase, path) -> None:
    """Write ``kb`` as ``homeplan extract --out`` does, byte for byte."""
    write_json(knowledge_to_dict(kb), path)


def load_knowledge(path) -> KnowledgeBase:
    return knowledge_from_dict(read_json(path, "knowledge-base"))
