"""Instruction decomposition and knowledge-grounded subtask allocation.

Three interchangeable backends sit behind the same ``complete(prompt)``
contract: a deterministic rule-based engine (the default), a remote chat
endpoint, and a replay store of canned responses keyed by prompt hash.
Decomposition extracts explicit targets verbatim; only ambiguous
instructions are routed through the backend and anchored back to known
object labels via a bundled synonym map.
"""

from __future__ import annotations

import hashlib
import json
import os
import re
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Protocol

import numpy as np

from .errors import (
    BackendError,
    ConfigurationError,
    EmptyDecompositionError,
    ReplayMissError,
    SchemaError,
    UnallocatableError,
)
from .knowledge import (
    ALLOCATION_RULE_PROMPT,
    DECOMPOSITION_EXAMPLE_PROMPT,
    SKILLS_PROMPT,
    KnowledgeBase,
    render_objects,
    render_presence_table,
)

API_KEY_ENV_VAR = "HOMEPLAN_LLM_KEY"

INSTRUCTION_CATEGORIES = ("random", "hard_to_predict", "common_sense", "mixed", "ambiguous")

# Aliases mapping free-text item phrases onto simulator object labels.
SYNONYMS = {
    "water bottle": "water_bottle",
    "bottle of water": "water_bottle",
    "backpack": "bag",
    "rucksack": "bag",
    "sponge": "body_sponge",
    "fruit juice": "fruits_juice",
    "juice": "fruits_juice",
    "toothpaste": "tooth_paste",
    "chips": "chips_bag",
    "crackers": "cracker_box",
    "medicine": "treatments",
    "slippers": "bath_slipper",
    "grapes": "muscat",
}

# Typical-room associations used by the commonsense baseline.  Deliberately
# knowledge-free: hard-to-predict objects point at the intuitive room on the
# wrong floor (e.g. banana -> kitchen), which is exactly the failure mode the
# baseline is meant to exhibit.
COMMONSENSE_TYPICAL_ROOM = {
    "pitcher_base": "kitchen",
    "bowl": "kitchen",
    "plate": "kitchen",
    "coffee": "kitchen",
    "towel": "bathroom",
    "penguin_doll": "child_room",
    "sheep_doll": "child_room",
    "pudding_box": "kitchen",
    "fruits_juice": "kitchen",
    "tooth_paste": "bathroom",
    "apple": "kitchen",
    "orange": "kitchen",
    "muscat": "kitchen",
    "car_toy": "child_room",
    "airplane_toy": "child_room",
    "body_sponge": "bathroom",
    "bath_slipper": "bathroom",
    "truck_toy": "child_room",
    "pig_doll": "child_room",
    "cracker_box": "kitchen",
    "chips_bag": "living_room",
    "cup": "kitchen",
    "banana": "kitchen",
    "treatments": "living_room",
}

_BRING_WORDS = ("bring", "fetch", "get", "take", "carry")

_SUBTASK_LINE = re.compile(r"^\s*SubTask\s+(\d+)\s*:\s*(.+?)\s*$", re.IGNORECASE)
# At most nine index digits: int() refuses a string of over 4,300 digits, and no subtask list is that long.
_ALLOCATION_LINE = re.compile(r"^\s*SubTask\s+(\d{1,9})\s*:\s*(.*?)\s*->\s*(\S+)\s*$", re.IGNORECASE)
_BRING_VERB = re.compile(rf"\b(?:{'|'.join(_BRING_WORDS)})\b")
_ARTICLES = re.compile(r"^(a|an|the|some)\s+", re.IGNORECASE)


@dataclass
class Instruction:
    text: str
    category: str = "random"
    gold_objects: list[str] | None = None

    def __post_init__(self):
        if not self.text:
            raise SchemaError("instruction text must be non-empty")
        if self.category not in INSTRUCTION_CATEGORIES:
            raise SchemaError(f"unknown instruction category {self.category!r}")


@dataclass(frozen=True)
class Subtask:
    verb: str  # "bring" | "find"
    target_object: str
    destination: str | None = None

    def __post_init__(self):
        if self.verb not in ("bring", "find"):
            raise SchemaError(f"unknown subtask verb {self.verb!r}")
        if not self.target_object or not isinstance(self.target_object, str):
            raise SchemaError("subtask target_object must be a non-empty string")

    def describe(self) -> str:
        article = "an" if self.target_object[0].lower() in "aeiou" else "a"
        text = f"{self.verb.capitalize()} {article} {self.target_object}."
        if self.destination:
            text = text[:-1] + f" to the {self.destination}."
        return text


@dataclass(frozen=True)
class Assignment:
    subtask: Subtask
    robot_id: str
    justification: tuple[str, float] | None = None


class PlannerBackend(Protocol):
    tag: str

    def complete(self, prompt: str) -> str: ...


class RuleBasedBackend:
    """Deterministic stand-in for a chat model.

    Only ambiguous-instruction expansion reaches it: the completion scans the
    final task description for known scenario cues and emits subtask lines in
    the decomposition-example format.
    """

    tag = "rule_based"

    SCENARIO_ITEMS = {
        ("field trip", "excursion", "picnic", "outing"): ["water bottle", "backpack"],
        ("bath", "shower"): ["towel", "sponge"],
    }

    def complete(self, prompt: str) -> str:
        task = _last_task_description(prompt)
        if task is None:
            return ""
        lowered = task.lower()
        for cues, items in self.SCENARIO_ITEMS.items():
            if any(cue in lowered for cue in cues):
                return "\n".join(
                    f"SubTask {i}: Bring a {item}." for i, item in enumerate(items, start=1)
                )
        return ""


class ReplayBackend:
    """Canned responses on disk, keyed by the SHA-256 of the prompt text."""

    tag = "replay"

    def __init__(self, directory):
        self.directory = Path(directory)

    @staticmethod
    def request_hash(prompt: str) -> str:
        return hashlib.sha256(prompt.encode("utf-8")).hexdigest()

    def _path(self, prompt: str) -> Path:
        return self.directory / f"{self.request_hash(prompt)}.txt"

    def store(self, prompt: str, response: str) -> Path:
        self.directory.mkdir(parents=True, exist_ok=True)
        path = self._path(prompt)
        path.write_text(response)
        return path

    def complete(self, prompt: str) -> str:
        path = self._path(prompt)
        try:
            return path.read_text()
        except FileNotFoundError:
            raise ReplayMissError(f"no canned response for prompt hash {path.stem}") from None


class RemoteChatBackend:
    """Single-turn chat-completion client over a JSON HTTP endpoint."""

    tag = "remote_chat"

    def __init__(self, endpoint: str, model: str = "gpt-4", api_key: str | None = None,
                 timeout: float = 30.0, retries: int = 2, retry_wait: float = 1.0):
        self.endpoint = endpoint
        self.model = model
        self.api_key = api_key
        self.timeout = timeout
        self.retries = retries
        self.retry_wait = retry_wait

    def _resolve_key(self) -> str:
        key = self.api_key or os.environ.get(API_KEY_ENV_VAR)
        if not key:
            raise ConfigurationError(f"no API key: set {API_KEY_ENV_VAR} or pass api_key")
        return key

    def complete(self, prompt: str) -> str:
        # Imported here: urllib.request brings http.client, ssl and email, which
        # only the remote backend needs.
        import urllib.error
        import urllib.request

        body = json.dumps({
            "model": self.model,
            "messages": [{"role": "system", "content": prompt}],
        }).encode("utf-8")
        request = urllib.request.Request(
            self.endpoint,
            data=body,
            headers={
                "Content-Type": "application/json",
                "Authorization": f"Bearer {self._resolve_key()}",
            },
            method="POST",
        )
        last_error = None
        for attempt in range(self.retries + 1):
            try:
                with urllib.request.urlopen(request, timeout=self.timeout) as response:
                    payload = json.loads(response.read().decode("utf-8"))
                content = payload["choices"][0]["message"]["content"]
                if isinstance(content, str):
                    return content
                last_error = f"choices[0].message.content is {type(content).__name__}, not a string"
            except urllib.error.HTTPError as exc:
                # A client error other than timeout or rate limit (a bad key, say) will not heal.
                if 400 <= exc.code < 500 and exc.code not in (408, 429):
                    raise BackendError(f"remote completion refused: HTTP {exc.code} {exc.reason}") from None
                last_error = exc
            except (urllib.error.URLError, TimeoutError, KeyError, IndexError, TypeError,
                    UnicodeDecodeError, json.JSONDecodeError) as exc:
                last_error = exc
            if attempt < self.retries and self.retry_wait > 0:
                time.sleep(self.retry_wait)
        raise BackendError(f"remote completion failed after {self.retries + 1} attempts: {last_error}")


def make_backend(name: str, replay_dir=None, endpoint: str | None = None,
                 model: str = "gpt-4") -> PlannerBackend:
    """The planner backend called ``name``: rule, replay or remote."""
    if name == "rule":
        return RuleBasedBackend()
    if name == "replay":
        if not replay_dir:
            raise ConfigurationError("the replay backend needs a replay directory (--replay-dir)")
        return ReplayBackend(replay_dir)
    if name == "remote":
        if not endpoint:
            raise ConfigurationError("the remote backend needs an endpoint (--endpoint)")
        return RemoteChatBackend(endpoint, model=model)
    raise ConfigurationError(f"unknown backend {name!r}")


def _last_task_description(prompt: str) -> str | None:
    lines = prompt.splitlines()
    for i in range(len(lines) - 1, -1, -1):
        if lines[i].strip() == "Task Description:":
            for follow in lines[i + 1:]:
                if follow.strip():
                    return follow.strip()
            return None
    return None


def _anchor_phrase(phrase: str, object_vocab: list[str], synonyms: dict[str, str]) -> str | None:
    cleaned = _ARTICLES.sub("", phrase.strip().rstrip(".").lower()).strip()
    if not cleaned:
        return None
    if cleaned in synonyms and synonyms[cleaned] in object_vocab:
        return synonyms[cleaned]
    direct = cleaned.replace(" ", "_")
    if direct in object_vocab:
        return direct
    return None


def _extract_explicit_targets(text: str, object_vocab: list[str], synonyms: dict[str, str]) -> list[str]:
    """Known labels and synonym phrases mentioned in the text, in mention order."""
    lowered = text.lower()
    hits: list[tuple[int, str]] = []
    # A regex hit implies a substring hit, so the cheap ``in`` test skips only misses.
    for label in object_vocab:
        for surface in (label.lower(), label.lower().replace("_", " ")):
            if surface not in lowered:
                continue
            m = re.search(rf"(?<![a-z_]){re.escape(surface)}(?![a-z_])", lowered)
            if m:
                hits.append((m.start(), label))
                break
    for phrase, label in synonyms.items():
        if phrase not in lowered or label not in object_vocab:
            continue
        m = re.search(rf"(?<![a-z_]){re.escape(phrase)}(?![a-z_])", lowered)
        if m:
            hits.append((m.start(), label))
    hits.sort()
    seen: set[str] = set()
    ordered = []
    for _, label in hits:
        if label not in seen:
            seen.add(label)
            ordered.append(label)
    return ordered


def _verb_for(text: str) -> str:
    return "bring" if _BRING_VERB.search(text.lower()) else "find"


def render_decomposition_prompt(instruction_text: str, object_vocab: list[str]) -> str:
    """The prompt sent when an instruction needs backend expansion."""
    parts = [
        "(a) Objects in the environment",
        ", ".join(object_vocab),
        "",
        "(b) Example",
        DECOMPOSITION_EXAMPLE_PROMPT,
        "",
        "Task Description:",
        instruction_text,
        "",
        "List the SubTasks for this task in the same format, using only items "
        "related to the objects in the environment.",
    ]
    return "\n".join(parts)


def decompose(
    instr: Instruction,
    object_vocab: list[str],
    backend: PlannerBackend | None = None,
    synonyms: dict[str, str] = SYNONYMS,
) -> list[Subtask]:
    """Split an instruction into minimal fetch/find subtasks.

    Explicit object mentions are extracted verbatim and order-preserving.
    Otherwise the backend proposes items, which are anchored to the object
    vocabulary (plus synonyms); unanchorable items are dropped.
    """
    if not object_vocab:
        raise ValueError("object_vocab must be non-empty")
    backend = backend or RuleBasedBackend()
    explicit = _extract_explicit_targets(instr.text, object_vocab, synonyms)
    if explicit:
        verb = _verb_for(instr.text)
        return [Subtask(verb, obj) for obj in explicit]

    response = backend.complete(render_decomposition_prompt(instr.text, object_vocab))
    subtasks = []
    seen: set[str] = set()
    for line in response.splitlines():
        m = _SUBTASK_LINE.match(line)
        if not m:
            continue
        body = m.group(2)
        verb = "bring" if body.lower().startswith(_BRING_WORDS) else "find"
        phrase = re.sub(rf"^({'|'.join(_BRING_WORDS)}|find|locate)\s+", "", body, flags=re.IGNORECASE)
        label = _anchor_phrase(phrase, object_vocab, synonyms)
        if label is not None and label not in seen:
            seen.add(label)
            subtasks.append(Subtask(verb, label))
    if not subtasks:
        raise EmptyDecompositionError(f"no executable subtasks found in {instr.text!r}")
    return subtasks


def render_allocation_prompt(subtasks: list[Subtask], kbs: list[KnowledgeBase]) -> str:
    """Skills, objects, per-robot presence tables, assignment rule, subtask list."""
    lines = [
        "(a) Skills",
        SKILLS_PROMPT,
        "",
        "(b) Objects in the environment",
        render_objects(kbs),
        "",
        "(c) room-wise object presence probabilities observed by robots",
        render_presence_table(kbs),
        "",
        "(d) Rule for assigning subtasks",
        ALLOCATION_RULE_PROMPT,
        "",
        "Subtasks:",
    ]
    for i, st in enumerate(subtasks, start=1):
        lines.append(f"SubTask {i}: {st.describe()}")
    lines.append("")
    lines.append('Answer with one line per subtask in the form "SubTask k: <action> -> <RobotId>".')
    return "\n".join(lines)


def _best_room(kb: KnowledgeBase, obj: str) -> tuple[str, float] | None:
    """The robot's likeliest room for ``obj`` and its normalized probability."""
    if obj not in kb.presence_table:
        return None
    row = kb.row(obj)
    total = row.sum()
    if total <= 0:
        return None
    row = row / total
    idx = int(np.argmax(row))
    return kb.room_names[idx], float(row[idx])


def _rule_assign(subtask: Subtask, kbs: list[KnowledgeBase]) -> Assignment:
    best_kb, best = None, ("", -1.0)
    for kb in kbs:
        found = _best_room(kb, subtask.target_object)
        if found is not None and found[1] > best[1]:
            best_kb, best = kb, found
    if best_kb is None:
        raise UnallocatableError(f"object {subtask.target_object!r} is unknown to every robot")
    return Assignment(subtask, best_kb.robot_id, justification=best)


def parse_allocation_response(response: str) -> dict[int, str]:
    """Subtask index -> robot id, from "SubTask k: ... -> RobotN" lines."""
    out = {}
    for line in response.splitlines():
        m = _ALLOCATION_LINE.match(line)
        if m:
            out[int(m.group(1))] = m.group(3)
    return out


def allocate(
    subtasks: list[Subtask],
    kbs: list[KnowledgeBase],
    backend: PlannerBackend | None = None,
) -> list[Assignment]:
    """Assign each subtask to the robot whose knowledge scores it highest.

    The rule-based strategy scores a robot by the maximum presence
    probability over its rooms (rows are normalized first, so rescaling a
    robot's table cannot change the outcome).  Chat-style backends are asked
    with the rendered allocation prompt; lines that fail to parse fall back
    to the rule-based choice for that subtask.
    """
    if not kbs:
        raise ValueError("need at least one knowledge base")
    known = {obj for kb in kbs for obj in kb.presence_table}
    missing = [st.target_object for st in subtasks if st.target_object not in known]
    if missing:
        raise UnallocatableError(f"objects unknown to every robot: {missing}")
    if backend is None or backend.tag == "rule_based":
        return [_rule_assign(st, kbs) for st in subtasks]

    response = backend.complete(render_allocation_prompt(subtasks, kbs))
    parsed = parse_allocation_response(response)
    by_id = {kb.robot_id.lower(): kb for kb in kbs}
    assignments = []
    for i, st in enumerate(subtasks, start=1):
        choice = parsed.get(i, "").lower()
        kb = by_id.get(choice)
        if kb is None:
            assignments.append(_rule_assign(st, kbs))
        else:
            assignments.append(Assignment(st, kb.robot_id, _best_room(kb, st.target_object)))
    return assignments


def allocate_random(subtasks: list[Subtask], robot_ids: list[str], seed: int = 0) -> list[Assignment]:
    """Knowledge-free baseline: independent uniform choice per subtask."""
    if not robot_ids:
        raise ValueError("need at least one robot id")
    rng = np.random.default_rng(seed)
    picks = rng.integers(0, len(robot_ids), size=len(subtasks))
    return [Assignment(st, robot_ids[int(p)]) for st, p in zip(subtasks, picks)]


def allocate_commonsense(
    subtasks: list[Subtask],
    commonsense_map: dict[str, str],
    room_to_robot: dict[str, str],
) -> list[Assignment]:
    """Typical-room baseline: route by intuition, ignoring learned tables."""
    assignments = []
    for st in subtasks:
        room = commonsense_map.get(st.target_object)
        if room is None:
            raise UnallocatableError(f"object {st.target_object!r} has no typical-room entry")
        robot = room_to_robot.get(room)
        if robot is None:
            raise UnallocatableError(f"typical room {room!r} is not covered by any robot")
        assignments.append(Assignment(st, robot))
    return assignments
