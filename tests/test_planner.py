import io
import json
import re
import urllib.error
from dataclasses import FrozenInstanceError, replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from homeplan.errors import (
    BackendError,
    ConfigurationError,
    EmptyDecompositionError,
    ReplayMissError,
    SchemaError,
    UnallocatableError,
)
from homeplan import planner
from homeplan.knowledge import KnowledgeBase
from homeplan.planner import (
    COMMONSENSE_TYPICAL_ROOM,
    SYNONYMS,
    Assignment,
    Instruction,
    RemoteChatBackend,
    ReplayBackend,
    RuleBasedBackend,
    Subtask,
    allocate,
    allocate_commonsense,
    allocate_random,
    decompose,
    make_backend,
    parse_allocation_response,
    render_allocation_prompt,
)
from homeplan.world import load_environment

from conftest import reference_presence_table

VOCAB_24 = sorted(load_environment("paper_home").placements)
ROBOCUP_VOCAB = sorted(load_environment("robocup_arena").placements)


# ---------------------------------------------------------------- decompose

def test_decompose_explicit_pair_order_preserving():
    instr = Instruction("I want to make a fruit smoothie, so please find an apple and a banana.")
    subtasks = decompose(instr, VOCAB_24)
    assert subtasks == [Subtask("find", "apple"), Subtask("find", "banana")]


def test_decompose_single_explicit_target():
    subtasks = decompose(Instruction("Could you please find apple."), VOCAB_24)
    assert subtasks == [Subtask("find", "apple")]


def test_decompose_ambiguous_field_trip_via_synonyms():
    instr = Instruction("Get ready for a field trip.", category="ambiguous")
    subtasks = decompose(instr, ROBOCUP_VOCAB, backend=RuleBasedBackend())
    assert subtasks == [Subtask("bring", "water_bottle"), Subtask("bring", "bag")]


def test_decompose_underscore_label_with_space_mention():
    subtasks = decompose(Instruction("Please search for the pitcher base."), VOCAB_24)
    assert subtasks == [Subtask("find", "pitcher_base")]


def test_decompose_drops_unanchorable_items():
    class InventiveBackend:
        tag = "replay"

        def complete(self, prompt):
            return "SubTask 1: Bring a water bottle.\nSubTask 2: Bring a jetpack."

    instr = Instruction("Get ready for a field trip.", category="ambiguous")
    subtasks = decompose(instr, ROBOCUP_VOCAB, backend=InventiveBackend())
    assert subtasks == [Subtask("bring", "water_bottle")]


def test_decompose_no_targets_is_error():
    with pytest.raises(EmptyDecompositionError):
        decompose(Instruction("Sing me a song."), VOCAB_24, backend=RuleBasedBackend())


def test_decompose_requires_vocab():
    with pytest.raises(ValueError):
        decompose(Instruction("find apple"), [])


@given(st.permutations(["apple", "banana", "cup", "towel", "plate"]), st.integers(2, 5))
@settings(max_examples=40)
def test_decompose_preserves_mention_order(perm, count):
    mentioned = list(perm)[:count]
    text = "Please " + " and then ".join(f"find the {obj}" for obj in mentioned) + "."
    subtasks = decompose(Instruction(text), VOCAB_24)
    assert [s.target_object for s in subtasks] == mentioned


def reference_explicit_targets(text, object_vocab):
    """The per-label matcher: one regex search per label surface and per synonym."""
    lowered = text.lower()
    hits = []
    for label in object_vocab:
        for surface in (label.lower(), label.lower().replace("_", " ")):
            m = re.search(rf"(?<![a-z_]){re.escape(surface)}(?![a-z_])", lowered)
            if m:
                hits.append((m.start(), label))
                break
    for phrase, label in SYNONYMS.items():
        if label not in object_vocab:
            continue
        m = re.search(rf"(?<![a-z_]){re.escape(phrase)}(?![a-z_])", lowered)
        if m:
            hits.append((m.start(), label))
    hits.sort()
    return list(dict.fromkeys(label for _, label in hits))


def reference_verb(text):
    """The per-word verb test: one ``\\bword\\b`` search per bring word."""
    lowered = text.lower()
    bring = any(re.search(rf"\b{w}\b", lowered) for w in ("bring", "fetch", "get", "take", "carry"))
    return "bring" if bring else "find"


ALL_VOCAB = sorted({*VOCAB_24, *ROBOCUP_VOCAB})
_FRAGMENTS = sorted({
    *ALL_VOCAB, *(v.replace("_", " ") for v in ALL_VOCAB), *SYNONYMS,
    "bring", "fetch", "get", "take", "carry", "find", "getting", "forget", "taken", "carrying",
    "please", "the", "a", "and", "me", "apple_pie", "pineapple", "cupboard", "plates", "towels",
    "water", "bottle", "juice box",
})
_CASES = (str.lower, str.upper, str.title, str.capitalize,
          lambda w: w.replace(" ", "_"), lambda w: w.replace("_", " "))
_SEPARATORS = (" ", " ", ", ", ". ", "_", "", "-", "!", "? ", "'s ", "\n", "2")


@st.composite
def instruction_texts(draw):
    parts = []
    for word in draw(st.lists(st.sampled_from(_FRAGMENTS), min_size=1, max_size=8)):
        parts.append(draw(st.sampled_from(_CASES))(word))
        parts.append(draw(st.sampled_from(_SEPARATORS)))
    return "".join(parts)


@given(instruction_texts(), st.lists(st.sampled_from(ALL_VOCAB), min_size=1, unique=True))
@settings(max_examples=300)
def test_decomposition_matches_the_per_label_reference(text, vocab):
    targets = reference_explicit_targets(text, vocab)
    assert planner._extract_explicit_targets(text, vocab) == targets
    assert planner._verb_for(text) == reference_verb(text)
    if targets:
        verb = reference_verb(text)
        assert decompose(Instruction(text), vocab) == [Subtask(verb, t) for t in targets]


# ----------------------------------------------------------------- allocate

def test_allocate_apple_goes_to_robot1(kb_robot1, kb_robot2):
    [assignment] = allocate([Subtask("find", "apple")], [kb_robot1, kb_robot2])
    assert assignment.robot_id == "Robot1"
    room, prob = assignment.justification
    assert room == "kitchen"
    assert prob == pytest.approx(0.729, abs=0.005)


def test_allocate_car_toy_goes_to_robot2(kb_robot1, kb_robot2):
    [assignment] = allocate([Subtask("find", "car_toy")], [kb_robot1, kb_robot2])
    assert assignment.robot_id == "Robot2"
    room, prob = assignment.justification
    assert room == "front_of_stairs"
    assert prob == pytest.approx(0.899, abs=0.005)


def test_allocate_single_knowledge_base(kb_robot2):
    subtasks = [Subtask("find", "cup"), Subtask("find", "banana")]
    assignments = allocate(subtasks, [kb_robot2])
    assert all(a.robot_id == "Robot2" for a in assignments)


def test_allocate_unknown_object_raises(kb_robot1, kb_robot2):
    with pytest.raises(UnallocatableError, match="spaceship"):
        allocate([Subtask("find", "spaceship")], [kb_robot1, kb_robot2])


def test_allocate_object_with_only_massless_rows_raises():
    kbs = [KnowledgeBase(rid, ["kitchen", "bedroom"], [[], []], {"apple": [0.0, 0.0]})
           for rid in ("Robot1", "Robot2")]
    with pytest.raises(UnallocatableError, match="no robot's presence row for 'apple' has any mass"):
        allocate([Subtask("find", "apple")], kbs)


def test_allocate_rejects_knowledge_bases_that_share_a_robot_id(kb_robot1, kb_robot2):
    kb_robot2 = replace(kb_robot2, robot_id=kb_robot1.robot_id)
    backend = mock.Mock(tag="chat")
    with pytest.raises(ConfigurationError, match="several knowledge bases have robot_id Robot1$"):
        allocate([Subtask("find", "apple")], [kb_robot1, kb_robot2], backend=backend)
    backend.complete.assert_not_called()


def test_allocating_without_robots_is_a_configuration_error():
    subtasks = [Subtask("find", "apple")]
    with pytest.raises(ConfigurationError, match="need at least one knowledge base"):
        allocate(subtasks, [])
    with pytest.raises(ConfigurationError, match="need at least one robot id"):
        allocate_random(subtasks, [])


def test_allocate_rejects_robot_ids_that_differ_only_in_case(kb_robot1, kb_robot2):
    # A chat answer names its robot in any case, so Robot1 and robot1 are one robot to it.
    kb_robot2 = replace(kb_robot2, robot_id=kb_robot1.robot_id.lower())
    backend = mock.Mock(tag="chat")
    backend.complete.return_value = "SubTask 1: Find apple. -> Robot1"
    with pytest.raises(ConfigurationError, match="several knowledge bases have robot_id Robot1, robot1$"):
        allocate([Subtask("find", "apple")], [kb_robot1, kb_robot2], backend=backend)
    backend.complete.assert_not_called()


def test_allocate_covers_each_subtask_once(kb_robot1, kb_robot2):
    subtasks = [Subtask("find", o) for o in ("apple", "banana", "cup", "towel")]
    assignments = allocate(subtasks, [kb_robot1, kb_robot2])
    assert [a.subtask for a in assignments] == subtasks


# Two robots that both hold this row tie, and the first robot given wins the tie.
TIED_ROW = [0.17068077855857466, 0.8293192214414254]


@given(st.integers(-30, 30), st.integers(-30, 30), st.integers(0, 10_000))
@settings(max_examples=50)
def test_allocate_invariant_under_table_rescaling(exponent1, exponent2, seed):
    """Scaling each robot's table by a power of two, which is exact, keeps every allocation, a
    tie included.  An arbitrary factor can round two equal scores apart: Robot1's copy of
    ``TIED_ROW`` scaled by 2.8416839178348416 scores one rounding below Robot2's."""
    rng = np.random.default_rng(seed)
    rooms1 = ["a", "b"]
    rooms2 = ["c", "d"]
    objects = [f"o{i}" for i in range(4)] + ["tied"]
    t1 = {o: rng.dirichlet(np.ones(2)).tolist() for o in objects[:3]} | {"tied": TIED_ROW}
    t2 = {o: rng.dirichlet(np.ones(2)).tolist() for o in objects[1:4]} | {"tied": TIED_ROW}
    kb1 = KnowledgeBase("Robot1", rooms1, [[], []], t1)
    kb2 = KnowledgeBase("Robot2", rooms2, [[], []], t2)
    scaled1 = KnowledgeBase("Robot1", rooms1, [[], []],
                            {o: [v * 2.0 ** exponent1 for v in row] for o, row in t1.items()})
    scaled2 = KnowledgeBase("Robot2", rooms2, [[], []],
                            {o: [v * 2.0 ** exponent2 for v in row] for o, row in t2.items()})
    subtasks = [Subtask("find", o) for o in objects]
    base = [a.robot_id for a in allocate(subtasks, [kb1, kb2])]
    scaled = [a.robot_id for a in allocate(subtasks, [scaled1, scaled2])]
    assert base[-1] == "Robot1"
    assert base == scaled


# ------------------------------------------------------------------ random

def test_allocate_random_single_robot():
    assignments = allocate_random([Subtask("find", "apple")] * 5, ["OnlyBot"], seed=0)
    assert all(a.robot_id == "OnlyBot" for a in assignments)
    assert all(a.justification is None for a in assignments)


def test_allocate_random_is_roughly_uniform():
    subtasks = [Subtask("find", "apple")] * 10_000
    assignments = allocate_random(subtasks, ["R1", "R2"], seed=5)
    share = sum(a.robot_id == "R1" for a in assignments) / len(assignments)
    assert 0.48 <= share <= 0.52


def test_allocate_random_deterministic_under_seed():
    subtasks = [Subtask("find", "apple")] * 100
    a = [x.robot_id for x in allocate_random(subtasks, ["R1", "R2"], seed=3)]
    b = [x.robot_id for x in allocate_random(subtasks, ["R1", "R2"], seed=3)]
    assert a == b


# ------------------------------------------------------------- commonsense

@pytest.fixture
def room_to_robot():
    env = load_environment("paper_home")
    floor_robot = {"1F": "Robot1", "2F": "Robot2"}
    return {r.name: floor_robot[r.floor] for r in env.rooms}


def test_commonsense_banana_misallocated(room_to_robot):
    [assignment] = allocate_commonsense([Subtask("find", "banana")],
                                        COMMONSENSE_TYPICAL_ROOM, room_to_robot)
    assert assignment.robot_id == "Robot1"  # banana actually lives on 2F


def test_commonsense_apple_correct(room_to_robot):
    [assignment] = allocate_commonsense([Subtask("find", "apple")],
                                        COMMONSENSE_TYPICAL_ROOM, room_to_robot)
    assert assignment.robot_id == "Robot1"


def test_commonsense_empty_subtasks(room_to_robot):
    assert allocate_commonsense([], COMMONSENSE_TYPICAL_ROOM, room_to_robot) == []


def test_commonsense_missing_object_raises(room_to_robot):
    with pytest.raises(UnallocatableError):
        allocate_commonsense([Subtask("find", "hoverboard")],
                             COMMONSENSE_TYPICAL_ROOM, room_to_robot)


def test_commonsense_table_covers_all_24_objects():
    assert set(COMMONSENSE_TYPICAL_ROOM) == set(VOCAB_24)


# Only valid entries: a knowledge base rejects negative, non-finite and overflowing rows when built.
_PROBABILITIES = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, 5e-5, 4.9999e-5, 0.00015, 0.99995, 1 / 3, 0.5]),
    st.floats(min_value=0.0, max_value=1e300), st.integers(0, 10**6))


@st.composite
def knowledge_bases(draw, robot_id):
    rooms = [f"room{i}" for i in range(draw(st.integers(1, 4)))]
    objects = draw(st.lists(st.sampled_from(VOCAB_24[:6]), min_size=1, max_size=4, unique=True))
    table = {obj: draw(st.lists(_PROBABILITIES, min_size=len(rooms), max_size=len(rooms)))
             for obj in objects}
    return KnowledgeBase(robot_id, rooms, [[] for _ in rooms], table)


@given(knowledge_bases("Robot1"), knowledge_bases("Robot2"), st.data())
@settings(max_examples=200)
def test_allocation_prompt_matches_the_uncached_reference(kb1, kb2, data):
    kbs = [kb1, kb2]
    subtasks = [Subtask("find", obj) for obj in sorted({*kb1.presence_table, *kb2.presence_table})]

    def assert_matches_reference():
        with mock.patch.object(planner, "render_presence_table", reference_presence_table):
            expected = render_allocation_prompt(subtasks, kbs)
        assert render_allocation_prompt(subtasks, kbs) == expected

    assert_matches_reference()
    # Rebuilt with one entry changed after a render: the new row must be rendered.
    i = data.draw(st.integers(0, 1))
    obj = data.draw(st.sampled_from(sorted(kbs[i].presence_table)))
    row = list(kbs[i].presence_table[obj])
    row[data.draw(st.integers(0, len(row) - 1))] = data.draw(_PROBABILITIES)
    kbs[i] = replace(kbs[i], presence_table={**kbs[i].presence_table, obj: row})
    assert_matches_reference()


# -------------------------------------------------------- replay and remote

def test_replay_backend_round_trip(tmp_path):
    backend = ReplayBackend(tmp_path)
    backend.store("prompt text", "canned answer")
    assert backend.complete("prompt text") == "canned answer"
    with pytest.raises(ReplayMissError):
        backend.complete("unseen prompt")


@pytest.mark.parametrize("response", [b"SubTask 1: Bring a \xff.", "dir"], ids=["not_utf8", "unreadable"])
def test_unreadable_replay_response_is_a_backend_error(tmp_path, response):
    backend = ReplayBackend(tmp_path)
    path = backend.store("prompt text", "canned answer")
    path.unlink()
    if response == "dir":
        path.mkdir()
    else:
        path.write_bytes(response)
    with pytest.raises(BackendError, match=path.stem) as excinfo:
        backend.complete("prompt text")
    assert type(excinfo.value) is BackendError  # not a miss: the response exists


def test_replay_allocation_parses_to_rule_based_assignments(tmp_path, kb_robot1, kb_robot2):
    subtasks = [Subtask("find", "apple"), Subtask("find", "banana"), Subtask("find", "towel")]
    kbs = [kb_robot1, kb_robot2]
    rule_assignments = allocate(subtasks, kbs)

    backend = ReplayBackend(tmp_path)
    prompt = render_allocation_prompt(subtasks, kbs)
    response = "\n".join(
        f"SubTask {i}: {a.subtask.describe()} -> {a.robot_id}"
        for i, a in enumerate(rule_assignments, start=1)
    )
    backend.store(prompt, response)

    replayed = allocate(subtasks, kbs, backend=backend)
    assert [a.robot_id for a in replayed] == [a.robot_id for a in rule_assignments]


def test_malformed_response_falls_back_per_subtask(tmp_path, kb_robot1, kb_robot2):
    subtasks = [Subtask("find", "apple"), Subtask("find", "banana")]
    kbs = [kb_robot1, kb_robot2]
    backend = ReplayBackend(tmp_path)
    prompt = render_allocation_prompt(subtasks, kbs)
    backend.store(prompt, "SubTask 1: Find an apple. -> Robot2\ngarbled line without arrow")

    assignments = allocate(subtasks, kbs, backend=backend)
    assert assignments[0].robot_id == "Robot2"  # parsed as given, even if unwise
    assert assignments[1].robot_id == "Robot2"  # fallback: rule-based choice for banana


def test_replay_miss_propagates_during_allocation(tmp_path, kb_robot1, kb_robot2):
    # A missing canned response is a transport error, not a parse failure,
    # so it must surface instead of silently falling back.
    backend = ReplayBackend(tmp_path)
    with pytest.raises(ReplayMissError):
        allocate([Subtask("find", "apple")], [kb_robot1, kb_robot2], backend=backend)


def test_subtask_describe_grammar():
    assert Subtask("find", "apple").describe() == "Find an apple."
    assert Subtask("bring", "cup").describe() == "Bring a cup."
    assert Subtask("bring", "cup", "kitchen").describe() == "Bring a cup to the kitchen."


@pytest.mark.parametrize("text", [3, None, "", ["bring", "apple"]])
def test_instruction_text_must_be_a_non_empty_string(text):
    with pytest.raises(SchemaError, match="instruction text"):
        decompose(Instruction(text), ["apple"])


@pytest.mark.parametrize("field, value", [("text", 3), ("category", "nonsense"), ("gold_objects", ["apple"])])
def test_a_built_instruction_cannot_change(field, value):
    instr = Instruction("Please find an apple.")
    with pytest.raises(FrozenInstanceError):
        setattr(instr, field, value)
    assert instr == Instruction("Please find an apple.")
    assert decompose(instr, ["apple"]) == [Subtask("find", "apple")]


def test_instruction_gold_objects_are_kept_as_a_tuple():
    targets = ["apple"]
    instr = Instruction("Find an apple.", gold_objects=targets)
    targets.append("cup")
    assert instr.gold_objects == ("apple",)
    assert hash(instr) == hash(Instruction("Find an apple.", gold_objects=("apple",)))


@pytest.mark.parametrize("gold", ["apple", ["apple", ""], [3], {"apple"}, ("apple", None)],
                         ids=["str", "empty-label", "int-label", "set", "none-label"])
def test_instruction_gold_objects_must_be_non_empty_labels(gold):
    with pytest.raises(SchemaError, match="gold_objects"):
        Instruction("Find an apple.", gold_objects=gold)


@pytest.mark.parametrize("subtask, robot_id, where", [
    (Subtask("bring", "apple"), ["Robot1"], "robot_id"),
    (Subtask("bring", "apple"), "", "robot_id"),
    ("Bring an apple.", "Robot1", "subtask"),
], ids=["list-robot-id", "empty-robot-id", "str-subtask"])
def test_an_assignment_checks_its_subtask_and_robot_id(subtask, robot_id, where):
    with pytest.raises(SchemaError, match=where):
        Assignment(subtask, robot_id)


def test_parse_allocation_response_grammar():
    parsed = parse_allocation_response(
        "SubTask 1: Bring a cup. -> Robot2\n"
        "noise\n"
        "subtask 2: Find an apple. -> Robot1\n"
    )
    assert parsed == {1: "Robot2", 2: "Robot1"}


class _FakeResponse(io.BytesIO):
    def __enter__(self):
        return self

    def __exit__(self, *args):
        return False


@pytest.fixture
def sleeps(monkeypatch):
    """The waits of the remote backend, recorded instead of slept; the API key is set."""
    waits = []
    monkeypatch.setenv("HOMEPLAN_LLM_KEY", "k")
    monkeypatch.setattr(planner.time, "sleep", waits.append)
    return waits


def test_remote_backend_request_and_parse(monkeypatch, sleeps):
    captured = {}

    def fake_urlopen(request, timeout=None):
        captured["url"] = request.full_url
        captured["timeout"] = timeout
        captured["headers"] = dict(request.header_items())
        captured["body"] = json.loads(request.data.decode("utf-8"))
        return _FakeResponse(json.dumps(
            {"choices": [{"message": {"content": "SubTask 1: Find an apple. -> Robot1"}}]}
        ).encode("utf-8"))

    monkeypatch.setattr("urllib.request.urlopen", fake_urlopen)
    monkeypatch.setenv("HOMEPLAN_LLM_KEY", "secret-key")
    backend = RemoteChatBackend("https://example.test/v1/chat", model="gpt-4")
    out = backend.complete("hello prompt")

    assert out == "SubTask 1: Find an apple. -> Robot1"
    assert captured["url"] == "https://example.test/v1/chat"
    assert captured["timeout"] == planner.REMOTE_TIMEOUT_S == 30.0
    assert captured["body"] == {"model": "gpt-4",
                                "messages": [{"role": "system", "content": "hello prompt"}]}
    assert captured["headers"].get("Authorization") == "Bearer secret-key"


def test_remote_backend_retries_then_succeeds(monkeypatch, sleeps):
    calls = {"n": 0}

    def flaky_urlopen(request, timeout=None):
        calls["n"] += 1
        if calls["n"] == 1:
            raise urllib.error.URLError("connection refused")
        return _FakeResponse(json.dumps(
            {"choices": [{"message": {"content": "ok"}}]}).encode("utf-8"))

    monkeypatch.setattr("urllib.request.urlopen", flaky_urlopen)
    backend = RemoteChatBackend("https://example.test")
    assert backend.complete("p") == "ok"
    assert calls["n"] == 2


def test_remote_backend_exhausted_retries_raise(monkeypatch, sleeps):
    calls = {"n": 0}

    def dead_urlopen(request, timeout=None):
        calls["n"] += 1
        raise urllib.error.URLError("down")

    monkeypatch.setattr("urllib.request.urlopen", dead_urlopen)
    backend = RemoteChatBackend("https://example.test")
    with pytest.raises(BackendError, match="after 3 attempts"):
        backend.complete("p")
    assert calls["n"] == 3


def _http_error(code, reason):
    return urllib.error.HTTPError("https://example.test", code, reason, {}, None)


def test_remote_backend_does_not_retry_client_errors(monkeypatch, sleeps):
    calls = {"n": 0}

    def refusing_urlopen(request, timeout=None):
        calls["n"] += 1
        raise _http_error(401, "Unauthorized")

    monkeypatch.setattr("urllib.request.urlopen", refusing_urlopen)
    backend = RemoteChatBackend("https://example.test")
    with pytest.raises(BackendError, match="401"):
        backend.complete("p")
    assert calls["n"] == 1


@pytest.mark.parametrize("code", [408, 429, 503])
def test_remote_backend_retries_timeouts_rate_limits_and_server_errors(monkeypatch, sleeps, code):
    calls = {"n": 0}

    def busy_urlopen(request, timeout=None):
        calls["n"] += 1
        if calls["n"] == 1:
            raise _http_error(code, "busy")
        return _FakeResponse(json.dumps({"choices": [{"message": {"content": "ok"}}]}).encode("utf-8"))

    monkeypatch.setattr("urllib.request.urlopen", busy_urlopen)
    backend = RemoteChatBackend("https://example.test")
    assert backend.complete("p") == "ok"
    assert calls["n"] == 2


@pytest.mark.parametrize("payload", [
    {"choices": []},
    {"choices": None},
    {"choices": [{"message": {"content": 5}}]},
    {"choices": [{"message": None}]},
    {"choices": "text"},
    [],
    "plain text",
])
def test_remote_backend_malformed_payload_is_a_backend_error(monkeypatch, sleeps, payload):
    monkeypatch.setattr("urllib.request.urlopen",
                        lambda request, timeout=None: _FakeResponse(json.dumps(payload).encode("utf-8")))
    backend = RemoteChatBackend("https://example.test")
    with pytest.raises(BackendError):
        backend.complete("p")


@pytest.mark.parametrize("error, waits", [
    (urllib.error.URLError("down"), [1.0, 1.0]),  # three attempts, no wait after the last
    (_http_error(401, "Unauthorized"), []),  # refused at once
], ids=["unreachable", "refused"])
def test_remote_backend_waits_only_between_attempts(monkeypatch, sleeps, error, waits):
    def failing_urlopen(request, timeout=None):
        raise error

    monkeypatch.setattr("urllib.request.urlopen", failing_urlopen)
    with pytest.raises(BackendError):
        RemoteChatBackend("https://example.test").complete("p")
    assert sleeps == waits


def test_remote_backend_requires_api_key(monkeypatch):
    monkeypatch.delenv("HOMEPLAN_LLM_KEY", raising=False)
    backend = RemoteChatBackend("https://example.test")
    from homeplan.errors import ConfigurationError
    with pytest.raises(ConfigurationError):
        backend.complete("p")


def test_make_backend_by_name(tmp_path):
    assert isinstance(make_backend("rule"), RuleBasedBackend)
    assert isinstance(make_backend("replay", replay_dir=tmp_path), ReplayBackend)
    remote = make_backend("remote", endpoint="http://localhost:1/v1", model="m")
    assert (remote.endpoint, remote.model) == ("http://localhost:1/v1", "m")
    for name, kwargs in (("replay", {}), ("remote", {}), ("oracle", {})):
        with pytest.raises(ConfigurationError):
            make_backend(name, **kwargs)
