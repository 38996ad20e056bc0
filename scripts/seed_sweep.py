#!/usr/bin/env python3
"""Digest and score every floor learn of ``homeplan suite`` over CLI seeds, visit counts and learner seeds.

For each CLI seed, visit count and floor of ``paper_home`` it draws the floor's
sessions as ``homeplan suite --seed S --visits V`` does, from the learn seed.  It
learns them ``--replicates J`` times, with learner seeds learn seed + 1000 j for
j < J, and prints one JSON line per learn: the learn seed, the replicate j, how many
of the floor's objects have their true room as best room, whether that meets C2,
how many of the floor's room names the sessions hold, the sha256 of the session
stream (``sessions_digest``), of the model and of the knowledge base, the last two
of the bytes that ``homeplan learn --out`` and ``homeplan extract --out`` write,
and the sha256 of the knowledge base's object -> best room map
(``best_rooms_digest``).  Replicate 0 is the learn ``homeplan suite``
makes; the others keep its sessions and move the learner's seed alone, so recovery
can be read as a distribution over learner streams.

``--compare A B`` pairs two such outputs learn by learn, for instance of two
checkouts, and prints per visit count the wrong learns (some object's best room
wrong) and C2 misses of each side, per replicate, the discordant pairs with an
exact two-sided McNemar p (McNemar 1947), wrong learns by heard room names, and
how many session, model, knowledge and best-room digests differ.  The McNemar
pairs assume both sides learned equal streams, so a change that draws other
sessions (say, a room's visits in one array call) shows its session digests
differing and its pairs as unpaired.  A change that must keep every learn
byte-identical needs all four at 0; one that may move only the last bits of a
model, or the order of its regions, needs the session and best-room digests at 0:

    PYTHONPATH=src python scripts/seed_sweep.py --seeds 60 --visits 5 10 30 --replicates 5 > B.jsonl
    python scripts/seed_sweep.py --compare A.jsonl B.jsonl
"""

import argparse
import hashlib
import json
import math
import tempfile
from pathlib import Path

import numpy as np

from homeplan.experiment import _suite_seeds, best_room_recovery, default_robots
from homeplan.knowledge import KnowledgeBase, extract_knowledge, save_knowledge
from homeplan.learner import learn_fixed_lag
from homeplan.spatial import SessionStream, save_model
from homeplan.world import generate_floor_sessions, load_environment

# C2 of the acceptance suite: the best rooms a learn must get right, of 13 objects on 1F and 11 on 2F.
C2_BEST_ROOMS = {"1F": 11, "2F": 9}
REPLICATE_SEED_STRIDE = 1000


def mcnemar_p(b: int, c: int) -> float:
    """The exact two-sided McNemar p of b pairs against c: twice the smaller binomial(b + c, 1/2) tail."""
    n = b + c
    return min(1.0, 2 * sum(math.comb(n, k) for k in range(min(b, c) + 1)) / 2 ** n)  # exact ints: n may pass 1023


def _load(path: str) -> dict:
    """A sweep output keyed by learn: (CLI seed, visits, floor, replicate)."""
    rows = [json.loads(line) for line in Path(path).read_text().splitlines() if line.strip()]
    return {(r["cli_seed"], r["visits"], r["floor"], r["replicate"]): r for r in rows}


def best_rooms_digest(kb: KnowledgeBase) -> str:
    """The sha256 of ``kb``'s object -> best room map as JSON, objects sorted, None for a massless row."""
    best = {obj: (kb.best_room(obj) or [None])[0] for obj in sorted(kb.presence_table)}
    return hashlib.sha256(json.dumps(best).encode()).hexdigest()


def sessions_digest(stream: SessionStream) -> str:
    """The sha256 of a session stream: its position bytes, both vocabularies, and its id and total columns."""
    digest = hashlib.sha256(stream.positions.astype("<f8").tobytes())
    digest.update(json.dumps([stream.vocab_places, stream.vocab_objects]).encode())
    for column in (stream.word_ids, stream.word_totals, stream.object_ids, stream.object_totals):
        digest.update(column.astype("<i8").tobytes())
    return digest.hexdigest()


def _wrong(row: dict) -> bool:
    return row["right"] < row["objects"]


def compare(path_a: str, path_b: str) -> None:
    a, b = _load(path_a), _load(path_b)
    if a.keys() != b.keys():
        raise SystemExit(f"error: {path_a} and {path_b} hold different learns: "
                         f"{len(a.keys() - b.keys())} only in A, {len(b.keys() - a.keys())} only in B")
    for visits in sorted({key[1] for key in a}):
        keys = [key for key in a if key[1] == visits]
        replicates = sorted({key[3] for key in keys})
        print(f"visits {visits}: {len(keys)} paired learns, {len(replicates)} replicates")
        for name, failed in (("wrong learns", _wrong), ("C2 misses", lambda r: not r["c2"])):
            fail_a = {key for key in keys if failed(a[key])}
            fail_b = {key for key in keys if failed(b[key])}
            for side, fails in (("A", fail_a), ("B", fail_b)):
                per = [sum(key[3] == j for key in fails) for j in replicates]
                print(f"  {name} {side}: {len(fails)}, per replicate {'/'.join(map(str, per))} "
                      f"(range {min(per)}-{max(per)})")
            only_a, only_b = len(fail_a - fail_b), len(fail_b - fail_a)
            print(f"  {name} discordant: {only_a} in A only, {only_b} in B only, "
                  f"exact McNemar p = {mcnemar_p(only_a, only_b):.3g}")
        # Heard names are a property of the sessions, so either side's column serves (older outputs lack it).
        heard = {key: a[key].get("heard", b[key].get("heard")) for key in keys}
        if None not in heard.values():
            split = [f"{n}: {sum(h == n for h in heard.values())} learns, wrong "
                     f"A {sum(_wrong(a[k]) for k, h in heard.items() if h == n)} "
                     f"B {sum(_wrong(b[k]) for k, h in heard.items() if h == n)}"
                     for n in sorted(set(heard.values()))]
            print(f"  by room names heard: {'; '.join(split)}")
        for digest in ("sessions_sha256", "model_sha256", "knowledge_sha256", "best_rooms_sha256"):
            if all(digest in a[key] and digest in b[key] for key in keys):  # older outputs lack the first or last
                differ = sum(a[key][digest] != b[key][digest] for key in keys)
                note = "; the McNemar pairs above need equal streams" if digest == "sessions_sha256" and differ else ""
                print(f"  {digest} differs: {differ} of {len(keys)}{note}")


def main():
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--seeds", type=int, default=60, help="CLI seeds 0..N-1 (default 60)")
    parser.add_argument("--visits", type=int, nargs="+", default=[5, 10, 30], help="visits per room")
    parser.add_argument("--replicates", type=int, default=1, help="learner seeds per session stream (default 1)")
    parser.add_argument("--compare", nargs=2, metavar=("A", "B"), help="pair two outputs learn by learn; learn nothing")
    args = parser.parse_args()
    if args.compare:
        compare(*args.compare)
        return

    env = load_environment("paper_home")
    with tempfile.TemporaryDirectory() as tmp_dir:
        path = Path(tmp_dir) / "doc.json"

        def digest(save, doc) -> str:
            save(doc, path)
            return hashlib.sha256(path.read_bytes()).hexdigest()

        for cli_seed in range(args.seeds):
            learn_base = _suite_seeds(cli_seed)["learn_base"]
            for visits in args.visits:
                for i, robot in enumerate(default_robots(env)):
                    seed = learn_base + i
                    rooms = [r.name for r in env.rooms_on(robot.floor)]
                    stream = generate_floor_sessions(env, robot, np.random.default_rng(seed), visits_per_room=visits)
                    heard = len(set(rooms).intersection(stream.vocab_places))
                    stream_sha256 = sessions_digest(stream)
                    for replicate in range(args.replicates):
                        model = learn_fixed_lag(stream, seed=seed + REPLICATE_SEED_STRIDE * replicate,
                                                num_regions=len(rooms))
                        kb = extract_knowledge(model, rooms, robot_id=robot.robot_id)
                        right, objects = best_room_recovery(env, robot.floor, kb)
                        print(json.dumps({"cli_seed": cli_seed, "visits": visits, "floor": robot.floor,
                                          "learn_seed": seed, "replicate": replicate, "right": right,
                                          "objects": objects, "c2": right >= C2_BEST_ROOMS[robot.floor], "heard": heard,
                                          "sessions_sha256": stream_sha256, "model_sha256": digest(save_model, model),
                                          "knowledge_sha256": digest(save_knowledge, kb),
                                          "best_rooms_sha256": best_rooms_digest(kb)}), flush=True)


if __name__ == "__main__":
    main()
