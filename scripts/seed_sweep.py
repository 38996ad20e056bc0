#!/usr/bin/env python3
"""Digest and score every floor learn of ``homeplan suite`` over CLI seeds, visit counts and learner seeds.

For each CLI seed, visit count and floor of ``paper_home`` it draws the floor's
sessions as ``homeplan suite --seed S --visits V`` does, from the learn seed.  It
learns them ``--replicates J`` times, with learner seeds learn seed + 1000 j for
j < J, and prints one JSON line per learn: the learn seed, the replicate j, how many
of the floor's objects have their true room as best room, whether that meets C2,
and the sha256 of the model and of the knowledge base, each of the bytes that
``homeplan learn --out`` and ``homeplan extract --out`` write.  Replicate 0 is the
learn ``homeplan suite`` makes; the others keep its sessions and move the learner's
seed alone, so recovery can be read as a distribution over learner streams.  The
outputs of two checkouts ``diff`` line by line, so a change that must keep every
learn byte-identical is checked with

    PYTHONPATH=src python scripts/seed_sweep.py --seeds 60 --visits 5 10 30 > sweep.jsonl
"""

import argparse
import hashlib
import json
import tempfile
from pathlib import Path

import numpy as np

from homeplan.experiment import _suite_seeds, best_room_recovery, default_robots
from homeplan.knowledge import extract_knowledge, save_knowledge
from homeplan.learner import learn_fixed_lag
from homeplan.spatial import save_model
from homeplan.world import generate_floor_sessions, load_environment

# C2 of the acceptance suite: the best rooms a learn must get right, of 13 objects on 1F and 11 on 2F.
C2_BEST_ROOMS = {"1F": 11, "2F": 9}
REPLICATE_SEED_STRIDE = 1000


def main():
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--seeds", type=int, default=60, help="CLI seeds 0..N-1 (default 60)")
    parser.add_argument("--visits", type=int, nargs="+", default=[5, 10, 30], help="visits per room")
    parser.add_argument("--replicates", type=int, default=1, help="learner seeds per session stream (default 1)")
    args = parser.parse_args()

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
                    sessions = generate_floor_sessions(env, robot, np.random.default_rng(seed),
                                                       visits_per_room=visits)
                    for replicate in range(args.replicates):
                        model = learn_fixed_lag(sessions, seed=seed + REPLICATE_SEED_STRIDE * replicate,
                                                num_regions=len(rooms))
                        kb = extract_knowledge(model, rooms, robot_id=robot.robot_id)
                        right, objects = best_room_recovery(env, robot.floor, kb)
                        print(json.dumps({"cli_seed": cli_seed, "visits": visits, "floor": robot.floor,
                                          "learn_seed": seed, "replicate": replicate, "right": right,
                                          "objects": objects, "c2": right >= C2_BEST_ROOMS[robot.floor],
                                          "model_sha256": digest(save_model, model),
                                          "knowledge_sha256": digest(save_knowledge, kb)}), flush=True)


if __name__ == "__main__":
    main()
