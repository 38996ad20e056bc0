#!/usr/bin/env python3
"""Digest every floor learn of ``homeplan suite`` over CLI seeds and visit counts.

For each CLI seed, visit count and floor of ``paper_home`` it learns the floor as
``homeplan suite --seed S --visits V`` does and prints one JSON line: the learn's
seed and the sha256 of the model and of the knowledge base, each of the bytes that
``homeplan learn --out`` and ``homeplan extract --out`` write.  The outputs of two
checkouts ``diff`` line by line, so a change that must keep every learn
byte-identical is checked with

    PYTHONPATH=src python scripts/seed_sweep.py --seeds 60 --visits 5 10 30 > sweep.jsonl
"""

import argparse
import hashlib
import json
import tempfile
from pathlib import Path

from homeplan.experiment import _suite_seeds, default_robots, learn_floor_model
from homeplan.knowledge import extract_knowledge, save_knowledge
from homeplan.spatial import save_model
from homeplan.world import load_environment


def main():
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--seeds", type=int, default=60, help="CLI seeds 0..N-1 (default 60)")
    parser.add_argument("--visits", type=int, nargs="+", default=[5, 10, 30], help="visits per room")
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
                    model = learn_floor_model(env, robot, learn_base + i, visits_per_room=visits)
                    kb = extract_knowledge(model, [r.name for r in env.rooms_on(robot.floor)],
                                           robot_id=robot.robot_id)
                    print(json.dumps({"cli_seed": cli_seed, "visits": visits, "floor": robot.floor,
                                      "learn_seed": learn_base + i, "model_sha256": digest(save_model, model),
                                      "knowledge_sha256": digest(save_knowledge, kb)}), flush=True)


if __name__ == "__main__":
    main()
