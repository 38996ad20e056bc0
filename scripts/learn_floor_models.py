#!/usr/bin/env python3
"""Learn a spatial concept model per floor and save models plus knowledge bases."""

import argparse
from pathlib import Path

from homeplan.experiment import best_room_recovery, default_robots, learn_floor_model
from homeplan.knowledge import extract_knowledge, save_knowledge
from homeplan.spatial import save_model
from homeplan.world import VISITS_PER_ROOM, load_environment


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--env", default="paper_home")
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--visits", type=int, default=VISITS_PER_ROOM)
    parser.add_argument("--out-dir", default="models")
    args = parser.parse_args()

    env = load_environment(args.env)
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)

    for i, robot in enumerate(default_robots(env)):
        rooms = env.rooms_on(robot.floor)
        model = learn_floor_model(env, robot, args.seed + i, visits_per_room=args.visits)
        kb = extract_knowledge(model, [r.name for r in rooms], robot_id=robot.robot_id)

        model_path = out_dir / f"{robot.robot_id}_model.json"
        kb_path = out_dir / f"{robot.robot_id}_knowledge.json"
        save_model(model, model_path)
        save_knowledge(kb, kb_path)

        correct, objects = best_room_recovery(env, robot.floor, kb)
        print(f"{robot.robot_id} ({robot.floor}): {len(rooms) * args.visits} sessions, "
              f"{correct}/{objects} objects located correctly")
        print(f"  model:     {model_path}")
        print(f"  knowledge: {kb_path}")


if __name__ == "__main__":
    main()
