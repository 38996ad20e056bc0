#!/usr/bin/env python3
"""Replay the scripted two-robot field-trip scenario and print both action logs."""

import argparse

from homeplan.experiment import run_field_trip_scenario


def main():
    argparse.ArgumentParser(description=__doc__).parse_args()  # no options: the scenario takes no seed
    result = run_field_trip_scenario()
    print(f"instruction: {result['instruction'].text}\n")
    for robot_id, steps in result["robot_steps"].items():
        print(robot_id)
        for i, step in enumerate(steps, start=1):
            print(f"  {i:2d}  {step.skill:17s} {step.argument:14s} {step.outcome.status}")
        print()


if __name__ == "__main__":
    main()
