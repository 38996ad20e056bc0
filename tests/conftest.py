import numpy as np
import pytest

from homeplan.executor import ExecutionPolicy, run_assignments
from homeplan.knowledge import KnowledgeBase, format_probability
from homeplan.planner import Assignment, Subtask
from homeplan.spatial import Concept, GaussianRegion, SpatialConceptModel


def random_model(rng, num_concepts, num_regions, n_words=4, n_objects=3):
    """A valid model with Dirichlet-sampled categoricals and random SPD covariances."""
    vocab_places = [f"word{i}" for i in range(n_words)]
    vocab_objects = [f"obj{i}" for i in range(n_objects)]
    concepts = [
        Concept(
            word_dist=rng.dirichlet(np.ones(n_words)),
            object_dist=rng.dirichlet(np.ones(n_objects)),
            region_dist=rng.dirichlet(np.ones(num_regions)),
        )
        for _ in range(num_concepts)
    ]
    regions = []
    for _ in range(num_regions):
        a = rng.normal(size=(2, 2))
        regions.append(GaussianRegion(
            mean=rng.normal(scale=5.0, size=2),
            cov=a @ a.T + 0.2 * np.eye(2),
        ))
    return SpatialConceptModel(
        pi=rng.dirichlet(np.ones(num_concepts)),
        concepts=concepts,
        regions=regions,
        vocab_places=vocab_places,
        vocab_objects=vocab_objects,
    )


class ScriptedWorld:
    """Stands in for a World: every skill gets the next scripted outcome."""

    def __init__(self, outcomes):
        self.outcomes = list(outcomes)

    def robot(self, robot_id):
        return None

    def known_location(self, name):
        return True

    def step_skill(self, robot_id, skill, argument):
        return self.outcomes.pop(0)


def scripted_run(target, room_order, outcomes, retries=2, fallbacks=None, destination=None):
    """Run one subtask through ``run_assignments`` against scripted outcomes."""
    policy = ExecutionPolicy(max_retries_per_skill=retries, max_room_fallbacks=fallbacks,
                             room_order=list(room_order))
    assignment = Assignment(Subtask("bring", target, destination), "T")
    [trace] = run_assignments(ScriptedWorld(outcomes), [assignment], [], policy=policy)
    return trace


# Hand-curated presence tables used as fixed vectors by planner and
# rendering tests.  Rows carry 3-decimal rounding, so they sum to ~1.
ROBOT1_ROOMS = ["entrance", "dining", "living_room", "office_room", "kitchen"]
ROBOT1_TABLE = {
    "pitcher_base": [0.136, 0.848, 0.004, 0.006, 0.006],
    "bowl": [0.136, 0.848, 0.004, 0.006, 0.006],
    "plate": [0.309, 0.010, 0.662, 0.010, 0.009],
    "coffee": [0.152, 0.006, 0.005, 0.831, 0.006],
    "towel": [0.120, 0.006, 0.056, 0.813, 0.006],
    "penguin_doll": [0.271, 0.009, 0.702, 0.009, 0.009],
    "sheep_doll": [0.278, 0.009, 0.694, 0.010, 0.009],
    "pudding_box": [0.278, 0.009, 0.694, 0.010, 0.009],
    "fruits_juice": [0.250, 0.009, 0.668, 0.066, 0.008],
    "tooth_paste": [0.328, 0.010, 0.006, 0.011, 0.645],
    "apple": [0.248, 0.008, 0.005, 0.009, 0.729],
    "orange": [0.200, 0.007, 0.005, 0.008, 0.779],
    "muscat": [0.200, 0.007, 0.005, 0.008, 0.779],
}

ROBOT2_ROOMS = ["front_of_stairs", "corridor", "bathroom", "child_room", "parent_room"]
ROBOT2_TABLE = {
    "car_toy": [0.899, 0.087, 0.004, 0.005, 0.004],
    "airplane_toy": [0.011, 0.223, 0.753, 0.007, 0.006],
    "body_sponge": [0.011, 0.223, 0.753, 0.007, 0.006],
    "bath_slipper": [0.011, 0.223, 0.753, 0.007, 0.006],
    "truck_toy": [0.012, 0.264, 0.006, 0.711, 0.006],
    "pig_doll": [0.012, 0.264, 0.006, 0.711, 0.006],
    "cracker_box": [0.012, 0.264, 0.006, 0.711, 0.006],
    "chips_bag": [0.012, 0.264, 0.006, 0.711, 0.006],
    "cup": [0.011, 0.213, 0.006, 0.007, 0.764],
    "banana": [0.010, 0.186, 0.130, 0.007, 0.668],
    "treatments": [0.011, 0.213, 0.006, 0.007, 0.764],
}


@pytest.fixture
def kb_robot1():
    return KnowledgeBase(
        robot_id="Robot1",
        room_names=list(ROBOT1_ROOMS),
        place_vocab=[[] for _ in ROBOT1_ROOMS],
        presence_table={k: list(v) for k, v in ROBOT1_TABLE.items()},
    )


@pytest.fixture
def kb_robot2():
    return KnowledgeBase(
        robot_id="Robot2",
        room_names=list(ROBOT2_ROOMS),
        place_vocab=[[] for _ in ROBOT2_ROOMS],
        presence_table={k: list(v) for k, v in ROBOT2_TABLE.items()},
    )


def reference_presence_table(kbs):
    """The presence-table renderer without its row cache: every row formatted on every call."""
    blocks = []
    for kb in kbs:
        lines = [
            kb.robot_id,
            '"List of probabilities that an object exists":',
            f"[{', '.join(kb.room_names)}]",
        ]
        for obj, row in kb.presence_table.items():
            rendered = ", ".join(format_probability(p) for p in row)
            lines.append(f"{obj} = [{rendered}]")
        blocks.append("\n".join(lines))
    return f"\n{'-' * 16}\n".join(blocks)
