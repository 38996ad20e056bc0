"""The benchmark's three workloads: suite, plan and execute.

Each workload builds its inputs from the seed in ``setup`` (timed as set-up),
then runs whole rounds of operations.  One operation is one suite run, one
instruction or one episode, together with its checks.  The program is always
reached through module attributes (``planner.decompose``, not a name bound at
import), so the tracer's wrappers see every call.
"""

from __future__ import annotations

import io
import json
import math
import sys
import traceback
from contextlib import redirect_stdout
from pathlib import Path
from statistics import median
from time import perf_counter

import numpy as np

from homeplan import cli, executor, experiment, knowledge, planner, world

from hostspeed import speed_factor
from checks import (
    CheckError,
    KnownFault,
    Truth,
    best_room_recovery,
    check_c2,
    check_commonsense_allocation,
    check_decomposition,
    check_episode,
    check_floor_allocation,
    check_presence_rows,
    check_random_allocation,
    check_replay,
    check_stored_answer,
    check_suite_report,
    robot_ids_by_floor,
)

ENV = "paper_home"
MAX_NOTES = 5
# Each operation's time is scaled to the reference host speed sampled during
# its block of this many consecutive operations (hostspeed.py).  Medians are
# taken over the scaled times of the run; a rate is the median of the blocks'
# rates.
BLOCK = 250
# A p99 is the median over blocks of this many operations of each block's
# p99 (ten operations beyond it), so that a burst of host interference
# spoils a few blocks, not the run's tail.
TAIL_BLOCK = 1000


class Recorder:
    """Attempts, failures and timing samples of one measured phase."""

    def __init__(self):
        self.clock = perf_counter
        self.cal: list[tuple[int, float]] = []  # (operation index, kernel seconds)
        self.attempted = 0
        self.failed = 0
        self.wrong = 0
        self.op_seconds: list[float] = []
        self.samples: dict[str, list[float]] = {}
        self.counts: dict[str, float] = {}
        self.notes: list[str] = []
        self.raw = False  # True: end_to_end() reports times as measured, unscaled

    def sample(self, name: str, value: float) -> None:
        self.samples.setdefault(name, []).append(value)

    def count(self, name: str, value: float) -> None:
        self.counts[name] = self.counts.get(name, 0) + value

    def attempt(self, op) -> None:
        """Run one operation; a wrong output or an exception fails it.

        Every failure except a :class:`KnownFault` also counts as ``wrong``,
        which makes the run's ``correct`` false.
        """
        self.attempted += 1
        try:
            op()
        except KnownFault as exc:
            self.failed += 1
            self._note(f"known fault: {exc}")
        except CheckError as exc:
            self.failed += 1
            self.wrong += 1
            self._note(f"wrong output: {exc}")
        except Exception:  # the run goes on; the failure is counted and shown
            self.failed += 1
            self.wrong += 1
            self._note(traceback.format_exc())

    def _note(self, text: str) -> None:
        if len(self.notes) < MAX_NOTES:
            self.notes.append(text)
            print(text, file=sys.stderr)


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    rank = max(math.ceil(q / 100.0 * len(ordered)), 1)
    return ordered[rank - 1]


def block_rate(counts: list[float], seconds: list[float]) -> float:
    """Median over blocks of (sum of counts / sum of seconds)."""
    size = min(BLOCK, len(seconds))
    return median([sum(counts[i:i + size]) / sum(seconds[i:i + size])
                   for i in range(0, len(seconds) - size + 1, size)])


def p99(values: list[float]) -> float:
    size = min(TAIL_BLOCK, len(values))
    return median([percentile(values[i:i + size], 99) for i in range(0, len(values) - size + 1, size)])


def op_metrics(ops: list[float]) -> dict:
    """The end-to-end metrics every workload reports, from scaled operation times."""
    return {
        "op_p50_ms": (median(ops) * 1e3, "ms"),
        "ops_per_s": (block_rate([1] * len(ops), ops), "1/s"),
    }


def scaled(rec: Recorder, seconds: list[float], block: int = BLOCK) -> list[float]:
    """``seconds`` (aligned with ``rec.op_seconds``) at reference host speed.

    With ``rec.raw`` set, the times as measured.
    """
    if rec.raw:
        return list(seconds)
    out = []
    for i in range(0, len(seconds), block):
        factor = speed_factor(rec.cal, i, i + block)
        out.extend(t * factor for t in seconds[i:i + block])
    return out


class Suite:
    """``homeplan suite`` at the paper protocol, in process through ``cli.main``.

    One round is one suite run at each of ``cli_seeds``, whatever ``--seed``:
    the learner misses C2 on some seeds, and a failure that comes and goes
    with the seed would make the failed share differ between runs.  CLI seed
    0 (the CLI's default) meets C2; at CLI seed 8 the learner misses it on
    1F, a fault of the program that is kept as the one :class:`KnownFault`.
    """

    name = "suite"
    SUBTASKS = 50  # 25 instructions x one object per floor
    CLI_SEEDS = (0, 8)
    KNOWN_C2_MISS = {8: "1F"}  # CLI seed -> floor

    def __init__(self, seed: int, scratch: Path, visits: int = 30, cli_seeds=CLI_SEEDS):
        del seed  # the suite's inputs are the same for every --seed; see above
        self.scratch = scratch
        self.visits = visits
        self.cli_seeds = cli_seeds
        self.learned: list = []
        self.recovery: list[tuple[int, str, int, int]] = []  # (CLI seed, floor, right, objects)

    def setup(self) -> None:
        self.scratch.mkdir(parents=True, exist_ok=True)
        self.env = world.load_environment(ENV)
        self.truth = Truth(self.env, robot_ids_by_floor(self.env))
        self.report_path = self.scratch / "suite-report.json"
        # Keep the knowledge bases the suite learns, to check them afterwards.
        if not hasattr(self, "_learn"):
            self._learn = experiment.learn_floor_knowledge

            def keep(*args, **kwargs):
                kb = self._learn(*args, **kwargs)
                self.learned.append(kb)
                return kb
            experiment.learn_floor_knowledge = keep

    def close(self) -> None:
        if hasattr(self, "_learn"):
            experiment.learn_floor_knowledge = self._learn

    def _argv(self, seed: int, visits: int) -> list[str]:
        return ["suite", "--env", ENV, "--backend", "rule", "--seed", str(seed),
                "--visits", str(visits), "--out", str(self.report_path)]

    def warm_up(self) -> None:
        with redirect_stdout(io.StringIO()):
            code = cli.main(self._argv(self.cli_seeds[0], 5))
        if code != 0:
            raise RuntimeError(f"suite warm-up exited with {code}")

    def run_round(self, rec: Recorder, round_index: int) -> None:
        for cli_seed in self.cli_seeds:
            rec.attempt(lambda: self._op(rec, cli_seed))

    def _op(self, rec: Recorder, seed: int) -> None:
        self.learned.clear()
        self.report_path.unlink(missing_ok=True)
        shown = io.StringIO()
        t0 = rec.clock()
        with redirect_stdout(shown):
            code = cli.main(self._argv(seed, self.visits))
        elapsed = rec.clock() - t0
        rec.op_seconds.append(elapsed)
        if code != 0:
            raise CheckError(f"homeplan suite exited with {code}")
        if "proposed" not in shown.getvalue():
            raise CheckError("homeplan suite printed no result table")
        report = json.loads(self.report_path.read_text())
        check_suite_report(report, self.truth, planner.COMMONSENSE_TYPICAL_ROOM, self.SUBTASKS)
        if len(self.learned) != len(self.truth.floor_rooms):
            raise CheckError(f"suite learned {len(self.learned)} knowledge bases")
        recovery = []
        for kb in self.learned:
            floor = self.truth.floor_of_robot(kb.robot_id)
            check_presence_rows(kb, self.truth.floor_rooms[floor])
            recovery.append((floor, *best_room_recovery(kb, self.truth)))
        self.recovery.extend((seed, *r) for r in recovery)
        check_c2(recovery, f"suite --seed {seed}", self.KNOWN_C2_MISS.get(seed))

    def end_to_end(self, rec: Recorder) -> dict:
        # A suite run lasts long enough to be its own block.
        return op_metrics(scaled(rec, rec.op_seconds, block=1))


class Plan:
    """A seeded instruction stream, decomposed once and allocated four ways."""

    name = "plan"
    # Instructions per round by category; the suite's 10:5:5:5 mix plus a
    # tenth of ambiguous requests that only the backend can expand.
    MIX = {"random": 720, "hard_to_predict": 360, "common_sense": 360, "mixed": 360, "ambiguous": 200}
    AMBIGUOUS_TEXTS = (
        "I want to take a bath.",
        "Get everything ready for my shower.",
        "Prepare for a bath, please.",
        "Could you set me up for a shower?",
        "I am about to have a bath.",
    )
    AMBIGUOUS_TARGETS = ["towel", "body_sponge"]
    WRONG_ANSWER_EVERY = 8  # one stored chat answer in eight names a wrong robot
    WARM_UP = 200

    def __init__(self, seed: int, scratch: Path, scale: float = 1.0):
        self.seed = seed
        self.scratch = scratch
        self.mix = {cat: max(int(n * scale), 1) for cat, n in self.MIX.items()}

    def setup(self) -> None:
        self.scratch.mkdir(parents=True, exist_ok=True)
        env = world.load_environment(ENV)
        robot_floor = robot_ids_by_floor(env)
        self.truth = Truth(env, robot_floor)
        self.robot_ids = list(robot_floor)
        self.room_to_robot = {room: self.truth.floor_robot[floor]
                              for room, floor in self.truth.room_floor.items()}
        self.vocab = sorted(env.placements)
        self.kbs = []
        for rid, floor in robot_floor.items():
            path = self.scratch / f"{rid}.json"
            knowledge.save_knowledge(knowledge.knowledge_from_environment(env, floor, rid), path)
            self.kbs.append(knowledge.load_knowledge(path))
        self.rule = planner.RuleBasedBackend()
        self.replay = planner.ReplayBackend(self.scratch / "replay")

        seeds = np.random.SeedSequence(self.seed).generate_state(len(self.mix) + 1)
        stream = []
        for cat_seed, (category, count) in zip(seeds, self.mix.items()):
            if category == "ambiguous":
                for i in range(count):
                    text = self.AMBIGUOUS_TEXTS[(int(cat_seed) + i) % len(self.AMBIGUOUS_TEXTS)]
                    stream.append((planner.Instruction(text, category="ambiguous"),
                                   self.AMBIGUOUS_TARGETS, "bring"))
            else:
                for instr in experiment.generate_instructions(category, env, count, seed=int(cat_seed)):
                    stream.append((instr, list(instr.gold_objects), "find"))
        rng = np.random.default_rng(int(seeds[-1]))
        order = rng.permutation(len(stream))
        self.stream = [stream[i] for i in order]

        # One canned chat answer per distinct prompt, written to the replay store.
        self.answers: dict[tuple, list[str]] = {}
        for _, targets, verb in self.stream:
            key = (verb, tuple(targets))
            if key in self.answers:
                continue
            robots = [self.truth.robot_for(obj) for obj in targets]
            if rng.integers(self.WRONG_ANSWER_EVERY) == 0:
                others = [r for r in self.robot_ids if r != robots[0]]
                robots[0] = others[0]
            subtasks = [planner.Subtask(verb, obj) for obj in targets]
            answer = "\n".join(f"SubTask {i}: {st.describe()} -> {rid}"
                               for i, (st, rid) in enumerate(zip(subtasks, robots), start=1))
            self.replay.store(planner.render_allocation_prompt(subtasks, self.kbs), answer)
            self.answers[key] = robots

    def close(self) -> None:
        pass

    def warm_up(self) -> None:
        scratch = Recorder()
        for i in range(min(self.WARM_UP, len(self.stream))):
            scratch.attempt(lambda: self._op(scratch, i))
        if scratch.failed:
            raise RuntimeError("plan warm-up failed: " + "; ".join(scratch.notes))

    def run_round(self, rec: Recorder, round_index: int) -> None:
        for i in range(len(self.stream)):
            rec.attempt(lambda: self._op(rec, i))

    def _op(self, rec: Recorder, i: int) -> None:
        instr, targets, verb = self.stream[i]
        clock = rec.clock
        t0 = clock()
        subtasks = planner.decompose(instr, self.vocab, backend=self.rule)
        t1 = clock()
        by_rule = planner.allocate(subtasks, self.kbs)
        t2 = clock()
        by_chat = planner.allocate(subtasks, self.kbs, backend=self.replay)
        t3 = clock()
        by_commonsense = planner.allocate_commonsense(subtasks, planner.COMMONSENSE_TYPICAL_ROOM,
                                                      self.room_to_robot)
        by_random = planner.allocate_random(subtasks, self.robot_ids, seed=i)
        t4 = clock()
        rec.op_seconds.append(t4 - t0)
        rec.sample("rule", t2 - t0)
        rec.sample("chat", (t1 - t0) + (t3 - t2))
        check_decomposition(subtasks, targets, verb)
        check_floor_allocation(by_rule, self.truth)
        check_stored_answer(by_chat, self.answers[(verb, tuple(targets))])
        check_commonsense_allocation(by_commonsense, self.truth, planner.COMMONSENSE_TYPICAL_ROOM)
        check_random_allocation(by_random, subtasks, self.truth)

    def end_to_end(self, rec: Recorder) -> dict:
        chat = scaled(rec, rec.samples["chat"])
        return {
            **op_metrics(scaled(rec, rec.op_seconds)),
            "rule_plan_p50_ms": (median(scaled(rec, rec.samples["rule"])) * 1e3, "ms"),
            "chat_plan_p50_ms": (median(chat) * 1e3, "ms"),
            "chat_plan_p99_ms": (p99(chat) * 1e3, "ms"),
        }


class Execute:
    """Seeded two-robot fetch episodes, each on a freshly built world."""

    name = "execute"
    EPISODES = 2000
    REPLAY_EVERY = 50  # rerun one episode in fifty with its seed

    def __init__(self, seed: int, scratch: Path, episodes: int = EPISODES):
        self.seed = seed
        self.scratch = scratch
        self.episodes = episodes

    def setup(self) -> None:
        env = world.load_environment(ENV)
        self.env = env
        robot_floor = robot_ids_by_floor(env)
        self.truth = Truth(env, robot_floor)
        floor_rooms = self.truth.floor_rooms
        # Robots start in their floor's first room; fresh states every episode.
        self.robot_specs = [(rid, floor, floor_rooms[floor][0]) for rid, floor in robot_floor.items()]
        # Flat presence rows: the search order is the floor's room order.
        self.kbs = []
        for rid, floor in robot_floor.items():
            rooms = floor_rooms[floor]
            flat = [1.0 / len(rooms)] * len(rooms)
            table = {obj: list(flat) for obj, f in self.truth.object_floor.items() if f == floor}
            self.kbs.append(knowledge.KnowledgeBase(rid, list(rooms), [[] for _ in rooms], table))
        self.policy = executor.ExecutionPolicy()
        seeds = np.random.SeedSequence(self.seed).generate_state(2)
        instructions = experiment.generate_instructions("random", env, self.episodes, seed=int(seeds[0]))
        episode_seeds = np.random.default_rng(int(seeds[1])).integers(0, 2**31, size=self.episodes)
        self.plan = []
        for instr, episode_seed in zip(instructions, episode_seeds):
            assignments = [planner.Assignment(planner.Subtask("bring", obj), self.truth.robot_for(obj))
                           for obj in instr.gold_objects]
            targets = {a.robot_id: a.subtask.target_object for a in assignments}
            self.plan.append((assignments, targets, int(episode_seed)))

    def close(self) -> None:
        pass

    def _episode(self, assignments, seed: int):
        robots = [world.RobotState(robot_id=rid, floor=floor, current_room=room)
                  for rid, floor, room in self.robot_specs]
        sim = world.World(self.env, robots, seed=seed)
        traces = executor.run_assignments(sim, assignments, self.kbs, policy=self.policy, seed=seed)
        return sim, traces

    def warm_up(self) -> None:
        for assignments, _, seed in self.plan[:200]:
            self._episode(assignments, seed)

    def run_round(self, rec: Recorder, round_index: int) -> None:
        for i in range(len(self.plan)):
            rec.attempt(lambda: self._op(rec, i))

    def _op(self, rec: Recorder, i: int) -> None:
        assignments, targets, seed = self.plan[i]
        t0 = rec.clock()
        sim, traces = self._episode(assignments, seed)
        elapsed = rec.clock() - t0
        rec.op_seconds.append(elapsed)
        rec.sample("skills", sum(len(t.steps) for t in traces))
        check_episode(sim, traces, targets, self.truth, self.policy.max_retries_per_skill + 1)
        if i % self.REPLAY_EVERY == 0:
            t1 = rec.clock()
            rerun = self._episode(assignments, seed)[1]
            rec.count("program_in_checks_s", rec.clock() - t1)
            check_replay(traces, rerun)

    def end_to_end(self, rec: Recorder) -> dict:
        ops = scaled(rec, rec.op_seconds)
        return {
            **op_metrics(ops),
            "skills_per_s": (block_rate(rec.samples["skills"], ops), "1/s"),
            "episode_p99_ms": (p99(ops) * 1e3, "ms"),
        }


WORKLOADS = {cls.name: cls for cls in (Suite, Plan, Execute)}


def coverage(name: str, seed: int, scratch: Path) -> list:
    """One small instance of each other workload, for the layers ``name`` never reaches.

    A traced run reports every per-layer metric on every workload; a layer
    that the workload's own operations never call is timed on one round of
    these.  The suite instance runs CLI seed 0 only, which meets C2.
    """
    small = {
        "suite": lambda: Suite(seed, scratch / "cover-suite", cli_seeds=(0,)),
        "plan": lambda: Plan(seed, scratch / "cover-plan", scale=0.05),
        "execute": lambda: Execute(seed, scratch / "cover-execute", episodes=100),
    }
    return [make() for other, make in small.items() if other != name]
