"""Spans around calls into homeplan's public functions, recorded from outside.

:class:`Tracer` replaces each listed function (and every homeplan module's
reference to it, since modules import names from each other) with a wrapper
that records one span: name, start, end and parent.  Spans live in compact
arrays until :meth:`Tracer.write` dumps them; :func:`layer_metrics` turns them
into the per-layer figures.  Nothing is patched until :meth:`Tracer.install`.
"""

from __future__ import annotations

import json
import sys
from array import array
from time import perf_counter

# (span name, module, attribute path).  Span names start with the layer
# (module) they belong to; self time is attributed by that prefix.
TRACED = (
    ("cli.main", "homeplan.cli", "main"),
    ("experiment.run_suite", "homeplan.experiment", "run_suite"),
    ("experiment.learn_floor_knowledge", "homeplan.experiment", "learn_floor_knowledge"),
    ("experiment.score_allocations", "homeplan.experiment", "score_allocations"),
    ("experiment.generate_instructions", "homeplan.experiment", "generate_instructions"),
    ("learner.learn_fixed_lag", "homeplan.learner", "learn_fixed_lag"),
    ("world.generate_floor_sessions", "homeplan.world", "generate_floor_sessions"),
    ("world.load_environment", "homeplan.world", "load_environment"),
    ("world.World.__init__", "homeplan.world", "World.__init__"),
    ("world.World.step_skill", "homeplan.world", "World.step_skill"),
    ("spatial.object_location_posterior", "homeplan.spatial", "object_location_posterior"),
    ("spatial.word_posterior", "homeplan.spatial", "word_posterior"),
    ("knowledge.match_room_names", "homeplan.knowledge", "match_room_names"),
    ("knowledge.extract_knowledge", "homeplan.knowledge", "extract_knowledge"),
    ("knowledge.render_presence_table", "homeplan.knowledge", "render_presence_table"),
    ("knowledge.load_knowledge", "homeplan.knowledge", "load_knowledge"),
    ("planner.decompose", "homeplan.planner", "decompose"),
    ("planner.render_decomposition_prompt", "homeplan.planner", "render_decomposition_prompt"),
    ("planner.allocate", "homeplan.planner", "allocate"),
    ("planner.render_allocation_prompt", "homeplan.planner", "render_allocation_prompt"),
    ("planner.allocate_commonsense", "homeplan.planner", "allocate_commonsense"),
    ("planner.allocate_random", "homeplan.planner", "allocate_random"),
    ("planner.ReplayBackend.complete", "homeplan.planner", "ReplayBackend.complete"),
    ("executor.run_assignments", "homeplan.executor", "run_assignments"),
)

LAYERS = ("cli", "experiment", "learner", "world", "spatial", "knowledge", "planner", "executor")


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._name_id: dict[str, int] = {}
        self.name = array("H")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("l")
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []
        # Per-call observations that are not times: prompt sizes, trace shapes.
        self.observations: dict[str, list] = {}
        self.clock = perf_counter
        self.origin = perf_counter()

    def __len__(self) -> int:
        return len(self.start)

    def _id(self, name: str) -> int:
        if name not in self._name_id:
            self._name_id[name] = len(self.names)
            self.names.append(name)
        return self._name_id[name]

    def add_span(self, name: str, start: float, end: float) -> None:
        """Record a span measured by the caller (the import, for instance)."""
        self.name.append(self._id(name))
        self.start.append(start)
        self.end.append(end)
        self.parent.append(self._stack[-1] if self._stack else -1)

    def wrap(self, name: str, fn):
        name_id = self._id(name)
        observe = _OBSERVERS.get(name)
        stack, names, starts, ends, parents = self._stack, self.name, self.start, self.end, self.parent
        clock = self.clock

        def traced(*args, **kwargs):
            idx = len(starts)
            names.append(name_id)
            parents.append(stack[-1] if stack else -1)
            starts.append(0.0)
            ends.append(0.0)
            stack.append(idx)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                starts[idx] = t0
                ends[idx] = t1
            if observe is not None:
                observe(self.observations, args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        modules = [m for key, m in sys.modules.items() if key == "homeplan" or key.startswith("homeplan.")]
        for span, module_name, attr in TRACED:
            owner = sys.modules[module_name]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                self._patch(cls, meth, self.wrap(span, cls.__dict__[meth]))
                continue
            original = getattr(owner, attr)
            wrapper = self.wrap(span, original)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._patch(module, key, wrapper)

    def _patch(self, owner, key: str, value) -> None:
        self._patches.append((owner, key, getattr(owner, key) if not isinstance(owner, type)
                              else owner.__dict__[key]))
        setattr(owner, key, value)

    def uninstall(self) -> None:
        while self._patches:
            owner, key, original = self._patches.pop()
            setattr(owner, key, original)

    def write(self, path, meta: dict) -> None:
        """Dump every span, in microseconds from the tracer's creation.

        Span times are on the tracer's clock, which leaves out host-speed
        sampling when the run sets it to :meth:`HostSpeed.clock`.
        """
        origin = self.origin
        doc = dict(meta)
        doc["names"] = self.names
        doc["spans"] = {
            "name": self.name.tolist(),
            "start_us": [round((t - origin) * 1e6, 2) for t in self.start],
            "end_us": [round((t - origin) * 1e6, 2) for t in self.end],
            "parent": self.parent.tolist(),
        }
        with open(path, "w") as fh:
            json.dump(doc, fh, separators=(",", ":"))


def _observe_prompt(obs, args, kwargs, result):
    obs.setdefault("allocation_prompt_bytes", []).append(len(result.encode("utf-8")))


def _observe_allocate(obs, args, kwargs, result):
    backend = kwargs.get("backend", args[2] if len(args) > 2 else None)
    obs.setdefault("allocate_path", []).append(
        "rule" if backend is None or backend.tag == "rule_based" else "chat")


def _observe_learn(obs, args, kwargs, result):
    sessions = args[0]
    hp = kwargs.get("hp", args[1] if len(args) > 1 else None) or result.hyperparameters
    obs.setdefault("grid_evals", []).append(computed_grid_evals(len(sessions), hp.num_particles,
                                                                 hp.lag_window))


def _observe_traces(obs, args, kwargs, result):
    out = obs.setdefault("traces", [0, 0, 0, 0, 0])  # subtasks, succeeded, steps, ok steps, fallbacks
    for trace in result:
        out[0] += 1
        out[1] += trace.result == "subtask_succeeded"
        out[2] += len(trace.steps)
        out[3] += sum(s.outcome.succeeded for s in trace.steps)
        destination = trace.steps[-1].argument if trace.result == "subtask_succeeded" else None
        searched = {s.argument for s in trace.steps if s.skill == "navigation" and s.argument != destination}
        out[4] += max(len(searched) - 1, 0)


_OBSERVERS = {
    "planner.render_allocation_prompt": _observe_prompt,
    "planner.allocate": _observe_allocate,
    "learner.learn_fixed_lag": _observe_learn,
    "executor.run_assignments": _observe_traces,
}


def computed_grid_evals(sessions: int, particles: int, lag: int) -> int:
    """Collapsed-conditional evaluations of one floor learn, from the protocol alone.

    Each arriving session is scored once per particle, then one Gibbs sweep
    rescores every session in the lag window (up to ``lag`` of them).
    """
    window_total = sum(min(t + 1, lag) for t in range(sessions))
    return particles * (sessions + window_total)


def _durations(tracer: Tracer, first: int):
    """Per span from index ``first``: (name, duration, self time)."""
    n = len(tracer)
    dur = [tracer.end[i] - tracer.start[i] for i in range(first, n)]
    child = [0.0] * (n - first)
    for i in range(first, n):
        p = tracer.parent[i]
        if p >= first:
            child[p - first] += dur[i - first]
    names = tracer.names
    return [(names[tracer.name[i]], dur[i - first], dur[i - first] - child[i - first])
            for i in range(first, n)]


def layer_metrics(tracer: Tracer, first: int, op_seconds: float, ops: int, rounds: int) -> dict:
    """Per-layer figures from spans ``first..``: means per call, counts, self-time shares.

    ``op_seconds`` is the benchmark-measured time of the ``ops`` traced
    operations, made in ``rounds`` whole rounds; layer self times are given as
    shares of it.
    """
    rows = _durations(tracer, first)
    total: dict[str, float] = {}
    own: dict[str, float] = {}
    calls: dict[str, int] = {}
    for name, dur, self_time in rows:
        total[name] = total.get(name, 0.0) + dur
        own[name] = own.get(name, 0.0) + self_time
        calls[name] = calls.get(name, 0) + 1

    def mean(name, scale):
        return total[name] / calls[name] * scale if calls.get(name) else None

    obs = tracer.observations
    m: dict[str, tuple[float, str] | None] = {}
    learn_s = mean("learner.learn_fixed_lag", 1.0)
    m["learner.learn_s"] = (learn_s, "s") if learn_s is not None else None
    if obs.get("grid_evals"):
        evals = obs["grid_evals"][-1]
        m["learner.grid_evals"] = (evals, "count-computed")
        m["learner.grid_eval_us"] = (learn_s / evals * 1e6, "us")
    m["world.sessions_ms"] = _unit(mean("world.generate_floor_sessions", 1e3), "ms")
    m["world.init_us"] = _unit(mean("world.World.__init__", 1e6), "us")
    m["world.step_skill_us"] = _unit(mean("world.World.step_skill", 1e6), "us")
    m["spatial.object_posterior_us"] = _unit(mean("spatial.object_location_posterior", 1e6), "us")
    if calls.get("knowledge.extract_knowledge"):
        both = total["knowledge.extract_knowledge"] + total.get("knowledge.match_room_names", 0.0)
        m["knowledge.extract_ms"] = (both / calls["knowledge.extract_knowledge"] * 1e3, "ms")
    m["knowledge.presence_render_us"] = _unit(mean("knowledge.render_presence_table", 1e6), "us")
    if calls.get("planner.decompose"):
        m["planner.decompose_us"] = (mean("planner.decompose", 1e6), "us")
        m["planner.backend_decompositions"] = (
            calls.get("planner.render_decomposition_prompt", 0) / rounds, "count")
    if calls.get("planner.allocate"):
        paths = obs.get("allocate_path", [])
        allocate_rows = [dur for name, dur, _ in rows if name == "planner.allocate"]
        for path in ("rule", "chat"):
            picked = [d for d, p in zip(allocate_rows, paths) if p == path]
            if picked:
                m[f"planner.allocate_{path}_us"] = (sum(picked) / len(picked) * 1e6, "us")
    m["planner.allocation_prompt_us"] = _unit(mean("planner.render_allocation_prompt", 1e6), "us")
    if obs.get("allocation_prompt_bytes"):
        sizes = obs["allocation_prompt_bytes"]
        m["planner.allocation_prompt_bytes"] = (sum(sizes) / len(sizes), "bytes")
    m["planner.replay_complete_us"] = _unit(mean("planner.ReplayBackend.complete", 1e6), "us")
    baseline_calls = calls.get("planner.allocate_commonsense", 0) + calls.get("planner.allocate_random", 0)
    if baseline_calls:
        baseline_total = total.get("planner.allocate_commonsense", 0.0) + total.get("planner.allocate_random", 0.0)
        m["planner.baselines_us"] = (baseline_total / baseline_calls * 1e6, "us")
    if calls.get("executor.run_assignments"):
        n = calls["executor.run_assignments"]
        m["executor.run_assignments_us"] = (total["executor.run_assignments"] / n * 1e6, "us")
        m["executor.self_us"] = (own["executor.run_assignments"] / n * 1e6, "us")
        subtasks, succeeded, steps, ok_steps, fallbacks = obs["traces"]
        m["executor.skills_per_subtask"] = (steps / subtasks, "count")
        m["executor.room_fallbacks_per_subtask"] = (fallbacks / subtasks, "count")
        m["executor.skill_success_ratio"] = (ok_steps / steps, "ratio")
        m["executor.subtask_success_ratio"] = (succeeded / subtasks, "ratio")
    m["experiment.run_suite_s"] = _unit(mean("experiment.run_suite", 1.0), "s")
    m["experiment.score_us"] = _unit(mean("experiment.score_allocations", 1e6), "us")

    layer_self: dict[str, float] = {}
    for name, self_time in own.items():
        layer = name.split(".", 1)[0]
        layer_self[layer] = layer_self.get(layer, 0.0) + self_time
    for layer in LAYERS:
        if layer in layer_self:
            m[f"{layer}.self_pct"] = (100.0 * layer_self[layer] / op_seconds, "%")
    m["trace.spans_per_op"] = (len(rows) / ops, "count")
    return {k: v for k, v in m.items() if v is not None}


def setup_metrics(tracer: Tracer, first: int, end: int) -> dict:
    """Figures of the traced set-up: knowledge-base loading."""
    m = {}
    loads = [dur for name, dur, _ in _durations(tracer, first)[:end - first]
             if name == "knowledge.load_knowledge"]
    if loads:
        m["knowledge.load_ms"] = (sum(loads) / len(loads) * 1e3, "ms")
    return m


_TIME_SCALE = {"s", "ms", "us"}


def scale_times(metrics: dict, factor: float) -> dict:
    """Times multiplied by the host speed factor; counts, shares and sizes unchanged."""
    return {name: ((value * factor, unit) if unit in _TIME_SCALE else (value, unit))
            for name, (value, unit) in metrics.items()}


def _unit(value, unit):
    return None if value is None else (value, unit)
