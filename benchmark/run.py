"""homeplan benchmark: one workload per invocation, result as the last stdout line.

    python3 benchmark/run.py --workload {suite,plan,execute} --seed N --seconds S --trace {0,1}

Run from the repository root.  With ``--trace 0`` it prints the workload's
end-to-end metrics; with ``--trace 1`` it runs half the time untraced and
half with spans around homeplan's public functions, then one traced cover
round of small instances of the other workloads, and prints the per-layer
metrics plus the tracing overhead.  See benchmark/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import sys
from pathlib import Path
from statistics import fmean, median
from time import perf_counter
from types import SimpleNamespace

# One worker thread: cap the BLAS pools before numpy is first imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"
SETUP_REPEATS = 5
# Set-up lasts under a second, so its host speed is sampled more densely.
SETUP_INTERVAL = 0.002
# The traced phase ends at the first round boundary past this many spans,
# which keeps the trace file to a few tens of megabytes.
MAX_SPANS = 300_000


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("suite", "plan", "execute"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def run_rounds(workload, rec, seconds: float, first_round: int = 0, full=lambda: False) -> int:
    """Whole rounds until ``seconds`` have passed or ``full()``; always at least one."""
    started = perf_counter()
    rounds = 0
    while True:
        workload.run_round(rec, first_round + rounds)
        rounds += 1
        if perf_counter() - started >= seconds or full():
            return rounds


def traced_rounds(workloads, tracer, speed, rec, run) -> dict:
    """Set up ``workloads``, then ``run()`` them with spans recorded; their per-layer metrics."""
    from hostspeed import speed_factor
    from tracing import layer_metrics, scale_times, setup_metrics

    with speed.sampling(rec):
        setup_first = len(tracer)
        for workload in workloads:
            workload.setup()
        first = len(tracer)
        tracer.observations.clear()  # set-up renders prompts too; count the rounds' only
        rounds = run()
    busy = sum(rec.op_seconds) + rec.counts.get("program_in_checks_s", 0.0)
    metrics = layer_metrics(tracer, first, busy, len(rec.op_seconds), rounds)
    metrics.update(setup_metrics(tracer, setup_first, first))
    return scale_times(metrics, speed_factor(rec.cal))


def traced_phase(workload, covers, tracer, speed, rec, cover_rec, seconds: float,
                 first_round: int) -> dict:
    """The per-layer metrics: the workload's own rounds traced, then one round of ``covers``.

    A metric the workload's own operations give comes from them; the others
    come from the cover round, which reaches the layers the workload never
    calls.
    """
    tracer.clock = speed.clock
    tracer.install()
    try:
        own = traced_rounds([workload], tracer, speed, rec, lambda: run_rounds(
            workload, rec, seconds, first_round, full=lambda: len(tracer) > MAX_SPANS))

        def cover_round():
            for cover in covers:
                cover.run_round(cover_rec, 0)
            return 1
        try:
            cover = traced_rounds(covers, tracer, speed, cover_rec, cover_round)
        finally:
            for c in covers:
                c.close()  # before uninstall, which restores what set-up patched
    finally:
        tracer.uninstall()
    print("per-layer metrics from the cover round: "
          + ", ".join(sorted(set(cover) - set(own))), file=sys.stderr)
    return {**cover, **own}


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "homeplan" / "__init__.py").is_file():
        print(f"error: no homeplan sources under {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    gated = {m["name"] for m in spec["per_layer" if args.trace else "end_to_end"]}
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(BENCH_DIR))

    from hostspeed import REFERENCE_PYTHON_KERNEL_S, HostSpeed, python_kernel_seconds, speed_factor
    from tracing import Tracer

    tracer = Tracer()
    # Set-up is sampled with a kernel that needs no numpy, since it imports numpy.
    setup_speed = HostSpeed(kernel=python_kernel_seconds, interval=SETUP_INTERVAL)
    setup_rec = SimpleNamespace(cal=[], op_seconds=[])
    scratch = OUT_DIR / f"scratch-{os.getpid()}"
    workload = None
    uncounted = []  # the cover round's operations: a wrong output counts, the attempts do not
    try:
        with setup_speed.sampling(setup_rec):
            clock = setup_speed.clock
            t0 = clock()
            import homeplan.cli  # noqa: F401  (the import a user of the CLI pays for)
            import_s = clock() - t0
            tracer.add_span("cli.import", t0, t0 + import_s)

            import workloads

            workload = workloads.WORKLOADS[args.workload](args.seed, scratch)
            setups = []
            for _ in range(SETUP_REPEATS):
                t = clock()
                workload.setup()
                setups.append(clock() - t)
        setup_raw_s = import_s + median(setups)
        setup_factor = speed_factor(setup_rec.cal, reference=REFERENCE_PYTHON_KERNEL_S)
        workload.warm_up()

        speed = HostSpeed()
        measured = workloads.Recorder()
        if not args.trace:
            with speed.sampling(measured):
                run_rounds(workload, measured, args.seconds)
            metrics = workload.end_to_end(measured)
            metrics["setup_s"] = (setup_raw_s * setup_factor, "s")
            metrics["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB")
            measured.raw = True
            raw = workload.end_to_end(measured)
            raw["setup_s"] = (setup_raw_s, "s")
            print("raw (unscaled) figures: " + ", ".join(
                f"{name} {value:.6g} {unit} (scaled {metrics[name][0]:.6g})"
                for name, (value, unit) in sorted(raw.items())), file=sys.stderr)
            recorders = [measured]
        else:
            with speed.sampling(measured):
                rounds = run_rounds(workload, measured, args.seconds / 2)
            traced = workloads.Recorder()
            covered = workloads.Recorder()
            covers = workloads.coverage(args.workload, args.seed, scratch)
            metrics = traced_phase(workload, covers, tracer, speed, traced, covered,
                                   args.seconds / 2, rounds)
            metrics["cli.import_s"] = (import_s * setup_factor, "s")
            # Overhead: mean operation time of each phase at reference host speed.
            overhead = fmean(workloads.scaled(traced, traced.op_seconds)) / \
                fmean(workloads.scaled(measured, measured.op_seconds)) - 1.0
            metrics["trace.overhead_pct"] = (100.0 * overhead, "%")
            recorders = [measured, traced]
            uncounted = [covered]
            OUT_DIR.mkdir(exist_ok=True)
            tracer.write(OUT_DIR / f"trace-{args.workload}-seed{args.seed}.json",
                         {"workload": args.workload, "seed": args.seed})
        print(f"host speed factor (reference / sampled kernel time): operations "
              f"{speed_factor(measured.cal):.3f}, set-up {setup_factor:.3f}", file=sys.stderr)
    finally:
        if workload is not None:
            workload.close()
        shutil.rmtree(scratch, ignore_errors=True)

    attempted = sum(r.attempted for r in recorders)
    failed = sum(r.failed for r in recorders)
    correct = attempted > 0 and not any(r.wrong for r in recorders + uncounted)
    if getattr(workload, "recovery", None):
        print("learned best-room recovery (CLI seed, floor, right, objects): "
              + ", ".join(f"{s} {f} {h}/{n}" for s, f, h, n in workload.recovery), file=sys.stderr)
    shown = {name: {"value": value, "unit": unit} for name, (value, unit) in sorted(metrics.items())}
    extra = {name: m for name, m in shown.items() if name not in gated}
    if extra:
        print("not in BENCHMARK.json: " + json.dumps(extra), file=sys.stderr)
    missing = gated - set(shown)
    if missing:
        print(f"error: no value for {', '.join(sorted(missing))}", file=sys.stderr)
        return 1
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: m for name, m in shown.items() if name in gated},
    }
    OUT_DIR.mkdir(exist_ok=True)
    (OUT_DIR / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(result, indent=2))
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
