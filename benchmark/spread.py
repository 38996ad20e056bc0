"""Run-to-run spread of the benchmark's end-to-end metrics.

    python3 benchmark/spread.py --workload plan --seeds 1 2 3 4 5

Runs the benchmark command once per seed, one run at a time, for
``run_seconds`` from BENCHMARK.json.  Prints for each metric the median, the
quartiles (``statistics.quantiles(n=4)``) and the quartile distance as a share
of the median, next to the bound from BENCHMARK.json.  Raw results are
appended as JSON lines to ``--log``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    parser.add_argument("--log", default=str(ROOT / ".bench_out" / "spread.jsonl"))
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    values: dict[str, list[float]] = {}
    failed_shares = set()
    Path(args.log).parent.mkdir(exist_ok=True)
    for seed in args.seeds:
        cmd = spec["command"] + ["--workload", args.workload, "--seed", str(seed),
                                 "--seconds", str(seconds), "--trace", "0"]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
        if proc.returncode != 0:
            print(proc.stderr, file=sys.stderr)
            print(f"seed {seed}: exit code {proc.returncode}", file=sys.stderr)
            return 1
        result = json.loads(proc.stdout.splitlines()[-1])
        with open(args.log, "a") as fh:
            fh.write(json.dumps({"workload": args.workload, "seed": seed, "result": result,
                                 "stderr": proc.stderr[-2000:]}) + "\n")
        failed_shares.add(result["failed"] / result["attempted"])
        print(f"seed {seed}: correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']} "
              + " ".join(f"{k}={v['value']:.6g}" for k, v in result["metrics"].items()), flush=True)
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])

    print(f"\n{args.workload}: {len(args.seeds)} runs of {seconds:g} s")
    print(f"{'metric':<22} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8} {'bound':>6}")
    for name, vals in values.items():
        med = statistics.median(vals)
        q1, _, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (vals[0],) * 3
        print(f"{name:<22} {med:>12.6g} {q1:>12.6g} {q3:>12.6g} {(q3 - q1) / med:>8.3f} "
              f"{bounds.get(name, float('nan')):>6}")
    print(f"failed shares seen: {sorted(failed_shares, key=str)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
