"""Spread tool: repeat one workload and report how much each metric moves.

Usage, from the repository root::

    python3 perfbench/spread.py --workload solve-cold --seeds 1,1,1,1,1
    python3 perfbench/spread.py --workload solve-cold --seeds 1,2,3,4,5 --trace 1

Each run is a fresh ``perfbench/run.py`` process, as the benchmark is run,
measuring ``run_seconds`` from ``BENCHMARK.json``.
For every metric it prints the median and the distance between the first
and third quartile (``statistics.quantiles(values, n=4)``) as a share of the
median -- the evidence behind the bounds in ``BENCHMARK.json``.  With one
seed the single closed-loop client sends the same requests every run, so a
``/stats`` counter that still differs between runs is reported as varying;
it is a property of the program, not of the trace.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent

#: /stats counters a single-client trace should repeat exactly.
COUNTERS = ("tasks_run", "lp_solves", "plans_computed", "store_instance_hits")


def one_run(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict]:
    out = subprocess.run(
        [
            sys.executable,
            str(HERE / "run.py"),
            "--workload",
            workload,
            "--seed",
            str(seed),
            "--seconds",
            str(seconds),
            "--trace",
            str(trace),
        ],
        cwd=HERE.parent,
        capture_output=True,
        text=True,
        check=True,
    ).stdout.splitlines()
    stats = next(json.loads(line[6:]) for line in out if line.startswith("stats "))
    return json.loads(out[-1]), stats


def spread(values: list) -> tuple[float, float]:
    """(median, quartile distance / median) of ``values``."""
    median = statistics.median(values)
    q1, _q2, q3 = statistics.quantiles(values, n=4)
    return median, (q3 - q1) / median if median else 0.0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument(
        "--seeds", required=True, help="comma-separated seeds, one run each"
    )
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    seeds = [int(s) for s in args.seeds.split(",")]
    seconds = json.loads((HERE.parent / "BENCHMARK.json").read_text())["run_seconds"]
    results, counters = [], []
    for seed in seeds:
        result, stats = one_run(args.workload, seed, seconds, args.trace)
        if not result["correct"]:
            print(f"seed {seed}: incorrect run: {result}", file=sys.stderr)
            return 1
        results.append(result["metrics"])
        counters.append(stats)
        print(
            f"seed {seed}: "
            + ", ".join(f"{k}={v['value']:.4g}" for k, v in result["metrics"].items()),
            flush=True,
        )
    print(f"{args.workload}: {len(seeds)} runs, seeds {sorted(set(seeds))}")
    for name, entry in results[0].items():
        median, share = spread([r[name]["value"] for r in results])
        print(f"  {name:40s} median {median:12.4f} {entry['unit']:6s} spread {share:7.2%}")
    if len(set(seeds)) == 1:
        for key in COUNTERS:
            values = [c[key] for c in counters]
            if len(set(values)) > 1:
                print(f"  /stats {key} varies under one seed: {values}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
