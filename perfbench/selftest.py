"""Smoke-sized self-test of the benchmark itself.

Usage, from the repository root::

    python3 perfbench/selftest.py

It runs every workload traced on the first ``ROUNDS`` rounds of its
trace for seed ``SEED``, and one workload untraced, and fails (exit 1)
unless

* every metric ``BENCHMARK.json`` lists is emitted, with its unit;
* every answer is right (the answer checker runs as in a full run);
* every traced wrapper fires on the workloads that claim its layer, every
  claimed bypass reads exactly 0 and every claimed full hit exactly 1
  (``layers.CLAIMS``): no exact tasks or LP solves on ``solve-replay``
  after set-up and a store hit for every replayed request, no ``cqcsp.*``
  outside ``query-serve`` and no ``dist.*`` outside ``solve-remote``.

So a renamed public function, or a workload that stops exercising its
layer, fails here instead of reporting 0.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import layers  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

SEED = 7
ROUNDS = 2


def _missing(result: dict, expected: list) -> list[str]:
    out = []
    for entry in expected:
        got = result["metrics"].get(entry["name"])
        if got is None:
            out.append(f"metric {entry['name']} not emitted")
        elif got["unit"] != entry["unit"]:
            out.append(f"metric {entry['name']} has unit {got['unit']}, not {entry['unit']}")
    return out


def main() -> int:
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    problems = []
    for name in workloads.WORKLOADS:
        result = run.run(name, SEED, 10, True, rounds=ROUNDS)
        if not result["correct"]:
            problems.append(f"{name}: {result['failed']} failed or wrong answers")
        problems += [f"{name}: {p}" for p in _missing(result, spec["per_layer"])]
        values = {k: v["value"] for k, v in result["metrics"].items()}
        problems += layers.violations(name, values)
    result = run.run("solve-replay", SEED, 10, False, rounds=ROUNDS)
    problems += [f"untraced: {p}" for p in _missing(result, spec["end_to_end"])]
    for line in problems:
        print(f"FAIL {line}")
    print("selftest: " + ("FAILED" if problems else "ok"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
