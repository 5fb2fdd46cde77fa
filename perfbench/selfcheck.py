#!/usr/bin/env python3
"""Small-scale self-check of the benchmark itself.

Run from the root of a stresskit checkout:

    python3 perfbench/selfcheck.py

On shrunken inputs it confirms that every workload prints each metric
listed in BENCHMARK.json with its unit, untraced and traced, with no
failures; and that a deliberately corrupted output and a non-zero exit
are each counted as a failed command. Exits 0 when all of that holds.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys

import run

# Shrunken inputs, except for train: its accuracy floors hold at full size.
SCALE = {"train": 1.0, "analyze": 0.2, "predict-cold": 0.2, "annotate": 0.2}
SECONDS = 0.1  # one round each


def quiet_bench(*args, **kwargs) -> dict:
    with contextlib.redirect_stdout(io.StringIO()):
        return run.bench(*args, **kwargs)


def check_metrics(result: dict, expected: list[dict]) -> list[str]:
    got = result["metrics"]
    problems = []
    if set(got) != {m["name"] for m in expected}:
        problems.append(f"metric names {sorted(got)} differ from BENCHMARK.json")
    for m in expected:
        entry = got.get(m["name"], {})
        if entry.get("unit") != m["unit"] or not isinstance(entry.get("value"), (int, float)):
            problems.append(f"{m['name']}: printed {entry}, expected unit {m['unit']}")
    return problems


def main() -> int:
    with open(run.HERE.parent / "BENCHMARK.json", encoding="utf-8") as handle:
        spec = json.load(handle)
    if [w["name"] for w in spec["workloads"]] != list(run.WORKLOADS):
        print(f"BENCHMARK.json workloads differ from run.WORKLOADS {list(run.WORKLOADS)}")
        return 1
    problems = []
    for name in run.WORKLOADS:
        for trace, expected in ((False, spec["end_to_end"]), (True, spec["per_layer"])):
            result = quiet_bench(name, 1, SECONDS, trace, scale=SCALE[name])
            label = f"{name} trace={int(trace)}"
            if not result["correct"] or result["failed"]:
                problems.append(f"{label}: {result['failed']} failed on a clean run")
            problems += [f"{label}: {p}" for p in check_metrics(result, expected)]
            print(f"{label}: attempted {result['attempted']}, failed {result['failed']}")
    for fault in ("corrupt", "exit"):
        for name in run.WORKLOADS:
            result = quiet_bench(name, 1, SECONDS, False, scale=SCALE[name], fault=fault)
            print(f"{name} with fault {fault}: attempted {result['attempted']}, "
                  f"failed {result['failed']}")
            if result["correct"] or result["failed"] < 1:
                problems.append(f"{name}: injected fault {fault!r} was not counted")
    for problem in problems:
        print("PROBLEM " + problem)
    print("selfcheck " + ("failed" if problems else "passed"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
